"""The built-in sweep catalog: the paper's cell-grid studies as
``sweep/v1`` specs.

Each entry (fig10, fig12, fig13, fig14, ``l1_size_study``) is a grid
of engine cells.  The fig* experiments' ``plan_cells`` is *derived
from the spec* through the expander, so the declarative form and the
imperative experiment can never drift.  Studies whose work is not a
cell grid (occurrence profiling, per-miss attribution, timing-model
tables) are registry experiments only: run them with
``repro-fvc run <id>``, :func:`repro.api.run_experiment` or
``POST /v1/jobs``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sweeps.spec import SWEEP_SCHEMA, SweepSpecError, normalise_sweep

#: fig10's FVC-entry grid (full / fast).
FIG10_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
FIG10_FAST_SIZES = (64, 512, 4096)

#: fig13's (line bytes, small DMC KB, doubled DMC KB) pairs.
FIG13_PAIRS = (
    (8, 4, 8),
    (16, 8, 16),
    (16, 16, 32),
    (16, 32, 64),
    (32, 16, 32),
    (32, 32, 64),
    (64, 32, 64),
)
FIG13_BENCHMARKS = ("m88ksim", "perl")

#: fig14's base-cache associativities (full / fast).
FIG14_WAYS = (1, 2, 4)
FIG14_FAST_WAYS = (1, 2)

#: Exploited value counts the paper compares throughout.
TOP_VALUES = (1, 3, 7)


def _workloads(fast: bool) -> List[str]:
    # Lazy: experiment modules import this catalog's grid constants at
    # module level, so the catalog must not import repro.experiments
    # (and thereby the registry) until a builder actually runs.
    from repro.experiments.common import FVL_NAMES

    return list(FVL_NAMES)


def input_for(fast: bool) -> str:
    from repro.experiments.common import input_for as _input_for

    return _input_for(fast)


def _fig10(fast: bool) -> Dict[str, object]:
    sizes = FIG10_FAST_SIZES if fast else FIG10_SIZES
    return {
        "schema": SWEEP_SCHEMA,
        "name": "fig10",
        "title": "Miss rate reduction vs FVC size (16KB DMC, 8 words/line, top 7)",
        "axes": {
            "workload": _workloads(fast),
            "input": [input_for(fast)],
            "fvc_entries": list(sizes),
        },
        "arms": [
            {
                "name": "base",
                "kind": "baseline",
                "cell": {"size_bytes": 16 * 1024, "line_bytes": 32},
            },
            {
                "name": "fvc",
                "kind": "fvc",
                "cell": {
                    "size_bytes": 16 * 1024,
                    "line_bytes": 32,
                    "top_values": 7,
                },
            },
        ],
        "report": {
            "fields": ["miss_rate_percent", "reduction_percent"],
            "aggregates": ["mean"],
        },
    }


def _fig12(fast: bool) -> Dict[str, object]:
    from repro.experiments.fig12_value_count import admissible_configs

    configs = admissible_configs()
    if fast:
        configs = configs[:3]
    return {
        "schema": SWEEP_SCHEMA,
        "name": "fig12",
        "title": "Reduction in miss rate: top 1 vs 3 vs 7 values (512-entry FVC)",
        "axes": {
            "workload": _workloads(fast),
            "input": [input_for(fast)],
            "geometry": [
                {
                    "size_bytes": geometry.size_bytes,
                    "line_bytes": geometry.line_bytes,
                }
                for geometry in configs
            ],
            "top_values": list(TOP_VALUES),
        },
        "arms": [
            {
                "name": "base",
                "kind": "baseline",
                "cell": {
                    "size_bytes": "$geometry.size_bytes",
                    "line_bytes": "$geometry.line_bytes",
                },
            },
            {
                "name": "fvc",
                "kind": "fvc",
                "cell": {
                    "size_bytes": "$geometry.size_bytes",
                    "line_bytes": "$geometry.line_bytes",
                    "fvc_entries": 512,
                },
            },
        ],
        "report": {
            "fields": ["miss_rate_percent", "reduction_percent"],
            "aggregates": ["mean"],
        },
    }


def _fig13(fast: bool) -> Dict[str, object]:
    pairs = FIG13_PAIRS[:2] if fast else FIG13_PAIRS
    tops = (7,) if fast else (7, 3, 1)
    return {
        "schema": SWEEP_SCHEMA,
        "name": "fig13",
        "title": "DMC + FVC vs larger DMC (miss rates, m88ksim & perl analogs)",
        "axes": {
            "workload": list(FIG13_BENCHMARKS),
            "input": [input_for(fast)],
            "pair": [
                {
                    "line_bytes": line_bytes,
                    "small_bytes": small_kb * 1024,
                    "double_bytes": double_kb * 1024,
                }
                for line_bytes, small_kb, double_kb in pairs
            ],
            "top_values": list(tops),
        },
        "arms": [
            {
                "name": "double",
                "kind": "baseline",
                "cell": {
                    "size_bytes": "$pair.double_bytes",
                    "line_bytes": "$pair.line_bytes",
                },
            },
            {
                "name": "fvc",
                "kind": "fvc",
                "cell": {
                    "size_bytes": "$pair.small_bytes",
                    "line_bytes": "$pair.line_bytes",
                    "fvc_entries": 512,
                },
            },
        ],
        "report": {
            "fields": ["miss_rate_percent"],
            "aggregates": ["mean"],
        },
    }


def _fig14(fast: bool) -> Dict[str, object]:
    ways = FIG14_FAST_WAYS if fast else FIG14_WAYS
    return {
        "schema": SWEEP_SCHEMA,
        "name": "fig14",
        "title": "FVC with 1/2/4-way base caches (16KB, 8 words/line, top 7)",
        "axes": {
            "workload": _workloads(fast),
            "input": [input_for(fast)],
            "ways": list(ways),
        },
        "arms": [
            {
                "name": "base",
                "kind": "baseline",
                "cell": {"size_bytes": 16 * 1024, "line_bytes": 32},
            },
            {
                "name": "fvc",
                "kind": "fvc",
                "cell": {
                    "size_bytes": 16 * 1024,
                    "line_bytes": 32,
                    "fvc_entries": 512,
                    "top_values": 7,
                },
            },
            {
                "name": "classify",
                "kind": "classify",
                "cell": {
                    "size_bytes": 16 * 1024,
                    "line_bytes": 32,
                    "ways": 1,
                },
            },
        ],
        "report": {
            "fields": [
                "miss_rate_percent",
                "reduction_percent",
                "conflict",
                "capacity",
                "compulsory",
            ],
            "aggregates": ["mean"],
        },
    }


def _l1_size_study(fast: bool) -> Dict[str, object]:
    workloads = ["m88ksim", "perl"] if fast else _workloads(fast)
    sizes = [4 * 1024, 16 * 1024] if fast else [
        4 * 1024,
        8 * 1024,
        16 * 1024,
        32 * 1024,
        64 * 1024,
    ]
    tops = [1, 7] if fast else list(TOP_VALUES)
    return {
        "schema": SWEEP_SCHEMA,
        "name": "l1_size_study",
        "title": "L1 size study: DMC geometry x exploited-value-count grid",
        "axes": {
            "workload": workloads,
            "input": [input_for(fast)],
            "size_bytes": sizes,
            "top_values": tops,
        },
        "arms": [
            {
                "name": "base",
                "kind": "baseline",
                "cell": {"line_bytes": 32},
            },
            {
                "name": "fvc",
                "kind": "fvc",
                "cell": {"line_bytes": 32, "fvc_entries": 512},
            },
        ],
        "report": {
            "fields": [
                "miss_rate_percent",
                "reduction_percent",
                "traffic_words",
            ],
            "aggregates": ["mean"],
        },
    }


#: name -> builder(fast) for every catalogued sweep.
_BUILDERS: Dict[str, Callable[[bool], Dict[str, object]]] = {
    "fig10": _fig10,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "l1_size_study": _l1_size_study,
}


def sweep_names() -> List[str]:
    """Every catalogued sweep name, sorted."""
    return sorted(_BUILDERS)


def get_sweep(name: str, fast: bool = False) -> Dict[str, object]:
    """The normalised catalogued spec, or :class:`SweepSpecError` for
    an unknown name (pointing at ``repro-fvc run`` when the name is a
    registered experiment rather than a sweep)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        from repro.experiments.registry import experiment_ids

        if name in experiment_ids():
            raise SweepSpecError(
                f"{name!r} is an experiment, not a catalogued sweep: "
                f"use 'repro-fvc run {name}', repro.api.run_experiment "
                "or POST /v1/jobs"
            )
        raise SweepSpecError(
            f"unknown catalogued sweep {name!r} "
            f"(known: {', '.join(sweep_names())})"
        )
    return normalise_sweep(builder(fast))

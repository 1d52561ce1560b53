"""``repro.api`` — the stable public facade.

Everything a downstream script needs, behind a handful of names that
are guaranteed not to move between releases:

* :func:`run_experiment` — run one paper experiment end to end;
* :func:`run_sweep` — run one declarative ``sweep/v1`` matrix and get
  its aggregated report (:class:`SweepResult`);
* :func:`describe_sweep` — a sweep's expansion/report shape, statically;
* :func:`simulate` — run one ``workload x cache-config`` simulation;
* :func:`profile_trace` — the paper's frequent-value profile of one
  workload trace;
* :func:`connect` — a client for a running simulation service;
* :func:`list_experiments` / :func:`list_sweeps` /
  :func:`list_workloads` — the catalogs.

Compatibility contract: names in ``__all__`` keep their signatures
(new parameters are keyword-only with defaults); payloads returned by
service calls carry ``schema`` tags and only change additively under
the same tag.  Deep imports (``repro.engine``, ``repro.fvc``, …)
remain possible but are *internal*: they may move without notice, and
the convenience re-exports on the top-level ``repro`` package are
deprecated in favour of this module (see ``docs/API.md``).

Example::

    from repro import api

    outcome = api.simulate("gcc", kind="fvc", fvc_entries=512)
    print(outcome.miss_rate)

    payload = api.run_experiment("fig13", fast=True)
    profile = api.profile_trace("gcc")

    sweep = api.run_sweep("l1_size_study", fast=True, jobs=4)
    print(sweep.to_csv())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "SimulationOutcome",
    "SweepResult",
    "connect",
    "describe_sweep",
    "list_experiments",
    "list_sweeps",
    "list_workloads",
    "profile_trace",
    "run_experiment",
    "run_sweep",
    "simulate",
]


def run_experiment(
    experiment_id: str,
    *,
    fast: bool = False,
    jobs: int = 1,
    checkpoint=None,
    store=None,
) -> Dict:
    """Run one registered experiment and return its payload dict.

    ``fast`` shrinks inputs for smoke runs; ``jobs`` fans decomposable
    experiments across worker processes (bit-identical to ``jobs=1``);
    ``checkpoint`` (a :class:`repro.engine.checkpoint.RunCheckpoint`)
    makes the run resumable.  Unknown ids raise
    :class:`repro.common.errors.ConfigurationError` naming the catalog.
    """
    from repro.experiments.registry import run_experiment as _run
    from repro.experiments.render import experiment_payload

    result = _run(
        experiment_id, store=store, fast=fast, jobs=jobs, checkpoint=checkpoint
    )
    return experiment_payload(result)


@dataclass(frozen=True)
class SimulationOutcome:
    """The stable result shape of :func:`simulate`.

    ``stats`` is the cache-counter snapshot
    (:meth:`repro.cache.stats.CacheStats.as_dict`); ``extras`` carries
    simulator-specific counters (FVC hit breakdown, 3C classes).
    """

    workload: str
    input_name: str
    kind: str
    stats: Dict[str, int]
    extras: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        """Trace references simulated."""
        if "accesses" in self.extras:
            return int(self.extras["accesses"])
        return int(
            self.stats.get("read_hits", 0)
            + self.stats.get("read_misses", 0)
            + self.stats.get("write_hits", 0)
            + self.stats.get("write_misses", 0)
        )

    @property
    def misses(self) -> int:
        return int(
            self.stats.get("read_misses", 0)
            + self.stats.get("write_misses", 0)
        )

    @property
    def miss_rate(self) -> float:
        """Overall miss rate; ``0.0`` for an empty trace."""
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0


def simulate(
    workload: str,
    *,
    input_name: str = "ref",
    kind: str = "baseline",
    size_bytes: int = 16 * 1024,
    line_bytes: int = 32,
    ways: int = 1,
    fvc_entries: int = 512,
    top_values: int = 7,
    store=None,
) -> SimulationOutcome:
    """Run one simulation cell and return its outcome.

    ``kind`` is ``"baseline"`` (direct-mapped, or set-associative when
    ``ways > 1``), ``"fvc"`` (DMC+FVC with ``fvc_entries`` entries over
    the top ``top_values`` frequent values), or ``"classify"`` (3C miss
    classification).  Deterministic: identical arguments produce
    identical outcomes in any process.
    """
    from repro.engine.cells import SimCell, run_cell

    cell = SimCell(
        workload=workload,
        input_name=input_name,
        kind=kind,
        size_bytes=size_bytes,
        line_bytes=line_bytes,
        ways=ways,
        fvc_entries=fvc_entries,
        top_values=top_values,
    )
    result = run_cell(cell, store)
    return SimulationOutcome(
        workload=workload,
        input_name=input_name,
        kind=kind,
        stats=dict(result.stats),
        extras=dict(result.extras),
    )


def profile_trace(
    workload: str,
    *,
    input_name: str = "ref",
    store=None,
):
    """The frequent-value access profile of one workload trace
    (:class:`repro.profiling.access.AccessProfile`) — the paper's
    characterisation primitive.  ``profile.top_values(n)`` gives the
    n most frequent values."""
    from repro.profiling.access import profile_accessed_values
    from repro.workloads.store import shared_store

    if store is None:
        store = shared_store
    return profile_accessed_values(store.get(workload, input_name))


def connect(
    url: Optional[str] = None,
    *,
    timeout: float = 30.0,
    retry=None,
    breaker=None,
):
    """A :class:`repro.service.client.ServiceClient` for the service at
    ``url`` (default: ``$REPRO_SERVICE_URL`` or the local default).
    Pass a :class:`repro.service.resilience.RetryPolicy` /
    :class:`~repro.service.resilience.CircuitBreaker` to opt into
    transient-failure retries and fail-fast breaking."""
    from repro.service.client import ServiceClient

    return ServiceClient(url, timeout=timeout, retry=retry, breaker=breaker)


@dataclass(frozen=True)
class SweepResult:
    """The stable result shape of :func:`run_sweep`.

    A thin view over the ``sweep.result/1`` payload: ``headers`` and
    ``rows`` are the aggregated report table, ``payload`` is the full
    canonical dict (what ``POST /v1/sweeps`` serves byte-identically).
    """

    name: str
    sweep_id: str
    result_key: str
    points: int
    distinct_cells: int
    headers: List[str]
    rows: List[Dict]
    payload: Dict = field(repr=False)

    def to_csv(self) -> str:
        """The report table as CSV text."""
        from repro.sweeps.report import render_csv

        return render_csv(self.headers, self.rows)

    def to_html(self) -> str:
        """The report table as a self-contained HTML page."""
        from repro.sweeps.report import render_html

        return render_html(self.name, self.headers, self.rows)


def _resolve_sweep(spec, fast: bool) -> Dict:
    """A normalised ``sweep/v1`` spec from a catalog name or raw dict.

    ``fast`` selects the shrunken variant of catalogued sweeps; explicit
    dict specs carry their own scale and ignore it.
    """
    from repro.sweeps.catalog import get_sweep
    from repro.sweeps.spec import normalise_sweep

    if isinstance(spec, str):
        return get_sweep(spec, fast=fast)
    return normalise_sweep(spec)


def run_sweep(
    spec,
    *,
    fast: bool = False,
    jobs: int = 1,
    store=None,
) -> SweepResult:
    """Run one declarative sweep and return its aggregated result.

    ``spec`` is a catalogued sweep name (see :func:`list_sweeps`) or a
    ``sweep/v1`` spec dict.  ``jobs`` fans the distinct cells across
    worker processes — payload bytes are identical for any ``jobs``
    value, and identical to what the service's ``POST /v1/sweeps``
    stores for the same spec.  Invalid specs raise
    :class:`repro.common.errors.ConfigurationError` naming ``sweep/v1``.
    """
    from repro.sweeps.runner import run_sweep as _run

    resolved = _resolve_sweep(spec, fast)
    payload = _run(resolved, store=store, jobs=jobs)
    return SweepResult(
        name=resolved["name"],
        sweep_id=payload["sweep_id"],
        result_key=payload["result_key"],
        points=payload["points"],
        distinct_cells=payload["distinct_cells"],
        headers=list(payload["headers"]),
        rows=list(payload["rows"]),
        payload=payload,
    )


def describe_sweep(spec, *, fast: bool = False) -> Dict:
    """A static description of one sweep — identity, axis sizes,
    expansion counts and report shape — without running anything.
    Accepts the same ``spec`` forms as :func:`run_sweep`."""
    from repro.sweeps.runner import describe_sweep as _describe

    return _describe(_resolve_sweep(spec, fast))


def list_sweeps() -> List[str]:
    """Every catalogued sweep name, sorted: the cell-grid paper studies
    (fig10, fig12, fig13, fig14) plus ``l1_size_study``.  The other
    studies are experiments (:func:`list_experiments`)."""
    from repro.sweeps.catalog import sweep_names

    return sweep_names()


def list_experiments() -> List[str]:
    """Every registered experiment id, registry (paper) order."""
    from repro.experiments.registry import experiment_ids

    return experiment_ids()


def list_workloads() -> List[str]:
    """Every registered workload name."""
    from repro.workloads.registry import ALL_WORKLOADS

    return [workload.name for workload in ALL_WORKLOADS]

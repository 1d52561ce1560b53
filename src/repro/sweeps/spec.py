"""The ``sweep/v1`` declarative sweep specification.

A sweep spec is a plain-JSON description of a parameter study over the
paper's design space — workloads x cache geometry x FVC value count x
input scale — that the expander (:mod:`repro.sweeps.expand`) compiles
into the engine's :class:`~repro.engine.cells.SimCell` plan-order
contract.  Specs are canonical-JSON values and content-addressed
exactly like SimCell specs, so the same study has the same identity on
every machine, in every process, forever.

Grammar (all unknown keys rejected)::

    {
      "schema": "sweep/v1",
      "name":   "l1_size_study",
      "title":  "optional human title",
      "axes":   {"workload": ["go", ...],        # scalar axis
                 "input": ["ref"],               # the replicate axis
                 "pair": [{"line_bytes": 8,      # object (coupled) axis
                           "small_bytes": 4096,
                           "double_bytes": 8192}, ...]},
      "arms":   [{"name": "base", "kind": "baseline",
                  "cell": {"size_bytes": "$pair.double_bytes",
                           "line_bytes": "$pair.line_bytes"}},
                 ...],
      "report": {"fields": ["miss_rate_percent", ...],
                 "aggregates": ["mean", "ci95"]}
    }

* **Axes** map a name to a non-empty list of values.  Scalar axes hold
  strings or integers; object axes hold dicts whose (identical) keys
  name the coupled components.  An axis named after a
  :class:`~repro.engine.cells.SimCell` field (``workload``, ``input``
  for ``input_name``, ``size_bytes``, ``line_bytes``, ``ways``,
  ``fvc_entries``, ``top_values``) binds that field implicitly on every
  arm whose kind uses the field.
* **Arms** are the per-point simulations, in declared (and therefore
  plan) order.  ``kind`` is one of ``baseline`` / ``fvc`` /
  ``classify``.  An arm's ``cell`` mapping pins SimCell fields to
  literals or to axis references — ``"$axis"`` for a scalar axis,
  ``"$axis.component"`` for one component of an object axis; an
  explicit entry overrides the implicit name binding.
* **Report** declares the reportable fields (see
  :data:`repro.sweeps.report.REPORT_FIELDS`) and the aggregation
  functions applied across the replicate axis.

Validation errors always name the schema (``sweep/v1``) so a caller
who posted the wrong document knows which contract to read.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Schema tag every sweep spec must carry; bump on grammar change.
SWEEP_SCHEMA = "sweep/v1"

#: Arm kinds; each arm executes as engine cells.
ARM_KINDS: Tuple[str, ...] = ("baseline", "fvc", "classify")

#: SimCell fields a spec may bind, axis-name -> cell-field.  The axis
#: is called ``input`` (the paper's input-scale / replicate axis) even
#: though the cell field is ``input_name``.
AXIS_FIELDS: Dict[str, str] = {
    "workload": "workload",
    "input": "input_name",
    "size_bytes": "size_bytes",
    "line_bytes": "line_bytes",
    "ways": "ways",
    "fvc_entries": "fvc_entries",
    "top_values": "top_values",
}

#: Cell fields each arm kind binds implicitly (by axis name).  Explicit
#: ``cell`` entries always win; ``fvc_entries``/``top_values`` never
#: bind implicitly on arms without an FVC.
IMPLICIT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "baseline": ("workload", "input_name", "size_bytes", "line_bytes", "ways"),
    "classify": ("workload", "input_name", "size_bytes", "line_bytes", "ways"),
    "fvc": (
        "workload",
        "input_name",
        "size_bytes",
        "line_bytes",
        "ways",
        "fvc_entries",
        "top_values",
    ),
}

_INT_FIELDS = ("size_bytes", "line_bytes", "ways", "fvc_entries", "top_values")
_TOP_KEYS = ("schema", "name", "title", "axes", "arms", "report")
_ARM_KEYS = ("name", "kind", "cell")
_REPORT_KEYS = ("fields", "aggregates")

#: Aggregation functions a spec may declare (see repro.sweeps.report).
AGGREGATE_NAMES: Tuple[str, ...] = ("ci95", "max", "mean", "median", "min")


class SweepSpecError(ConfigurationError):
    """A document does not satisfy the ``sweep/v1`` grammar."""

    def __init__(self, message: str) -> None:
        super().__init__(f"invalid {SWEEP_SCHEMA} sweep spec: {message}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SweepSpecError(message)


def _scalar(value: object) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _normalise_axis(name: str, values: object) -> List[object]:
    _require(
        isinstance(name, str) and name and name.replace("_", "").isalnum(),
        f"axis name {name!r} must be a non-empty alphanumeric/underscore string",
    )
    _require(
        isinstance(values, list) and len(values) > 0,
        f"axis {name!r} must be a non-empty list of values",
    )
    if all(_scalar(value) for value in values):
        return list(values)
    _require(
        all(isinstance(value, dict) for value in values),
        f"axis {name!r} mixes scalar and object values",
    )
    keys = sorted(values[0])
    _require(len(keys) > 0, f"axis {name!r} has an empty object value")
    for value in values:
        _require(
            sorted(value) == keys,
            f"axis {name!r} object values must share one component set",
        )
        for component, comp_value in value.items():
            _require(
                isinstance(component, str)
                and component
                and component.replace("_", "").isalnum(),
                f"axis {name!r} component {component!r} must be alphanumeric",
            )
            _require(
                _scalar(comp_value),
                f"axis {name!r} component {component!r} must be a scalar",
            )
    return [dict(value) for value in values]


def axis_components(axes: Dict[str, List[object]], name: str) -> Optional[List[str]]:
    """Component names of an object axis, or ``None`` for a scalar
    axis."""
    first = axes[name][0]
    if isinstance(first, dict):
        return sorted(first)
    return None


def _check_reference(
    axes: Dict[str, List[object]], field: str, reference: str
) -> None:
    """Validate a ``$axis`` / ``$axis.component`` cell binding."""
    target = reference[1:]
    axis, _, component = target.partition(".")
    _require(axis in axes, f"cell field {field!r} references unknown axis {axis!r}")
    components = axis_components(axes, axis)
    if component:
        _require(
            components is not None,
            f"cell field {field!r} references component {component!r} "
            f"of scalar axis {axis!r}",
        )
        _require(
            component in components,
            f"cell field {field!r} references unknown component "
            f"{component!r} of axis {axis!r}",
        )
    else:
        _require(
            components is None,
            f"cell field {field!r} must pick a component of object "
            f"axis {axis!r} (e.g. \"${axis}.<component>\")",
        )


def _normalise_arm(
    arm: object, index: int, axes: Dict[str, List[object]]
) -> Dict[str, object]:
    _require(isinstance(arm, dict), f"arm #{index} must be an object")
    if arm.get("kind") == "experiment":
        experiment_id = arm.get("experiment_id", "<id>")
        raise SweepSpecError(
            "experiment arms were removed; a sweep holds cell arms only. "
            f"Run the experiment itself: 'repro-fvc run {experiment_id}', "
            "repro.api.run_experiment or POST /v1/jobs"
        )
    unknown = sorted(set(arm) - set(_ARM_KEYS))
    _require(not unknown, f"arm #{index} has unknown keys {unknown}")
    name = arm.get("name")
    _require(
        isinstance(name, str) and name != "",
        f"arm #{index} needs a non-empty string name",
    )
    kind = arm.get("kind")
    _require(
        kind in ARM_KINDS,
        f"arm {name!r} kind must be one of {sorted(ARM_KINDS)}, got {kind!r}",
    )
    out: Dict[str, object] = {"name": name, "kind": kind}
    cell = arm.get("cell", {})
    _require(isinstance(cell, dict), f"arm {name!r} cell must be an object")
    out_cell: Dict[str, object] = {}
    for field in sorted(cell):
        value = cell[field]
        _require(
            field in AXIS_FIELDS.values(),
            f"arm {name!r} binds unknown cell field {field!r} "
            f"(known: {sorted(AXIS_FIELDS.values())})",
        )
        if isinstance(value, str) and value.startswith("$"):
            _check_reference(axes, field, value)
        elif field in _INT_FIELDS:
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"arm {name!r} field {field!r} must be an integer "
                "or an axis reference",
            )
        else:
            _require(
                isinstance(value, str),
                f"arm {name!r} field {field!r} must be a string "
                "or an axis reference",
            )
        out_cell[field] = value
    if out_cell:
        out["cell"] = out_cell
    return out


def _normalise_report(report: object) -> Dict[str, object]:
    from repro.sweeps.report import REPORT_FIELDS

    _require(isinstance(report, dict), "report must be an object")
    unknown = sorted(set(report) - set(_REPORT_KEYS))
    _require(not unknown, f"report has unknown keys {unknown}")
    fields = report.get("fields")
    _require(
        isinstance(fields, list)
        and len(fields) > 0
        and all(isinstance(field, str) and field for field in fields),
        "report.fields must be a non-empty list of field names",
    )
    _require(
        len(set(fields)) == len(fields), "report.fields has duplicates"
    )
    unknown_fields = sorted(set(fields) - set(REPORT_FIELDS))
    _require(
        not unknown_fields,
        f"unknown report fields {unknown_fields} "
        f"(known: {sorted(REPORT_FIELDS)})",
    )
    aggregates = report.get("aggregates", ["mean"])
    _require(
        isinstance(aggregates, list)
        and len(aggregates) > 0
        and all(agg in AGGREGATE_NAMES for agg in aggregates),
        f"report.aggregates must be a non-empty subset of "
        f"{sorted(AGGREGATE_NAMES)}",
    )
    _require(
        len(set(aggregates)) == len(aggregates),
        "report.aggregates has duplicates",
    )
    return {"fields": list(fields), "aggregates": list(aggregates)}


def normalise_sweep(raw: object) -> Dict[str, object]:
    """Validate a sweep document and return its canonical form.

    The canonical form contains exactly the recognised keys with
    normalised values; serialising it through
    :func:`repro.experiments.render.dumps_compact` yields the spec's
    identity bytes.  Raises :class:`SweepSpecError` (whose message
    names ``sweep/v1``) on any violation.
    """
    _require(isinstance(raw, dict), "document must be a JSON object")
    _require(
        raw.get("schema") == SWEEP_SCHEMA,
        f"schema must be {SWEEP_SCHEMA!r}, got {raw.get('schema')!r}",
    )
    unknown = sorted(set(raw) - set(_TOP_KEYS))
    _require(not unknown, f"unknown top-level keys {unknown}")
    name = raw.get("name")
    _require(
        isinstance(name, str)
        and name != ""
        and name.replace("_", "").replace("-", "").isalnum(),
        "name must be a non-empty alphanumeric/underscore/dash string",
    )
    axes_raw = raw.get("axes", {})
    _require(isinstance(axes_raw, dict), "axes must be an object")
    axes = {
        axis: _normalise_axis(axis, axes_raw[axis]) for axis in sorted(axes_raw)
    }
    arms_raw = raw.get("arms")
    _require(
        isinstance(arms_raw, list) and len(arms_raw) > 0,
        "arms must be a non-empty list",
    )
    arms = [
        _normalise_arm(arm, index, axes) for index, arm in enumerate(arms_raw)
    ]
    names = [arm["name"] for arm in arms]
    _require(len(set(names)) == len(names), "arm names must be unique")
    _require(len(axes) > 0, "a sweep needs at least one axis")
    spec: Dict[str, object] = {
        "schema": SWEEP_SCHEMA,
        "name": name,
        "axes": axes,
        "arms": arms,
        "report": _normalise_report(raw.get("report")),
    }
    title = raw.get("title")
    if title is not None:
        _require(isinstance(title, str), "title must be a string")
        spec["title"] = title
    return spec


def sweep_id(spec: Dict[str, object]) -> str:
    """Content address of a normalised spec: same study, same id, on
    every machine."""
    from repro.experiments.render import dumps_compact

    material = dumps_compact({"sweep": spec, "v": 1})
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def sweep_result_key(spec: Dict[str, object]) -> str:
    """Result-store key of the assembled sweep payload.

    Mirrors :func:`repro.service.api.result_key`: the key covers the
    code version and trace-cache version besides the spec, so a store
    never serves results computed by different simulator code.
    """
    from repro import __version__
    from repro.engine.trace_cache import TRACE_CACHE_VERSION
    from repro.experiments.render import dumps_compact

    material = dumps_compact(
        {
            "code": __version__,
            "sweep": spec,
            "traces": TRACE_CACHE_VERSION,
            "v": 1,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def load_sweep_file(path: object) -> Dict[str, object]:
    """Load and normalise a ``sweep/v1`` spec from a JSON file."""
    import json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SweepSpecError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise SweepSpecError(f"{path} is not valid JSON: {exc}") from exc
    return normalise_sweep(raw)

"""Declarative sweep studies over the paper's design space.

``repro.sweeps`` turns a parameter study — workloads x cache geometry
x FVC value count x input scale — into a ``sweep/v1`` JSON document
that expands deterministically into the engine's simulation cells and
aggregates the results into a report table.  See ``docs/SWEEPS.md``
for the grammar and semantics, :mod:`repro.sweeps.catalog` for the
built-in studies (the paper's cell grids plus standalone sweeps),
and ``repro.api.run_sweep`` for the stable entry point.
"""

from repro.sweeps.expand import SweepPoint, expand, expand_cells, unique_cells
from repro.sweeps.runner import (
    SWEEP_RESULT_SCHEMA,
    describe_sweep,
    run_sweep,
    sweep_payload,
)
from repro.sweeps.spec import (
    SWEEP_SCHEMA,
    SweepSpecError,
    load_sweep_file,
    normalise_sweep,
    sweep_id,
    sweep_result_key,
)

__all__ = [
    "SWEEP_RESULT_SCHEMA",
    "SWEEP_SCHEMA",
    "SweepPoint",
    "SweepSpecError",
    "describe_sweep",
    "expand",
    "expand_cells",
    "load_sweep_file",
    "normalise_sweep",
    "run_sweep",
    "sweep_id",
    "sweep_payload",
    "sweep_result_key",
    "unique_cells",
]

"""The dual-run regression gate.

The backend switch may change time, never numbers: every fig*/table*
experiment's canonical JSON payload must be byte-identical between
``REPRO_BACKEND=python`` and ``REPRO_BACKEND=numpy``, under worker
fan-out (``jobs=4``), under the runtime sanitizer, and when the trace
arrives through the columnar file format instead of in-memory tuples.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitize
from repro.api import run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.render import dumps_canonical
from repro.kernels import backend

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="dual-run gate needs numpy"
)

#: Every paper figure and table experiment (the gated payload surface).
GATED = sorted(
    experiment_id
    for experiment_id in EXPERIMENTS
    if experiment_id.startswith(("fig", "table"))
)


def _canonical(monkeypatch, experiment_id, backend_name, jobs=1):
    monkeypatch.setenv(backend.ENV_VAR, backend_name)
    return dumps_canonical(run_experiment(experiment_id, fast=True, jobs=jobs))


def test_gate_covers_every_figure_and_table():
    assert len(GATED) == 16


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", GATED)
def test_payload_identical_across_backends(experiment_id, monkeypatch):
    python_payload = _canonical(monkeypatch, experiment_id, "python")
    numpy_payload = _canonical(monkeypatch, experiment_id, "numpy")
    assert python_payload == numpy_payload


@pytest.mark.slow
def test_payload_identical_under_worker_fanout(monkeypatch):
    # Workers inherit REPRO_BACKEND through the environment; four numpy
    # workers must reproduce the sequential pure-Python bytes.
    sequential = _canonical(monkeypatch, "fig13", "python")
    fanned_out = _canonical(monkeypatch, "fig13", "numpy", jobs=4)
    assert sequential == fanned_out


@pytest.mark.slow
def test_payload_identical_under_sanitizer(monkeypatch):
    # REPRO_SANITIZE forces the oracle even under REPRO_BACKEND=numpy;
    # the payload must not move.
    plain = _canonical(monkeypatch, "fig13", "numpy")
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    sanitized = _canonical(monkeypatch, "fig13", "numpy")
    assert plain == sanitized


class _SingleTraceStore:
    def __init__(self, trace):
        self._trace = trace

    def get(self, workload, input_name="ref"):
        assert (workload, input_name) == (
            self._trace.workload,
            self._trace.input_name,
        )
        return self._trace


def test_columnar_trace_yields_identical_cell_results(
    tmp_path, store, monkeypatch
):
    # Strongest cross-format claim: the oracle over the original tuple
    # trace vs the kernels over a trace round-tripped through the
    # columnar file format, compared field by field.
    from repro.engine.cells import SimCell, run_cell
    from repro.trace.io import read_trace, write_trace

    trace = store.get("gcc", "test")
    path = tmp_path / "gcc.trcb"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert loaded == trace

    cell = SimCell(
        workload="gcc", input_name="test", kind="fvc",
        size_bytes=8 * 1024, fvc_entries=256, top_values=7,
    )
    monkeypatch.setenv(backend.ENV_VAR, "python")
    oracle = run_cell(cell, _SingleTraceStore(trace))
    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    kernel = run_cell(cell, _SingleTraceStore(loaded))
    assert oracle.stats == kernel.stats
    assert oracle.extras == kernel.extras


def test_fast_path_builds_no_record_tuples(tmp_path, monkeypatch):
    # A trace served from a cache entry reaches the native core as its
    # columns: fast fig10 baseline and FVC cells on it never build the
    # record tuples, and their results equal the oracle's.
    from repro.engine.cells import run_cell
    from repro.engine.trace_cache import TraceCache
    from repro.experiments.registry import get_experiment
    from repro.kernels import native

    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    if native.load()[0] is None:
        pytest.skip("native replay core unavailable")
    cells = get_experiment("fig10").plan_cells(fast=True)
    baseline = next(cell for cell in cells if cell.kind == "baseline")
    fvc = next(
        cell for cell in cells
        if cell.kind == "fvc" and cell.workload == baseline.workload
    )
    cache = TraceCache(tmp_path / "traces")
    cache.load_or_generate(baseline.workload, baseline.input_name)
    loaded = TraceCache(cache.directory).load(baseline.workload, baseline.input_name)
    assert loaded is not None and loaded._records is None
    fast = [run_cell(cell, _SingleTraceStore(loaded)) for cell in (baseline, fvc)]
    assert loaded._records is None

    monkeypatch.setenv(backend.ENV_VAR, "python")
    fresh = TraceCache(cache.directory).load(baseline.workload, baseline.input_name)
    oracle = [run_cell(cell, _SingleTraceStore(fresh)) for cell in (baseline, fvc)]
    for kernel_result, oracle_result in zip(fast, oracle):
        assert kernel_result.stats == oracle_result.stats
        assert kernel_result.extras == oracle_result.extras

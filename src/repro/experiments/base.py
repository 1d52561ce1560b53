"""Experiment base classes and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.cells import CellResult, SimCell
from repro.workloads.store import TraceStore, shared_store

Row = Dict[str, object]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with right-aligned numeric columns."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    grid = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[col]) for row in grid)) if grid else len(header)
        for col, header in enumerate(headers)
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    out = [line(list(headers)), line(["-" * width for width in widths])]
    out.extend(line(row) for row in grid)
    return "\n".join(out)


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``rows`` hold the measured quantities keyed by the column names in
    ``headers``; ``notes`` records methodology details worth printing
    beside the table (configuration, workload inputs, deviations).
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Row]
    notes: List[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the result the way the paper's table/figure reads."""
        body = render_table(
            self.headers,
            [[row.get(header, "") for header in self.headers] for row in self.rows],
        )
        parts = [f"== {self.experiment_id}: {self.title} ==", body]
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, header: str) -> List[object]:
        """All values of one column, row order."""
        return [row.get(header) for row in self.rows]

    def row_for(self, key_header: str, key: object) -> Optional[Row]:
        """First row whose ``key_header`` column equals ``key``."""
        for row in self.rows:
            if row.get(key_header) == key:
                return row
        return None


class Experiment:
    """One reproducible table/figure.

    An experiment either decomposes into engine cells — it defines
    :meth:`plan_cells` and :meth:`merge_cells` and inherits
    :meth:`run` — or overrides :meth:`run` with its own computation.

    ``fast=True`` runs a reduced version (test inputs, fewer
    configurations) used by the unit-test suite; the benchmark suite
    always runs the full version.
    """

    #: Registry id, e.g. ``"fig10"``.
    experiment_id: str = ""
    #: Human title, e.g. ``"Miss rate reduction vs FVC size"``.
    title: str = ""
    #: Where in the paper the artefact lives.
    paper_reference: str = ""

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        """Execute the experiment sequentially and return its result.

        Cell experiments inherit this: their plan runs through
        :meth:`run_with_engine`.  Experiments without a cell plan
        override it.
        """
        return self.run_with_engine(store, fast=fast)

    # Engine integration ---------------------------------------------------
    def plan_cells(self, fast: bool = False) -> Optional[List[SimCell]]:
        """The experiment's work as engine simulation cells, or ``None``
        when it has no cell decomposition (profiling experiments, or
        sweeps whose configurations share warm simulator state).

        Experiments that implement this must also implement
        :meth:`merge_cells`; sequential and parallel runs then share
        the one code path of :meth:`run_with_engine`.
        """
        return None

    def merge_cells(
        self,
        cells: Sequence[SimCell],
        results: Sequence[CellResult],
        fast: bool = False,
    ) -> ExperimentResult:
        """Fold cell results (in :meth:`plan_cells` order) into the
        experiment's table."""
        raise NotImplementedError(
            f"{type(self).__name__} does not decompose into cells"
        )

    def sweep_backing(self, fast: bool = False) -> Dict[str, object]:
        """The catalogued ``sweep/v1`` spec backing this cell
        experiment (see :mod:`repro.sweeps.catalog`)."""
        from repro.sweeps.catalog import get_sweep

        return get_sweep(self.experiment_id, fast=fast)

    def _plan_from_sweep(self, fast: bool) -> List[SimCell]:
        """Cell plan derived from the backing sweep spec: the
        declarative form and the executed plan cannot drift."""
        from repro.sweeps.expand import expand_cells

        return expand_cells(self.sweep_backing(fast))

    def run_with_engine(
        self,
        store: Optional[TraceStore] = None,
        fast: bool = False,
        jobs: int = 1,
        progress=None,
        should_cancel=None,
        checkpoint=None,
    ) -> ExperimentResult:
        """Run the experiment; the one dispatch every caller uses.

        A cell experiment's plan runs through
        :func:`repro.engine.runner.run_cells` — fanned across ``jobs``
        processes, with the engine's ``progress`` / ``should_cancel`` /
        ``checkpoint`` cell-boundary hooks — and merges in plan order,
        so any ``jobs`` value yields the same result.  An experiment
        without a plan runs its own :meth:`run`; the hooks do not apply.
        """
        plan = self.plan_cells(fast)
        if plan is None:
            if type(self).run is Experiment.run:
                raise NotImplementedError(
                    f"{type(self).__name__} defines neither run() nor "
                    "plan_cells()"
                )
            return self.run(store, fast=fast)
        from repro.engine.runner import run_cells

        results = run_cells(
            plan,
            jobs=jobs,
            store=self._store(store),
            progress=progress,
            should_cancel=should_cancel,
            checkpoint=checkpoint,
        )
        return self.merge_cells(plan, results, fast)

    def _store(self, store: Optional[TraceStore]) -> TraceStore:
        return store if store is not None else shared_store

    def _result(self, headers: List[str], rows: List[Row]) -> ExperimentResult:
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            headers=headers,
            rows=rows,
        )

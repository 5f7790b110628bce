"""Shared grid dispatch for the experiment modules.

Every experiment (`table1`, `figure2`, `table3`, the determinism study,
the fleet and the campaign) builds a list of
:class:`~repro.parallel.GridCell` and hands it here. There is one
engine behind this seam, :func:`~repro.parallel.run_cells_supervised`,
serial or pooled:

* With a :class:`~repro.parallel.GridPolicy` and/or a checkpoint
  journal, completed cells are checkpointed as they finish, failed
  cells come back as :class:`~repro.parallel.CellFailure` markers *in
  their result slots*, and the experiment renderers print them as
  ``FAILED(reason)`` cells plus a failure manifest instead of crashing
  the whole artefact.
* Without either, the engine runs with the default policy (no retries)
  and this seam keeps the fail-fast contract: once the grid has
  settled, the first failure in submission order is raised as a
  :class:`~repro.parallel.CellExecutionError`. A serial run therefore
  finishes its remaining cells before it raises, and a worker that dies
  in a pooled run is quarantined and reported the same way instead of
  surfacing as ``BrokenProcessPool``.

Observability rides on one reserved payload key,
:data:`~repro.parallel.grid.OBS_KEY`, injected here once per cell when a
telemetry stream and/or a tracer is active. With a tracer (``--trace``)
each cell gets a private span-file destination, the grid runs under a
``grid:<experiment>`` span, and afterwards the per-cell files are
stitched into the parent trace in submission order — including
``cached`` spans for journal-resumed cells and ``failed`` spans for
cells that exhausted their attempts. With neither active, cells ship
exactly as built.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.obs.gridtrace import cell_label, cell_trace_path, stitch_cell_traces
from repro.parallel import (
    DEFAULT_START_METHOD,
    CellExecutionError,
    CheckpointJournal,
    GridCell,
    GridPolicy,
    GridOutcome,
    run_cells_supervised,
)
from repro.parallel.grid import OBS_KEY

__all__ = ["execute_grid"]


def _experiment_name(cells: Sequence[GridCell]) -> str:
    """Short experiment label from the first cell's task module."""
    module = cells[0].task.partition(":")[0]
    return module.rsplit(".", 1)[-1]


def _observed(cells: list[GridCell], stream: Path | None, trace_dir: str | None) -> list:
    """The cells with the observability hook injected, or as built."""
    if stream is None and trace_dir is None:
        return cells
    out = []
    for index, cell in enumerate(cells):
        hook = {}
        if stream is not None:
            hook["telemetry"] = str(stream)
        if trace_dir is not None:
            hook["trace"] = str(cell_trace_path(trace_dir, index))
            hook["label"] = cell_label(cell.payload, index)
        out.append(dataclasses.replace(cell, payload={**cell.payload, OBS_KEY: hook}))
    return out


def _run(cells, jobs, start_method, supervision, journal, batch_cells) -> GridOutcome:
    outcome = run_cells_supervised(
        cells,
        jobs=jobs,
        start_method=start_method,
        policy=supervision,
        journal=journal,
        batch_cells=batch_cells,
    )
    if supervision is None and journal is None and outcome.failures:
        first = outcome.failures[0]
        # An "error" detail already names the cell's task and fingerprint;
        # a worker death or timeout detail does not, so describe the cell.
        raise CellExecutionError(
            first.detail if first.reason == "error" else first.describe()
        )
    return outcome


def execute_grid(
    cells: Sequence[GridCell],
    jobs: int | None = None,
    start_method: str = DEFAULT_START_METHOD,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | Path | None = None,
    batch_cells: int | None = None,
) -> list:
    """Run an experiment's cells, fail-fast or supervised.

    Returns per-cell results in submission order. Under supervision (a
    policy or a journal) a failed cell's slot holds its
    :class:`~repro.parallel.CellFailure` instead of a result; without
    either, the first failure in submission order is raised as a
    :class:`~repro.parallel.CellExecutionError`. ``batch_cells``
    bundles consecutive cells per pool task — it changes only how work
    is shipped, never the bytes of any artefact.
    """
    cells = list(cells)
    if not cells:
        return []
    bus = telemetry.current_bus()
    stream = bus.path if bus is not None else None
    if stream is not None:
        # Mark the grid's start in the live stream; the hook threads the
        # stream into the cells so worker-side events (pipeline phases,
        # campaign trials) append to the same file.
        telemetry.emit("grid", experiment=_experiment_name(cells), cells=len(cells))
    options = (jobs, start_method, supervision, journal, batch_cells)

    tracer = obs.current_tracer()
    if tracer is None:
        return _run(_observed(cells, stream, None), *options).results

    with TemporaryDirectory(prefix="dramdig-trace-") as trace_dir:
        with tracer.span(f"grid:{_experiment_name(cells)}") as grid_scope:
            outcome = _run(_observed(cells, stream, trace_dir), *options)
            tally = stitch_cell_traces(
                tracer, grid_scope.record, cells, outcome.results, trace_dir
            )
            grid_scope.set("cells", len(cells))
            grid_scope.set("cached", tally["cached"])
            grid_scope.set("failed", len(outcome.failures))
        return outcome.results

"""Cross-process trace capture and merge for the evaluation grid.

A traced grid run has two halves:

* **cell side** — :func:`repro.parallel.grid.execute_cell` finds the
  reserved ``_obs`` hook that :func:`repro.evalsuite.gridrun.execute_grid`
  injected and hands it to :func:`run_cell_observed`, which runs the
  cell under its own fresh :class:`~repro.obs.tracing.Tracer` (one root
  span per cell) and writes the cell's spans + metrics to a private
  JSONL file via :func:`~repro.ioutil.atomic_write`. This works
  identically in-process (``--jobs 1``) and in a spawned worker, because
  :func:`~repro.obs.tracing.activate` isolates the cell's span stack
  either way — the merged trace cannot depend on where a cell ran. The
  same hook carries the live telemetry stream path, so worker-side
  events land in the parent's stream whether or not the run is traced.
* **parent side** — after the grid completes, :func:`stitch_cell_traces`
  walks the cells *in submission order*, grafting each cell file under
  the grid span (ids re-allocated, paths re-prefixed, metrics folded
  in). A cell with no file is either a journal hit (``--resume``) —
  recorded as a ``cached`` span, zero re-execution — or a
  :class:`~repro.parallel.supervisor.CellFailure`, recorded as a
  ``failed`` span carrying the failure's reason and attempt count.

The hook key starts with ``_`` and is therefore excluded from
:func:`~repro.parallel.grid.fingerprint_cell`: a traced run and an
untraced run share checkpoint-journal fingerprints, so tracing can be
turned on for a resumed run (or off for a fresh one) without
invalidating the journal.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from contextlib import ExitStack
from pathlib import Path

from repro.obs.export import export_trace, load_trace
from repro.obs.tracing import SpanRecord, Tracer, activate

__all__ = [
    "cell_label",
    "cell_trace_path",
    "run_cell_observed",
    "stitch_cell_traces",
]


def cell_label(payload: dict, index: int) -> str:
    """Display label for one cell: its payload ``name``, or its index."""
    name = payload.get("name")
    return str(name) if name is not None else f"cell#{index}"


def cell_trace_path(trace_dir: str | Path, index: int) -> Path:
    """Where cell ``index`` of a traced grid writes its span file."""
    return Path(trace_dir) / f"cell-{index:04d}.jsonl"


def run_cell_observed(function, kwargs: dict, hook: dict):
    """Execute one cell under the observability ``hook`` it was shipped.

    ``hook["telemetry"]`` names the live stream: the cell runs with a
    worker-side bus active, so per-phase and per-trial events land in
    the parent's stream. ``hook["trace"]`` names the cell's span file:
    the cell runs under its own tracer, labelled ``hook["label"]``, and
    the file is written only when the cell completes — a failed attempt
    leaves no partial trace behind (a supervised retry that later
    succeeds writes the successful attempt; a cell that never succeeds
    is represented by the parent as a ``failed`` span instead).
    """
    from repro.obs.telemetry import TelemetryBus, activate_bus

    with ExitStack() as stack:
        if "telemetry" in hook:
            stack.enter_context(
                activate_bus(TelemetryBus(hook["telemetry"], source="worker"))
            )
        if "trace" not in hook:
            return function(**kwargs)
        tracer = Tracer()
        with activate(tracer):
            with tracer.span(f"cell:{hook['label']}") as scope:
                value = function(**kwargs)
                scope.set("task_ok", True)
    export_trace(hook["trace"], tracer, meta={"cell": hook["label"]})
    return value


def _graft(tracer: Tracer, parent: SpanRecord, spans: list[SpanRecord]) -> None:
    """Re-id and re-parent a cell's spans under the parent grid span."""
    id_map: dict[int, int] = {}
    for span in sorted(spans, key=lambda record: record.span_id):
        id_map[span.span_id] = tracer.next_id()
    for span in sorted(spans, key=lambda record: record.span_id):
        tracer.adopt(
            dataclasses.replace(
                span,
                span_id=id_map[span.span_id],
                parent_id=(
                    id_map[span.parent_id]
                    if span.parent_id is not None
                    else parent.span_id
                ),
                path=f"{parent.path}/{span.path}",
                attrs=dict(span.attrs),
            )
        )


def stitch_cell_traces(
    tracer: Tracer,
    grid_span: SpanRecord,
    cells: Sequence,
    results: Sequence,
    trace_dir: str | Path,
) -> dict:
    """Merge per-cell trace files into the parent tracer, in cell order.

    Returns ``{"executed": n, "cached": n, "failed": n}``. Cells are
    classified by evidence: a trace file means the cell executed (at
    least once) to completion; no file plus a
    :class:`~repro.parallel.supervisor.CellFailure` result slot means it
    failed; no file plus a real result means the checkpoint journal
    supplied the value without re-execution (``cached``).
    """
    from repro.parallel.supervisor import CellFailure

    tally = {"executed": 0, "cached": 0, "failed": 0}
    for index, cell in enumerate(cells):
        label = cell_label(cell.payload, index)
        source = cell_trace_path(trace_dir, index)
        if source.exists():
            cell_trace = load_trace(source)
            _graft(tracer, grid_span, cell_trace.spans)
            tracer.metrics.merge_snapshot(cell_trace.metrics)
            tally["executed"] += 1
            continue
        result = results[index] if index < len(results) else None
        if isinstance(result, CellFailure):
            status = "failed"
            attrs = {"reason": result.reason, "attempts": result.attempts}
            if result.detail:
                attrs["detail"] = result.detail
        else:
            status = "cached"
            attrs = {}
        name = f"cell:{label}"
        tracer.adopt(
            SpanRecord(
                span_id=tracer.next_id(),
                parent_id=grid_span.span_id,
                name=name,
                path=f"{grid_span.path}/{name}",
                status=status,
                attrs=attrs,
            )
        )
        tally[status] += 1
    return tally

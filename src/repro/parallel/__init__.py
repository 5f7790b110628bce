"""Parallel evaluation engine.

The paper's evaluation grid — tools x machine presets x seeds — is
embarrassingly parallel: every cell builds its own
:class:`~repro.machine.machine.SimulatedMachine` from an explicit seed
and shares nothing with its neighbours. This package fans those cells
out to worker processes and reassembles the results in submission
order, so the parallel path is bit-identical to the serial one; the
``--jobs N`` flag of ``dramdig table1/figure2/table3/report`` is wired
through here.

One engine runs the cells, :func:`run_cells_supervised`, serially or
over a warmed, reused worker pool: per-cell retry with backoff,
worker-death detection with pool respawn, per-cell timeouts, a
whole-run deadline, and an atomic checkpoint journal that lets an
interrupted run resume without re-executing finished cells
(``--resume``/``--cell-timeout``/``--run-deadline``/``--grid-retries``
on the CLI). With no policy and no journal,
:func:`repro.evalsuite.gridrun.execute_grid` raises the first failed
cell as a :class:`CellExecutionError` — the fail-fast contract of a
plain run.
"""

from repro.parallel.batching import (
    chunk_indices,
    execute_cell_batch,
    resolve_batch_cells,
)
from repro.parallel.grid import (
    DEFAULT_START_METHOD,
    CellExecutionError,
    GridCell,
    execute_cell,
    fingerprint_cell,
    fingerprint_payload,
    resolve_jobs,
)
from repro.parallel.journal import CheckpointJournal
from repro.parallel.pool import (
    PoolManager,
    get_pool_manager,
    worker_state,
)
from repro.parallel.supervisor import (
    CellFailure,
    GridError,
    GridOutcome,
    GridPolicy,
    run_cells_supervised,
)

__all__ = [
    "DEFAULT_START_METHOD",
    "CellExecutionError",
    "CellFailure",
    "CheckpointJournal",
    "GridCell",
    "GridError",
    "GridOutcome",
    "GridPolicy",
    "PoolManager",
    "chunk_indices",
    "execute_cell",
    "execute_cell_batch",
    "fingerprint_cell",
    "fingerprint_payload",
    "get_pool_manager",
    "resolve_batch_cells",
    "resolve_jobs",
    "run_cells_supervised",
    "worker_state",
]

"""Cross-process regressions for pool reuse and cell batching.

The promise under test: pool reuse and ``--batch-cells`` change how grid
work is *shipped* — pool lifetimes, tasks per submission — and never the
bytes of any artefact, journal entry or merged trace. Every test here
compares a pooled or batched run against the serial run of the same
cells.
"""

from repro.evalsuite.gridrun import execute_grid
from repro.evalsuite.table1 import render_table1, run_table1
from repro.faults.gridfaults import invocations
from repro.obs import tracing as obs
from repro.parallel import (
    GridCell,
    GridPolicy,
    execute_cell,
    get_pool_manager,
    run_cells_supervised,
)


def _parity_cells(values):
    return [
        GridCell("repro.analysis.bits:parity", {"value": value}) for value in values
    ]


def _serial(cells):
    return [execute_cell(cell) for cell in cells]


def _counting_cell(tmp_path, key, value):
    return GridCell(
        "repro.faults.gridfaults:counting_cell",
        {"scratch": str(tmp_path), "key": key, "value": value},
    )


class TestPoolModeIdentity:
    def test_persistent_pool_matches_serial(self):
        cells = _parity_cells(range(8))
        assert execute_grid(cells, jobs=2) == _serial(cells)

    def test_persistent_pool_is_reused_across_dispatches(self):
        cells = _parity_cells(range(4))
        execute_grid(cells, jobs=2)
        manager = get_pool_manager()
        parked = dict(manager._parked)
        assert parked, "a pooled dispatch must park its pool"
        execute_grid(cells, jobs=2)
        # the second dispatch reused the parked pool instead of building
        # (and parking) another one
        assert dict(manager._parked) == parked


class TestBatchedDispatchIdentity:
    def test_batched_matches_serial_for_every_chunking(self):
        cells = _parity_cells(range(10))
        serial = _serial(cells)
        for batch in (2, 3, 10, 32):
            assert execute_grid(cells, jobs=2, batch_cells=batch) == serial

    def test_table1_batched_byte_identical_to_serial(self):
        serial = render_table1(
            run_table1(seed=1, machines=("No.1", "No.2"), determinism_runs=2)
        )
        batched = render_table1(
            run_table1(
                seed=1, machines=("No.1", "No.2"), determinism_runs=2,
                jobs=2, batch_cells=3,
            )
        )
        assert batched == serial

    def test_traced_batched_grid_merges_the_same_cell_spans(self):
        cells = _parity_cells(range(6))
        serial_tracer = obs.Tracer()
        with obs.activate(serial_tracer):
            serial = execute_grid(cells)
        batched_tracer = obs.Tracer()
        with obs.activate(batched_tracer):
            batched = execute_grid(cells, jobs=2, batch_cells=3)
        assert batched == serial

        def cell_spans(tracer):
            return sorted(
                span.path for span in tracer.spans if span.name.startswith("cell:")
            )

        assert cell_spans(batched_tracer) == cell_spans(serial_tracer)


class TestSupervisedBatching:
    def test_batched_supervised_matches_serial(self):
        cells = _parity_cells(range(9))
        outcome = run_cells_supervised(cells, jobs=2, batch_cells=3)
        assert outcome.complete
        assert outcome.results == _serial(cells)

    def test_error_inside_a_batch_fails_alone(self, tmp_path):
        cells = (
            _parity_cells([1, 2])
            + [
                GridCell(
                    "repro.faults.gridfaults:flaky_cell",
                    {"scratch": str(tmp_path), "key": "bad", "fail_times": 99},
                )
            ]
            + _parity_cells([4, 7])
        )
        outcome = run_cells_supervised(cells, jobs=2, batch_cells=3)
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "error"
        survivors = [r for i, r in enumerate(outcome.results) if i != 2]
        assert survivors == _serial(_parity_cells([1, 2, 4, 7]))

    def test_mid_batch_worker_death_spares_batchmates(self):
        """A poison cell inside a batch fails alone; batchmates complete.

        The crash cannot be attributed within the batch, so every member
        is quarantined and re-run solo: the poison cell crashes alone
        (definitive, charged), the innocents win their solo runs with
        their first-attempt budget intact.
        """
        cells = (
            _parity_cells([1, 2])
            + [GridCell("repro.faults.gridfaults:poison_cell", {})]
            + _parity_cells([4, 7])
        )
        outcome = run_cells_supervised(cells, jobs=2, batch_cells=3)
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "worker-death"
        survivors = [r for i, r in enumerate(outcome.results) if i != 2]
        assert survivors == _serial(_parity_cells([1, 2, 4, 7]))

    def test_resume_after_mid_batch_kill_is_byte_identical(self, tmp_path):
        """Journalled batchmates of a killed batch are not re-executed.

        First run: a poison cell mid-batch kills its worker; the
        batchmates settle through quarantine and are journalled. The
        resumed run must skip every journalled cell and produce exactly
        the first run's results.
        """
        cells = (
            [_counting_cell(tmp_path, "c0", 10), _counting_cell(tmp_path, "c1", 11)]
            + [GridCell("repro.faults.gridfaults:poison_cell", {})]
            + [_counting_cell(tmp_path, "c3", 13), _counting_cell(tmp_path, "c4", 14)]
        )
        journal_path = tmp_path / "journal.jsonl"
        first = run_cells_supervised(
            cells, jobs=2, batch_cells=3, journal=journal_path
        )
        assert [f.index for f in first.failures] == [2]
        counts_after_first = {
            key: invocations(str(tmp_path), key) for key in ("c0", "c1", "c3", "c4")
        }

        second = run_cells_supervised(
            cells, jobs=2, batch_cells=3, journal=journal_path
        )
        assert second.resumed == 4
        assert [f.index for f in second.failures] == [2]
        assert second.results[:2] == first.results[:2]
        assert second.results[3:] == first.results[3:]
        # zero re-executions of the journalled cells
        for key, count in counts_after_first.items():
            assert invocations(str(tmp_path), key) == count

    def test_batched_journal_matches_serial_journal(self, tmp_path):
        """Same cells, same fingerprints, same journalled values."""
        from repro.parallel import CheckpointJournal

        cells = _parity_cells(range(6))
        serial_path = tmp_path / "serial.jsonl"
        batched_path = tmp_path / "batched.jsonl"
        run_cells_supervised(cells, journal=serial_path)
        run_cells_supervised(cells, jobs=2, batch_cells=4, journal=batched_path)
        serial_journal = CheckpointJournal(serial_path)
        batched_journal = CheckpointJournal(batched_path)
        from repro.parallel import fingerprint_cell

        for cell in cells:
            fingerprint = fingerprint_cell(cell)
            serial_hit, serial_value = serial_journal.lookup(fingerprint)
            batched_hit, batched_value = batched_journal.lookup(fingerprint)
            assert serial_hit and batched_hit
            assert serial_value == batched_value

    def test_batch_timeout_quarantines_and_completes_innocents(self):
        """A hung batch cannot name its hung member: refund, solo re-runs.

        The batch holding the hang times out at K cell-budgets, its
        members are quarantined, and the solo re-runs charge only the
        true hang while the batchmates complete.
        """
        cells = _parity_cells([1, 2]) + [
            GridCell("repro.faults.gridfaults:hang_cell", {"seconds": 3600.0})
        ]
        policy = GridPolicy(cell_timeout_s=1.0)
        outcome = run_cells_supervised(
            cells, jobs=2, batch_cells=3, policy=policy
        )
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "timeout"
        assert outcome.results[:2] == _serial(_parity_cells([1, 2]))
        assert any(e.action == "timeout" for e in outcome.events)

"""Unit tests for the pool manager and the cell-batching helpers.

The pool tests exercise lease/park/discard bookkeeping only — a
:class:`~concurrent.futures.ProcessPoolExecutor` spawns no workers
until something is submitted, so these stay fast. The cross-process
bit-identity guarantees are pinned in ``tests/evalsuite/test_pool.py``.
"""

import pytest

from repro.parallel import (
    GridCell,
    PoolManager,
    chunk_indices,
    execute_cell_batch,
    get_pool_manager,
    resolve_batch_cells,
    worker_state,
)
from repro.parallel.grid import DEFAULT_START_METHOD
from repro.parallel.pool import clear_worker_state


@pytest.fixture
def manager():
    instance = PoolManager()
    yield instance
    instance.shutdown_all()


class TestPoolManager:
    def test_release_parks_and_lease_reuses(self, manager):
        pool = manager.lease(2, DEFAULT_START_METHOD)
        assert manager.parked_count == 0
        manager.release(pool, DEFAULT_START_METHOD, 2)
        assert manager.parked_count == 1
        assert manager.lease(2, DEFAULT_START_METHOD) is pool
        manager.release(pool, DEFAULT_START_METHOD, 2)

    def test_shapes_do_not_collide(self, manager):
        two = manager.lease(2, DEFAULT_START_METHOD)
        manager.release(two, DEFAULT_START_METHOD, 2)
        three = manager.lease(3, DEFAULT_START_METHOD)
        assert three is not two
        manager.release(three, DEFAULT_START_METHOD, 3)
        assert manager.parked_count == 2

    def test_discarded_pool_is_never_parked(self, manager):
        pool = manager.lease(2, DEFAULT_START_METHOD)
        manager.discard(pool)
        # a defensive release after discard must not park the corpse
        manager.release(pool, DEFAULT_START_METHOD, 2)
        assert manager.parked_count == 0

    def test_broken_pool_is_shut_down_on_release(self, manager):
        pool = manager.lease(2, DEFAULT_START_METHOD)
        pool._broken = "worker died"
        manager.release(pool, DEFAULT_START_METHOD, 2)
        assert manager.parked_count == 0

    def test_broken_parked_pool_is_replaced_on_lease(self, manager):
        pool = manager.lease(2, DEFAULT_START_METHOD)
        manager.release(pool, DEFAULT_START_METHOD, 2)
        pool._broken = "worker died while parked"
        replacement = manager.lease(2, DEFAULT_START_METHOD)
        assert replacement is not pool
        manager.release(replacement, DEFAULT_START_METHOD, 2)

    def test_shutdown_all_clears_parked(self, manager):
        pool = manager.lease(2, DEFAULT_START_METHOD)
        manager.release(pool, DEFAULT_START_METHOD, 2)
        manager.shutdown_all()
        assert manager.parked_count == 0

    def test_global_manager_is_a_singleton(self):
        assert get_pool_manager() is get_pool_manager()


class TestWorkerState:
    def setup_method(self):
        clear_worker_state()

    def teardown_method(self):
        clear_worker_state()

    def test_builds_once_per_key(self):
        calls = []

        def build():
            calls.append(1)
            return {"table": 42}

        first = worker_state("preset:No.1", build)
        second = worker_state("preset:No.1", build)
        assert first is second
        assert len(calls) == 1

    def test_distinct_keys_build_separately(self):
        assert worker_state("a", lambda: "A") == "A"
        assert worker_state("b", lambda: "B") == "B"

    def test_clear_resets(self):
        worker_state("k", lambda: 1)
        clear_worker_state()
        assert worker_state("k", lambda: 2) == 2


class TestResolveBatchCells:
    def test_none_and_zero_and_one_mean_no_batching(self):
        assert resolve_batch_cells(None) == 1
        assert resolve_batch_cells(0) == 1
        assert resolve_batch_cells(1) == 1

    def test_positive_passthrough(self):
        assert resolve_batch_cells(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="batch-cells must be positive"):
            resolve_batch_cells(-3)


class TestChunkIndices:
    def test_no_batching_is_singletons(self):
        assert chunk_indices([3, 1, 4], 1) == [[3], [1], [4]]

    def test_chunks_are_consecutive(self):
        assert chunk_indices(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_preserves_given_order(self):
        assert chunk_indices([5, 2, 9, 0], 2) == [[5, 2], [9, 0]]

    def test_empty(self):
        assert chunk_indices([], 4) == []


class TestExecuteCellBatch:
    def test_ok_markers_in_order(self):
        cells = [
            GridCell("repro.analysis.bits:parity", {"value": value})
            for value in (0b1, 0b11)
        ]
        assert execute_cell_batch(cells) == [("ok", 1), ("ok", 0)]

    def test_error_marker_does_not_poison_batchmates(self, tmp_path):
        bad = GridCell(
            "repro.faults.gridfaults:flaky_cell",
            {"scratch": str(tmp_path), "key": "boom", "fail_times": 99},
        )
        good = GridCell("repro.analysis.bits:parity", {"value": 0b1})
        markers = execute_cell_batch([bad, good])
        assert markers[0][0] == "error"
        assert bad.task in markers[0][1]
        assert markers[1] == ("ok", 1)

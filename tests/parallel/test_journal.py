"""Tests for the checkpoint journal and cell fingerprinting."""

import json

import pytest

from repro.parallel import CheckpointJournal, GridCell, execute_cell, fingerprint_cell
from repro.parallel.grid import OBS_KEY
from repro.parallel.journal import JOURNAL_FORMAT


class TestFingerprint:
    def test_stable_across_calls(self):
        cell = GridCell("repro.analysis.bits:parity", {"value": 6})
        assert fingerprint_cell(cell) == fingerprint_cell(cell)

    def test_insertion_order_of_payload_is_irrelevant(self):
        forward = GridCell(
            "repro.evalsuite.table1:xiao_machine_cell", {"name": "No.1", "seed": 1}
        )
        backward = GridCell(
            "repro.evalsuite.table1:xiao_machine_cell", {"seed": 1, "name": "No.1"}
        )
        assert fingerprint_cell(forward) == fingerprint_cell(backward)

    def test_payload_content_changes_fingerprint(self):
        base = GridCell("repro.analysis.bits:parity", {"value": 6})
        other = GridCell("repro.analysis.bits:parity", {"value": 7})
        assert fingerprint_cell(base) != fingerprint_cell(other)

    def test_task_changes_fingerprint(self):
        one = GridCell("repro.analysis.bits:parity", {"value": 6})
        two = GridCell("repro.faults.gridfaults:echo_cell", {"value": 6})
        assert fingerprint_cell(one) != fingerprint_cell(two)

    def test_dataclass_payloads_fingerprint_by_content(self):
        from repro.baselines.drama import DramaConfig

        one = GridCell(
            "repro.evalsuite.table1:drama_machine_cell",
            {"name": "No.1", "seed": 1, "determinism_runs": 2,
             "drama_config": DramaConfig()},
        )
        two = GridCell(
            "repro.evalsuite.table1:drama_machine_cell",
            {"name": "No.1", "seed": 1, "determinism_runs": 2,
             "drama_config": DramaConfig()},
        )
        assert fingerprint_cell(one) == fingerprint_cell(two)

    def test_obs_hook_is_excluded_and_stripped(self, tmp_path):
        """The one reserved hook key neither changes the fingerprint nor
        reaches the task function (which would reject an unknown kwarg)."""
        plain = GridCell("repro.analysis.bits:parity", {"value": 6})
        hooked = GridCell(
            "repro.analysis.bits:parity",
            {"value": 6, OBS_KEY: {"telemetry": str(tmp_path / "stream.jsonl")}},
        )
        assert fingerprint_cell(hooked) == fingerprint_cell(plain)
        assert execute_cell(hooked) == execute_cell(plain)


class TestCheckpointJournal:
    def test_missing_file_is_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "never-written.jsonl")
        assert len(journal) == 0
        assert journal.lookup("deadbeef") == (False, None)

    def test_roundtrip_exact(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        value = {"solved": True, "time": 69.5, "points": (1, 2, 3)}
        journal.record("fp-1", "repro.x:y", value)
        hit, loaded = journal.lookup("fp-1")
        assert hit
        assert loaded == value
        assert isinstance(loaded["time"], float)

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("fp-1", "repro.x:y", [1.0, 2.0])
        reloaded = CheckpointJournal(path)
        assert "fp-1" in reloaded
        assert reloaded.lookup("fp-1") == (True, [1.0, 2.0])

    def test_file_always_has_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("fp-1", "repro.x:y", 1)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["format"] == JOURNAL_FORMAT

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record("fp-good", "repro.x:y", "kept")
        with open(path, "a") as handle:
            handle.write('{"torn": \n')
            handle.write("not json at all\n")
        reloaded = CheckpointJournal(path)
        assert reloaded.lookup("fp-good") == (True, "kept")
        assert len(reloaded) == 1

    def test_unpicklable_record_counts_as_miss(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"format": JOURNAL_FORMAT, "version": 1})
            + "\n"
            + json.dumps(
                {"fingerprint": "fp-bad", "task": "repro.x:y", "result": "!!!"}
            )
            + "\n"
        )
        journal = CheckpointJournal(path)
        assert journal.lookup("fp-bad") == (False, None)

    def test_duplicate_record_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record("fp-1", "repro.x:y", "first")
        journal.record("fp-1", "repro.x:y", "second")
        assert journal.lookup("fp-1") == (True, "first")
        assert len(journal) == 1


class TestLoadRobustness:
    """A SIGKILL mid-append leaves a torn trailing line; loading must keep
    every intact record and surface the damage as degradation events."""

    def _chop(self, path, keep_fraction=0.5):
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1)  # start of last record
        torn = raw[: cut + 1 + int((len(raw) - cut) * keep_fraction)]
        assert torn != raw
        path.write_bytes(torn)

    def test_chopped_trailing_record_keeps_the_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record("fp-1", "repro.x:y", {"machine": 1})
        journal.record("fp-2", "repro.x:y", {"machine": 2})
        self._chop(path)

        reloaded = CheckpointJournal(path)
        assert reloaded.lookup("fp-1") == (True, {"machine": 1})
        assert reloaded.lookup("fp-2") == (False, None)
        assert len(reloaded.load_events) == 1
        event = reloaded.load_events[0]
        assert event.step == "journal"
        assert event.action == "skipped-record"
        assert "truncated" in event.detail

    def test_garbled_bytes_do_not_abort_the_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("fp-1", "repro.x:y", "kept")
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe\x00 not utf8 not json\n")
        reloaded = CheckpointJournal(path)
        assert reloaded.lookup("fp-1") == (True, "kept")
        assert len(reloaded.load_events) == 1

    def test_record_missing_fields_is_an_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("fp-1", "repro.x:y", 1)
        with open(path, "a") as handle:
            handle.write(json.dumps({"task": "repro.x:y"}) + "\n")
        reloaded = CheckpointJournal(path)
        assert len(reloaded) == 1
        assert any("fingerprint" in e.detail for e in reloaded.load_events)

    def test_clean_journal_has_no_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("fp-1", "repro.x:y", 1)
        assert CheckpointJournal(path).load_events == []

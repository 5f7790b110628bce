"""Unit tests for the determinism study module."""

from repro.baselines.drama import DramaConfig
from repro.core.dramdig import DramDigConfig
from repro.core.probe import ProbeConfig
from repro.evalsuite.determinism import render_determinism, run_determinism

FAST_DRAMDIG = DramDigConfig(probe=ProbeConfig(rounds=200))
FAST_DRAMA = DramaConfig(pool_size=2500, rounds=400, timeout_seconds=600.0)


def test_dramdig_single_output():
    rows = run_determinism(
        machine_name="No.4",
        runs=3,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    by_tool = {row.tool: row for row in rows}
    dramdig = by_tool["DRAMDig"]
    assert dramdig.completed == 3
    assert dramdig.distinct_outputs == 1
    assert dramdig.modal_fraction == 1.0
    assert dramdig.correct_fraction == 1.0


def test_drama_row_accounts_for_every_run():
    rows = run_determinism(
        machine_name="No.4",
        runs=3,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    drama = next(row for row in rows if row.tool == "DRAMA")
    assert drama.runs == 3
    assert drama.completed <= 3
    assert sum(drama.outputs.values()) == drama.completed


def test_render():
    rows = run_determinism(
        machine_name="No.4",
        runs=2,
        seed=1,
        dramdig_config=FAST_DRAMDIG,
        drama_config=FAST_DRAMA,
    )
    text = render_determinism(rows)
    assert "DRAMDig" in text and "Modal output" in text


class TestReport:
    def test_small_scale_report(self, tmp_path):
        from repro.evalsuite.report import ReportConfig, generate_report
        from repro.rowhammer.hammer import HammerConfig

        config = ReportConfig(
            seed=1,
            machines=("No.1",),
            hammer_machines=("No.1",),
            hammer_tests=1,
            determinism_runs=2,
            determinism_machine="No.4",
            dramdig=FAST_DRAMDIG,
            drama=FAST_DRAMA,
            hammer=HammerConfig(duration_seconds=20.0),
        )
        target = tmp_path / "report.md"
        report = generate_report(config, path=target)
        assert target.exists()
        assert "## Table II — uncovered mappings" in report
        assert "## Determinism study" in report
        assert "Sandy Bridge" in report

    def test_resumed_report_replays_determinism_cells(self, tmp_path):
        """The determinism study goes through the grid seam: a second
        report over the same journal renders the same bytes and serves
        every determinism cell from the journal."""
        from repro.evalsuite.report import ReportConfig, generate_report
        from repro.obs import tracing
        from repro.rowhammer.hammer import HammerConfig

        config = ReportConfig(
            seed=1,
            machines=("No.1",),
            hammer_machines=("No.1",),
            hammer_tests=1,
            determinism_runs=2,
            determinism_machine="No.4",
            dramdig=FAST_DRAMDIG,
            drama=FAST_DRAMA,
            hammer=HammerConfig(duration_seconds=20.0),
            journal=str(tmp_path / "report.journal"),
        )
        first = generate_report(config)
        tracer = tracing.Tracer()
        with tracing.activate(tracer):
            second = generate_report(config)
        assert second == first

        grid = next(s for s in tracer.spans if s.name == "grid:determinism")
        cells = [s for s in tracer.spans if s.parent_id == grid.span_id]
        assert len(cells) == 4
        assert all(span.status == "cached" for span in cells)
        assert grid.attrs["cached"] == 4

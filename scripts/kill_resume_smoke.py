#!/usr/bin/env python
"""CI smoke test: SIGKILL a grid workload mid-flight, resume it, demand identity.

The deterministic resume regressions live in the test suite
(``tests/evalsuite/test_resume.py``, ``tests/rowhammer/test_campaign.py``,
``tests/fleet/test_orchestrator.py``). This script is the end-to-end
variant with a real ``SIGKILL`` against the CLI. Every workload runs
the same three steps:

1. render the workload once, uninterrupted, as the reference;
2. start the same command as a subprocess with ``--resume <journal>``
   and kill -9 it as soon as the journal holds a checkpoint (before it
   can hold all of them);
3. re-run the command to completion over the same journal; the resumed
   output must be byte-identical to the reference.

``--workload`` picks the command and its extra gates:

* ``table1`` — ``dramdig table1``, with a traced reference that records
  a ``--history`` entry, and a victim that streams ``--telemetry``.
  Gates: heartbeat continuity (events before the kill landed, every
  line but at most a torn final one parseable, a closing ``run-end``
  from the resumed process); ``dramdig trace summary --strict`` accepts
  the resumed trace; ``dramdig obs diff`` over the reference/resumed
  trace pair exits 0 (cached subtrees excluded, no phantom regression);
  ``dramdig obs history --check`` passes over the recorded entries.
* ``campaign`` — a small ``dramdig campaign run`` sweep (2 machines x 2
  variants x 2 mitigations, one 120-simulated-second test each). The
  leaderboard AND the ``--out`` artifact must be byte-identical, and the
  resumed trace must show every surviving trial as CACHED — zero trials
  re-hammered.
* ``fleet`` — an adversarial ``dramdig fleet run`` with a persistent
  ``--knowledge-store``. The resume runs over the journal *and* the
  store the kill left behind (report + artifact byte-identical); a
  third, traced run over the completed journal must resume every
  machine (``grid.cells_resumed`` equals the fleet size) with no
  ``fleet.*`` counter at all (zero re-probing), and ``dramdig trace
  summary`` must accept the trace.

Exit code 0 on success. The kill is inherently racy — if the victim
finishes before the kill lands (tiny grids on a fast machine), the run
still validates byte-identity and reports that the kill was skipped.

``--artifacts DIR`` keeps traces, streams, summaries and artifacts in
DIR instead of the throwaway scratch directory, so CI can upload them.

Usage: ``python scripts/kill_resume_smoke.py --workload table1|campaign|fleet
[--artifacts DIR]``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DRAMDIG = [sys.executable, "-m", "repro"]
TIMEOUT_SECONDS = 600.0

CAMPAIGN_SWEEP = [
    "--machines", "No.1", "No.2",
    "--variants", "double_sided", "many_sided_6",
    "--mitigations", "none", "trr",
    "--tests", "1",
    "--duration", "120",
]
FLEET_SIZE = 9
FLEET_RUN = [
    "fleet", "run",
    "--fleet-size", str(FLEET_SIZE), "--families", "3",
    "--profile", "adversarial", "--max-gib", "8", "--wave", "2",
]


class SmokeFailure(Exception):
    """A gate rejected the run; ``output`` is echoed after the message."""

    def __init__(self, message: str, output: str = "") -> None:
        super().__init__(message)
        self.output = output


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _run(args: list[str]) -> str:
    """Run a dramdig command to completion; its stdout."""
    return subprocess.run(
        DRAMDIG + args, cwd=REPO, env=_env(), capture_output=True,
        text=True, timeout=TIMEOUT_SECONDS, check=True,
    ).stdout


def _journal_records(journal: Path) -> int:
    if not journal.exists():
        return 0
    count = 0
    for line in journal.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "fingerprint" in record:
            count += 1
    return count


def _kill_mid_flight(
    args: list[str], journal: Path, after_records: int, poll_seconds: float
) -> tuple[bool, int]:
    """Start ``args`` and SIGKILL it once the journal holds ``after_records``.

    Returns whether the kill landed (False: the victim finished first)
    and the journal's record count afterwards.
    """
    victim = subprocess.Popen(
        DRAMDIG + args, cwd=REPO, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            break
        if _journal_records(journal) >= after_records:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        time.sleep(poll_seconds)
    else:
        victim.kill()
        raise SmokeFailure("victim neither checkpointed nor finished in time")
    return killed, _journal_records(journal)


def _gated(args: list[str], failure: str, summary: Path | None = None) -> str:
    """Run a dramdig check command; fail with ``failure`` on a nonzero exit.

    ``summary`` keeps the command's stdout next to the artifacts.
    """
    result = subprocess.run(
        DRAMDIG + args, cwd=REPO, env=_env(), capture_output=True,
        text=True, timeout=TIMEOUT_SECONDS,
    )
    if summary is not None:
        summary.write_text(result.stdout)
    if result.returncode != 0:
        raise SmokeFailure(failure, result.stdout + result.stderr)
    return result.stdout


def _stream_lines(stream: Path) -> tuple[list[dict], int]:
    """Parsed telemetry events and the count of unparseable lines.

    Parsed inline (not via ``repro.obs.telemetry``) so the smoke script
    exercises the on-disk format the way an external consumer would.
    """
    if not stream.exists():
        return [], 0
    events, torn = [], 0
    for line in stream.read_text(encoding="utf-8").splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            torn += 1
            continue
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
        else:
            torn += 1
    return events, torn


def _report_kill(killed: bool, survivors: int, unit: str) -> None:
    if killed:
        print(f"killed victim with {survivors} checkpointed {unit}(s)")
        if survivors == 0:
            raise SmokeFailure("kill landed before any checkpoint")
    else:
        print("victim finished before the kill landed; "
              "validating byte-identity only")


def _smoke_table1(scratch: Path, artifacts: Path) -> None:
    journal = scratch / "table1.journal"
    trace_path = artifacts / "resumed-table1-trace.jsonl"
    reference_trace = artifacts / "reference-table1-trace.jsonl"
    stream = artifacts / "table1-telemetry.jsonl"
    history = artifacts / "history.jsonl"

    print("== reference run (uninterrupted, no journal) ==", flush=True)
    # Global flags (--telemetry/--history) go before the subcommand,
    # per-run flags (--resume/--trace) after it.
    reference = _run(
        ["--history", str(history), "table1", "--trace", str(reference_trace)]
    )

    print("== victim run (will be SIGKILLed mid-flight) ==", flush=True)
    killed, survivors = _kill_mid_flight(
        ["--telemetry", str(stream), "table1", "--resume", str(journal)],
        journal, after_records=1, poll_seconds=0.05,
    )
    _report_kill(killed, survivors, "cell")
    if killed:
        events_before_kill = len(_stream_lines(stream)[0])
        if events_before_kill == 0:
            raise SmokeFailure("no telemetry heartbeat reached the stream "
                               "before the kill landed")
        print(f"tailed {events_before_kill} live event(s) before the kill")

    print("== resumed run (traced, streaming) ==", flush=True)
    resumed = _run([
        "--telemetry", str(stream), "--history", str(history), "table1",
        "--resume", str(journal), "--trace", str(trace_path),
    ])
    if resumed != reference:
        raise SmokeFailure(
            "resumed output differs from the uninterrupted run", resumed
        )
    print(f"OK: resumed output is byte-identical "
          f"({survivors} cell(s) survived the kill)")

    print("== heartbeat continuity gate ==", flush=True)
    events, torn = _stream_lines(stream)
    if not events:
        raise SmokeFailure("telemetry stream is empty after the resumed run")
    if torn > 1:
        raise SmokeFailure(f"{torn} unparseable stream lines (at most one "
                           "torn final line from the kill is tolerated)")
    if events[-1]["kind"] != "run-end" or events[-1].get("code") != 0:
        raise SmokeFailure("stream does not close with a clean run-end event")
    pids = {event["pid"] for event in events if "pid" in event}
    if killed and len(pids) < 2:
        raise SmokeFailure("stream holds events from one process only — the "
                           "resumed run never picked the stream back up")
    print(f"OK: {len(events)} event(s) across {len(pids)} process(es), "
          f"{torn} torn line(s), clean run-end")

    print("== trace summary gate (strict) ==", flush=True)
    if not trace_path.exists():
        raise SmokeFailure("resumed run wrote no trace file")
    summary = _gated(
        ["trace", "summary", "--strict", str(trace_path)],
        "strict trace summary gate rejected the trace",
        artifacts / "resumed-table1-trace-summary.txt",
    )
    cached = summary.count("CACHED")
    print(f"OK: trace parsed and consistent "
          f"({cached} cell(s) reported as cached from the journal)")

    print("== obs diff gate (resumed vs reference) ==", flush=True)
    _gated(
        ["obs", "diff", str(reference_trace), str(trace_path)],
        "obs diff reported a regression between the reference and "
        "resumed traces",
        artifacts / "resumed-vs-reference-diff.txt",
    )
    print("OK: resumed trace diffs clean against the reference")

    print("== history gate ==", flush=True)
    _gated(
        ["obs", "history", str(history), "--check"],
        "obs history --check flagged a regression between the reference "
        "and resumed runs",
    )
    entries = sum(1 for _ in history.open()) if history.exists() else 0
    print(f"OK: {entries} history entries recorded, no regressions")


def _smoke_campaign(scratch: Path, artifacts: Path) -> None:
    journal = scratch / "campaign.journal"
    reference_out = artifacts / "reference-campaign.json"
    resumed_out = artifacts / "resumed-campaign.json"
    trace_path = artifacts / "resumed-campaign-trace.jsonl"

    def sweep(out: Path, *extra: str) -> list[str]:
        return ["campaign", "run", *CAMPAIGN_SWEEP, "--out", str(out), *extra]

    print("== reference sweep (uninterrupted, no journal) ==", flush=True)
    reference = _run(sweep(reference_out))

    print("== victim sweep (will be SIGKILLed mid-flight) ==", flush=True)
    killed, survivors = _kill_mid_flight(
        sweep(resumed_out, "--resume", str(journal)),
        journal, after_records=1, poll_seconds=0.05,
    )
    _report_kill(killed, survivors, "trial")

    print("== resumed sweep (traced) ==", flush=True)
    resumed = _run(
        sweep(resumed_out, "--resume", str(journal), "--trace", str(trace_path))
    )
    if resumed != reference:
        raise SmokeFailure(
            "resumed leaderboard differs from the uninterrupted run", resumed
        )
    if resumed_out.read_bytes() != reference_out.read_bytes():
        raise SmokeFailure("resumed artifact differs from the reference artifact")
    print(f"OK: leaderboard and artifact byte-identical "
          f"({survivors} trial(s) survived the kill)")

    print("== zero-rehammer gate ==", flush=True)
    if not trace_path.exists():
        raise SmokeFailure("resumed run wrote no trace file")
    summary = _gated(
        ["trace", "summary", str(trace_path)],
        "trace summary gate rejected the trace",
        artifacts / "resumed-campaign-trace-summary.txt",
    )
    cached = summary.count("CACHED")
    if cached != survivors:
        raise SmokeFailure(
            f"{survivors} trial(s) survived the kill but the trace shows "
            f"{cached} cached cell(s) — a survivor was re-hammered",
            summary,
        )
    print(f"OK: all {survivors} surviving trial(s) served from the "
          "journal, zero re-hammered")


def _trace_counters(trace_path: Path) -> dict:
    for line in trace_path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") == "metrics":
            return record.get("counters", {})
    return {}


def _smoke_fleet(scratch: Path, artifacts: Path) -> None:
    journal = scratch / "fleet.journal"
    store = scratch / "knowledge-store.jsonl"
    reference_json = artifacts / "fleet-reference.json"
    resumed_json = artifacts / "fleet-resumed.json"
    replayed_json = artifacts / "fleet-replayed.json"
    trace_path = artifacts / "fleet-replay-trace.jsonl"
    stateful = ["--resume", str(journal), "--knowledge-store", str(store)]

    print("== reference run (uninterrupted, no journal) ==", flush=True)
    reference = _run(FLEET_RUN + ["--out", str(reference_json)])

    print("== victim run (will be SIGKILLed mid-flight) ==", flush=True)
    # The store baseline is journalled before any machine runs, so "one
    # machine checkpointed" means two records.
    killed, survivors = _kill_mid_flight(
        FLEET_RUN + stateful, journal, after_records=2, poll_seconds=0.005
    )
    if killed:
        print(f"killed victim with {survivors} journal record(s)")
    else:
        print("victim finished before the kill landed; "
              "validating byte-identity and replay only")

    print("== resumed run (journal + mutated store) ==", flush=True)
    resumed = _run(FLEET_RUN + stateful + ["--out", str(resumed_json)])
    if resumed != reference:
        raise SmokeFailure(
            "resumed report differs from the uninterrupted run", resumed
        )
    if resumed_json.read_bytes() != reference_json.read_bytes():
        raise SmokeFailure("resumed artifact differs from the reference artifact")
    print("OK: resumed report and artifact are byte-identical")

    print("== replay run (fully cached, traced) ==", flush=True)
    replayed = _run(
        FLEET_RUN + stateful
        + ["--out", str(replayed_json), "--trace", str(trace_path)]
    )
    if replayed != reference:
        raise SmokeFailure("replayed report differs from the reference")
    if replayed_json.read_bytes() != reference_json.read_bytes():
        raise SmokeFailure("replayed artifact differs from the reference")
    counters = _trace_counters(trace_path)
    if counters.get("grid.cells_resumed") != FLEET_SIZE:
        raise SmokeFailure(
            f"expected {FLEET_SIZE} cells resumed from the journal, trace "
            f"says {counters.get('grid.cells_resumed')}"
        )
    probing = {k: v for k, v in counters.items() if k.startswith("fleet.")}
    if probing:
        raise SmokeFailure(f"replay re-probed machines: {probing}")
    print(f"OK: replay resumed all {FLEET_SIZE} machines from the "
          "journal with zero re-probing")

    print("== trace summary gate ==", flush=True)
    _gated(
        ["trace", "summary", str(trace_path)],
        "trace summary gate rejected the trace",
        artifacts / "fleet-replay-trace-summary.txt",
    )
    print("OK: trace parsed and consistent")


WORKLOADS = {
    "table1": _smoke_table1,
    "campaign": _smoke_campaign,
    "fleet": _smoke_fleet,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="table1",
        help="which CLI workload to kill and resume (default table1)",
    )
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="keep traces, summaries and artifacts here (for CI upload)",
    )
    args = parser.parse_args(argv)
    prefix = f"kill-resume-{args.workload}-"
    with tempfile.TemporaryDirectory(prefix=prefix) as scratch:
        artifacts = Path(args.artifacts) if args.artifacts else Path(scratch)
        artifacts.mkdir(parents=True, exist_ok=True)
        try:
            WORKLOADS[args.workload](Path(scratch), artifacts)
        except SmokeFailure as failure:
            print(f"FAIL: {failure}")
            sys.stdout.write(failure.output)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

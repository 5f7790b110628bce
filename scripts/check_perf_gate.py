#!/usr/bin/env python
"""CI perf regression gate over ``BENCH_perf.json``.

Runs (or reads) the perf harness record and fails the build when the
parallel grid stops paying for itself or stops being exact:

* serial and parallel grid artefacts must be byte-identical
  (``grid.parallel_bit_identical``) — the harness itself raises on
  divergence, so a record that reached disk without the flag is
  treated as a failure too;
* the compiled translation kernels must stay bit-identical to the
  scalar decode path (``translation.scalar_identity``) and sustain at
  least a million lookups per second in each direction;
* the campaign fuzzer's compiled aggressor planner must agree with the
  per-victim scalar aim path on every sampled lane
  (``campaign.aim_agreement``) and beat it by at least
  ``CAMPAIGN_PLANNER_SPEEDUP_FLOOR`` — below that the sweep scheduler
  would be no better than aiming victims one at a time;
* on multi-CPU hosts ``grid.table1_parallel_speedup`` must stay at or
  above the recorded floor. Single-CPU hosts skip this check — the
  harness omits the column there by design, and a gate that fails on
  hardware that cannot parallelise would only teach people to delete
  the gate;
* the telemetry bus must stay a pure side channel: the Table I panel
  rendered with and without a live bus must be byte-identical
  (``obs.artefacts_identical``), a run with the bus global left
  ``None`` must cost the same as the tracing section's untraced
  baseline (one is-None test is not allowed to grow into real work),
  and the streaming run must stay under a generous overhead ceiling;
* the fleet section must show the knowledge store paying for itself:
  every machine correct, the prefix-amortized scaling curve strictly
  decreasing in both measurements and simulated seconds, and the
  amortized per-machine probe cost at least ``FLEET_AMORTIZATION_FLOOR``
  times cheaper than a cold-start fleet. These are simulated costs —
  deterministic, so the floor can sit much closer to the measured value
  than the wall-clock floors do.

A silent fallback from campaign measurement issue to stepwise calls is
not a wall-clock floor here: it is a deterministic call-count test in
the tier-1 suite (``tests/core/test_campaign.py::TestIssuePath``).

Usage: ``python scripts/check_perf_gate.py [--bench BENCH_perf.json]
[--run]``. With ``--run`` the harness is executed first (writing the
record to ``--bench``); without it an existing record is checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Conservative floor, not a target: far enough below the recorded
# parallel speedup (~0.8x jobs on multi-core hosts) that noise cannot
# trip it, close enough that a real regression — a worker pool rebuilt
# per task — still does.
PARALLEL_SPEEDUP_FLOOR = 1.3
# The compiled GF(2) translation kernels sustain >20M lookups/s on the
# reference container; one million per second is the point below which
# campaign planning would be back to scalar-loop territory.
TRANSLATION_LOOKUPS_FLOOR = 1_000_000.0
# The compiled aggressor planner beats scalar aiming by hundreds of x
# on the reference container; 5x is the point below which the campaign
# sweep would schedule faster by skipping the batch path entirely.
CAMPAIGN_PLANNER_SPEEDUP_FLOOR = 5.0
# The bench fleet (16 machines, 2 families) amortizes to ~10x cheaper
# than cold-start per machine; the cost model is simulated and
# deterministic, so 2x is an unambiguous "the store stopped paying"
# signal, not a noise margin.
FLEET_AMORTIZATION_FLOOR = 2.0
# A DRAMDig run emits a handful of phase events, so streaming telemetry
# costs low single-digit percent on the reference container; 1.5x is a
# "something started doing per-measurement work on the hot path" alarm,
# not a noise margin.
TELEMETRY_OVERHEAD_CEILING = 1.5
# With the bus global left None the instrumented run and the tracing
# section's untraced baseline execute the same code plus one is-None
# test per hook; 1.3x apart means the off path stopped being free.
TELEMETRY_OFF_NOISE_CEILING = 1.3


def check_record(record: dict) -> list[str]:
    """Return the list of gate violations (empty = pass)."""
    problems = []
    grid = record.get("grid", {})
    environment = record.get("environment", {})

    if grid.get("parallel_bit_identical") is not True:
        problems.append(
            "grid.parallel_bit_identical is not true: serial and parallel "
            "artefacts diverged"
        )

    translation = record.get("translation", {})
    if translation.get("scalar_identity") is not True:
        problems.append(
            "translation.scalar_identity is not true: compiled batch "
            "kernels diverged from the scalar decode path"
        )
    for direction in ("translate_lookups_per_s", "encode_lookups_per_s"):
        rate = translation.get(direction)
        if rate is None or rate < TRANSLATION_LOOKUPS_FLOOR:
            problems.append(
                f"translation.{direction} {rate} below floor "
                f"{TRANSLATION_LOOKUPS_FLOOR:.0f}"
            )

    campaign = record.get("campaign", {})
    if campaign.get("aim_agreement") is not True:
        problems.append(
            "campaign.aim_agreement is not true: the compiled aggressor "
            "planner diverged from scalar aiming"
        )
    planner_speedup = campaign.get("planner_speedup_vs_scalar")
    if planner_speedup is None or planner_speedup < CAMPAIGN_PLANNER_SPEEDUP_FLOOR:
        problems.append(
            f"campaign.planner_speedup_vs_scalar {planner_speedup} below "
            f"floor {CAMPAIGN_PLANNER_SPEEDUP_FLOOR}"
        )

    obs = record.get("obs", {})
    if obs.get("artefacts_identical") is not True:
        problems.append(
            "obs.artefacts_identical is not true: a live telemetry bus "
            "changed an artefact (the stream must be a pure side channel)"
        )
    overhead = obs.get("overhead_ratio")
    if overhead is None or overhead > TELEMETRY_OVERHEAD_CEILING:
        problems.append(
            f"obs.overhead_ratio {overhead} above ceiling "
            f"{TELEMETRY_OVERHEAD_CEILING}"
        )
    telemetry_off = obs.get("telemetry_off_seconds")
    untraced = record.get("tracing", {}).get("untraced_seconds")
    if telemetry_off is None or untraced is None or untraced <= 0:
        problems.append(
            "obs.telemetry_off_seconds / tracing.untraced_seconds missing: "
            "cannot check the telemetry-off noise bound"
        )
    elif telemetry_off / untraced > TELEMETRY_OFF_NOISE_CEILING:
        problems.append(
            f"obs.telemetry_off_seconds {telemetry_off} is more than "
            f"{TELEMETRY_OFF_NOISE_CEILING}x the untraced baseline "
            f"{untraced}: the disabled bus is no longer free"
        )

    fleet = record.get("fleet", {})
    if fleet.get("all_correct") is not True:
        problems.append(
            "fleet.all_correct is not true: a fleet machine lost its "
            "mapping (confirm-or-fallback must never cost correctness)"
        )
    for key in (
        "strictly_decreasing_measurements",
        "strictly_decreasing_sim_seconds",
    ):
        if fleet.get(key) is not True:
            problems.append(
                f"fleet.{key} is not true: the amortized scaling curve "
                "stopped decreasing — the knowledge store is not paying"
            )
    amortization = fleet.get("amortization_speedup")
    if amortization is None or amortization < FLEET_AMORTIZATION_FLOOR:
        problems.append(
            f"fleet.amortization_speedup {amortization} below floor "
            f"{FLEET_AMORTIZATION_FLOOR}"
        )

    if environment.get("single_cpu"):
        print(
            "perf gate: single-CPU host, parallel-speedup floor skipped "
            "(bit-identity still enforced)"
        )
    else:
        speedup = grid.get("table1_parallel_speedup")
        if speedup is None or speedup < PARALLEL_SPEEDUP_FLOOR:
            problems.append(
                f"grid.table1_parallel_speedup {speedup} below floor "
                f"{PARALLEL_SPEEDUP_FLOOR}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", default="BENCH_perf.json", metavar="PATH",
        help="perf record to check (default BENCH_perf.json)",
    )
    parser.add_argument(
        "--run", action="store_true",
        help="run the perf harness first, writing the record to --bench",
    )
    args = parser.parse_args(argv)

    if args.run:
        from repro.parallel.perf import main as perf_main

        code = perf_main(["--out", args.bench])
        if code != 0:
            print(f"perf gate: harness exited {code}", file=sys.stderr)
            return code

    path = Path(args.bench)
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        print(f"perf gate: cannot read {path}: {error}", file=sys.stderr)
        return 1

    problems = check_record(record)
    for problem in problems:
        print(f"perf gate: {problem}", file=sys.stderr)
    if not problems:
        grid = record.get("grid", {})
        translation = record.get("translation", {})
        campaign = record.get("campaign", {})
        fleet = record.get("fleet", {})
        print(
            "perf gate: ok "
            f"(translation "
            f"{translation.get('translate_lookups_per_s', 0.0) / 1e6:.1f}M/s, "
            f"campaign planner "
            f"{campaign.get('planner_speedup_vs_scalar', float('nan')):.0f}x, "
            f"fleet amortization "
            f"{fleet.get('amortization_speedup', float('nan')):.1f}x, "
            f"telemetry overhead "
            f"{(record.get('obs', {}).get('overhead_ratio', float('nan')) - 1.0) * 100.0:+.1f}%, "
            f"parallel speedup "
            f"{grid.get('table1_parallel_speedup', 'skipped')})"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

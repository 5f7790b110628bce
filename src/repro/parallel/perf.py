"""Perf harness: wall-clock evidence for the optimisation work.

Writes ``BENCH_perf.json`` with these families of numbers:

* **grid** — wall-clock seconds of the Table I and Figure 2 evaluation
  grids, serial and parallel (persistent warmed pool, optional cell
  batching), next to the recorded pre-optimisation (seed) baselines
  measured on the same reference container. The parallel runs are
  always executed and compared byte-for-byte against serial; the
  *speedup* columns are only emitted on multi-CPU hosts, because a
  single-CPU container's process pool cannot beat serial and the ratio
  would be noise dressed up as a result;
* **single_run** — one DRAMDig run per panel machine, next to the
  recorded seed panel baseline;
* **translation** — batched phys↔DRAM lookup throughput of the compiled
  GF(2) matrix pair on a million-address pool, checked bit-identical
  against the scalar decode path before any timing is believed;
* **micro** — decode/parity throughput of the current hot-path kernels
  next to both the retained reference implementations
  (``bank_of_array_popcount`` / ``row_of_array_shift``) and the recorded
  seed numbers;
* **tracing** — one DRAMDig run with and without an active tracer
  (the zero-cost-when-off claim, measured), plus the traced run's
  per-phase breakdown (simulated seconds, wall seconds and pair
  measurements per pipeline step) lifted from its spans;
* **obs** — the same A/B for the live telemetry bus: one DRAMDig run
  with the bus global left ``None`` (hot-path hooks reduce to one
  is-None test) vs streaming events to a scratch file, plus a Table I
  panel rendered both ways and compared byte for byte (telemetry is a
  side channel, never an input);
* **campaign** — the campaign fuzzer's aggressor-selection A/B:
  compiled batch planning vs per-victim scalar aiming, agreement
  checked lane for lane before any timing is believed, plus one timed
  campaign trial as the end-to-end cost anchor;
* **environment** — CPU count, worker count and batch size, because
  a parallel speedup claim without the CPU count is meaningless.

Run with ``python -m repro.parallel.perf [--jobs N] [--batch-cells K]
[--out PATH]``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.bits import parity_array
from repro.dram.presets import TABLE2_ORDER, preset
from repro.evalsuite.figure2 import run_figure2
from repro.evalsuite.table1 import render_table1, run_table1
from repro.ioutil import atomic_write
from repro.logutil import get_logger, setup_logging
from repro.obs import tracing as obs
from repro.parallel.grid import resolve_jobs

__all__ = ["SEED_BASELINES", "best_of", "run_perf", "main"]

_LOG = get_logger("repro.perf")

# Pre-optimisation numbers, measured on the reference container at the
# commit each harness section was introduced (seed code, serial, same
# workloads as below). They anchor the speedup columns when the harness
# runs on the same class of hardware; rerun on different hardware,
# compare the "reference" micro columns instead — those are measured
# live. ``single_run_panel_seconds`` is the seed cost of one DRAMDig
# run on each of the four panel machines below (best-of-9).
SEED_BASELINES = {
    "table1_seconds": 41.0,
    "figure2_seconds": 13.1,
    "bank_of_array_us": 142.3,
    "row_of_array_us": 302.3,
    "parity_array_us": 37.9,
    "pool_size": 16384,
    "single_run_panel_seconds": 0.505,
}

_MICRO_POOL = 16384

# Smallest, mid and largest Algorithm-1 pools: the single-run panel
# spans the cost range without running all nine presets nine times.
_SINGLE_RUN_PANEL = ("No.1", "No.3", "No.6", "No.9")


def best_of(callable_, repeats: int = 5) -> float:
    """Best-of-N wall-clock seconds (best, not mean: least noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _micro_benches() -> dict:
    mapping = preset("No.1").mapping
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 2**33, _MICRO_POOL, dtype=np.uint64)
    mask = (1 << 14) | (1 << 17)

    current = {
        "bank_of_array_us": best_of(lambda: mapping.bank_of_array(pool)) * 1e6,
        "row_of_array_us": best_of(lambda: mapping.row_of_array(pool)) * 1e6,
        "parity_array_us": best_of(lambda: parity_array(pool, mask)) * 1e6,
    }
    reference = {
        "bank_of_array_us": best_of(lambda: mapping.bank_of_array_popcount(pool)) * 1e6,
        "row_of_array_us": best_of(lambda: mapping.row_of_array_shift(pool)) * 1e6,
    }
    return {
        "pool_size": _MICRO_POOL,
        "current": current,
        "reference_impls": reference,
        "speedup_vs_seed": {
            key: SEED_BASELINES[key] / current[key]
            for key in ("bank_of_array_us", "row_of_array_us", "parity_array_us")
        },
        "speedup_vs_reference": {
            key: reference[key] / current[key] for key in reference
        },
    }


def _tracing_benches(machine_name: str = "No.1", repeats: int = 3) -> dict:
    """Tracing overhead on one full DRAMDig run, plus the phase breakdown.

    Same (preset, seed) run measured best-of-N twice: once with the
    tracer globals left ``None`` (the production default — instrumented
    hot paths reduce to a single is-None test) and once under an active
    tracer. The last traced run's spans supply the per-phase table: a
    phase span sits at path depth 2 (``dramdig/attempt-N/<phase>``).
    """
    from repro.core.dramdig import DramDig
    from repro.machine.machine import SimulatedMachine

    def run_once():
        machine = SimulatedMachine.from_preset(preset(machine_name), seed=1)
        DramDig().run(machine)

    untraced = best_of(run_once, repeats=repeats)

    tracer = obs.Tracer()

    def run_traced():
        nonlocal tracer
        tracer = obs.Tracer()
        with obs.activate(tracer):
            run_once()

    traced = best_of(run_traced, repeats=repeats)
    phases: dict[str, dict] = {}
    for span in tracer.spans:
        if span.path.count("/") != 2:
            continue
        entry = phases.setdefault(
            span.name, {"sim_seconds": 0.0, "wall_seconds": 0.0, "measurements": 0}
        )
        entry["sim_seconds"] += (span.sim_ns or 0.0) / 1e9
        entry["wall_seconds"] += span.wall_s or 0.0
        entry["measurements"] += int(span.attrs.get("measurements", 0))
    return {
        "machine": machine_name,
        "untraced_seconds": untraced,
        "traced_seconds": traced,
        "overhead_ratio": traced / untraced if untraced else float("nan"),
        "phases": phases,
    }


def _obs_benches(machine_name: str = "No.1", repeats: int = 3) -> dict:
    """Telemetry overhead on one full DRAMDig run, plus artefact identity.

    Mirrors ``_tracing_benches``: the same (preset, seed) run measured
    best-of-N with the bus global left ``None`` (instrumented hot paths
    pay one global load and an is-None test) and with an active
    ``TelemetryBus`` streaming events to a scratch file. A small Table I
    panel is also rendered with and without a live bus and compared byte
    for byte — the stream is a side channel and must never alter an
    artefact, so a mismatch raises instead of reporting numbers built on
    different output.
    """
    import tempfile

    from repro.core.dramdig import DramDig
    from repro.machine.machine import SimulatedMachine
    from repro.obs import telemetry

    def run_once():
        machine = SimulatedMachine.from_preset(preset(machine_name), seed=1)
        DramDig().run(machine)

    off = best_of(run_once, repeats=repeats)

    with tempfile.TemporaryDirectory(prefix="dramdig-obs-perf-") as scratch:
        stream = Path(scratch) / "run.jsonl"

        def run_streamed():
            with telemetry.activate_bus(telemetry.TelemetryBus(stream)):
                run_once()

        on = best_of(run_streamed, repeats=repeats)
        events_per_run = len(telemetry.load_events(stream)) // repeats

        plain = render_table1(run_table1(seed=1, machines=(machine_name,)))
        panel_stream = Path(scratch) / "table1.jsonl"
        with telemetry.activate_bus(telemetry.TelemetryBus(panel_stream)):
            streamed = render_table1(run_table1(seed=1, machines=(machine_name,)))
        if streamed != plain:
            raise RuntimeError(
                "telemetry changed the Table I artefact: the event stream "
                "must be a pure side channel"
            )
        panel_events = len(telemetry.load_events(panel_stream))

    return {
        "machine": machine_name,
        "telemetry_off_seconds": off,
        "telemetry_on_seconds": on,
        "overhead_ratio": on / off if off else float("nan"),
        "events_per_run": events_per_run,
        "panel_events": panel_events,
        "artefacts_identical": True,
    }


def _single_run_benches(
    machines: tuple[str, ...] = _SINGLE_RUN_PANEL, repeats: int = 3
) -> dict:
    """Best-of-N wall clock of one default DRAMDig run per panel machine."""
    from repro.core.dramdig import DramDig
    from repro.machine.machine import SimulatedMachine

    def run_panel():
        for name in machines:
            machine = SimulatedMachine.from_preset(preset(name), seed=1)
            DramDig().run(machine)

    batched = best_of(run_panel, repeats=repeats)
    return {
        "machines": list(machines),
        "batched_seconds": batched,
        "speedup_vs_seed": SEED_BASELINES["single_run_panel_seconds"] / batched,
    }


_TRANSLATION_POOL = 1_000_000
_TRANSLATION_IDENTITY_SAMPLE = 4096


def _translation_benches(machine_name: str = "No.2") -> dict:
    """Compiled-translation throughput plus scalar bit-identity.

    One compiled mapping, a million-address pool, best-of timings for the
    batched phys→DRAM and DRAM→phys kernels. Before anything is timed, a
    sample of the pool goes through both the scalar ground truth
    (``AddressMapping.dram_address`` / ``encode``) and the batch kernels;
    any mismatch raises — a throughput number for a kernel that computes
    different bits would be worse than no number.
    """
    from repro.dram.compiled import CompiledMapping
    from repro.dram.mapping import DramAddress

    mapping = preset(machine_name).mapping
    compile_seconds = best_of(
        lambda: CompiledMapping.from_mapping(mapping), repeats=3
    )
    compiled = mapping.compiled
    rng = np.random.default_rng(0)
    pool = rng.integers(
        0, 1 << mapping.geometry.address_bits, _TRANSLATION_POOL, dtype=np.uint64
    )

    sample = pool[:_TRANSLATION_IDENTITY_SAMPLE]
    banks, rows, columns = compiled.translate(sample)
    round_trip = compiled.encode(banks, rows, columns)
    identical = True
    for index in range(sample.size):
        scalar = mapping.dram_address(int(sample[index]))
        if (
            scalar.bank != int(banks[index])
            or scalar.row != int(rows[index])
            or scalar.column != int(columns[index])
            or mapping.encode(DramAddress(scalar.bank, scalar.row, scalar.column))
            != int(round_trip[index])
        ):
            identical = False
            break
    if not identical:
        raise RuntimeError(
            "compiled translation diverged from the scalar decode path: "
            "batch kernels must be bit-identical"
        )

    translate_seconds = best_of(lambda: compiled.translate(pool))
    full_banks, full_rows, full_columns = compiled.translate(pool)
    encode_seconds = best_of(
        lambda: compiled.encode(full_banks, full_rows, full_columns)
    )
    scalar_seconds = best_of(
        lambda: [mapping.dram_address(int(addr)) for addr in sample], repeats=3
    )
    scalar_rate = sample.size / scalar_seconds
    translate_rate = _TRANSLATION_POOL / translate_seconds
    return {
        "machine": machine_name,
        "pool_size": _TRANSLATION_POOL,
        "identity_sample": _TRANSLATION_IDENTITY_SAMPLE,
        "compile_ms": compile_seconds * 1e3,
        "translate_lookups_per_s": translate_rate,
        "encode_lookups_per_s": _TRANSLATION_POOL / encode_seconds,
        "scalar_lookups_per_s": scalar_rate,
        "batch_speedup_vs_scalar": translate_rate / scalar_rate,
        "scalar_identity": True,
    }


def _grid_benches(
    jobs: int,
    machines: tuple[str, ...],
    batch_cells: int | None,
    single_cpu: bool,
) -> dict:
    def timed(callable_):
        start = time.perf_counter()
        value = callable_()
        return value, time.perf_counter() - start

    parallel_kwargs = dict(jobs=jobs, batch_cells=batch_cells)
    table1_serial_result, table1_serial = timed(
        lambda: run_table1(seed=1, machines=machines)
    )
    table1_parallel_result, table1_parallel = timed(
        lambda: run_table1(seed=1, machines=machines, **parallel_kwargs)
    )
    figure2_serial_result, figure2_serial = timed(
        lambda: run_figure2(seed=1, machines=machines)
    )
    figure2_parallel_result, figure2_parallel = timed(
        lambda: run_figure2(seed=1, machines=machines, **parallel_kwargs)
    )
    bit_identical = (
        render_table1(table1_parallel_result) == render_table1(table1_serial_result)
        and figure2_parallel_result == figure2_serial_result
    )
    if not bit_identical:
        raise RuntimeError(
            "parallel grid diverged from serial: artefacts must be "
            "byte-identical regardless of jobs/batch-cells"
        )
    record = {
        "machines": list(machines),
        "jobs": jobs,
        "batch_cells": batch_cells,
        "table1_serial_seconds": table1_serial,
        "table1_parallel_seconds": table1_parallel,
        "figure2_serial_seconds": figure2_serial,
        "figure2_parallel_seconds": figure2_parallel,
        "table1_speedup_vs_seed": SEED_BASELINES["table1_seconds"] / table1_serial,
        "figure2_speedup_vs_seed": SEED_BASELINES["figure2_seconds"] / figure2_serial,
        "parallel_bit_identical": True,
    }
    if single_cpu:
        # A 1-CPU pool cannot beat serial; publishing the ratio anyway
        # would look like a regression (or, worse, an accidental win).
        record["parallel_speedup_skipped"] = (
            "single-CPU host: parallel runs kept for the bit-identity "
            "check only, speedup columns omitted"
        )
    else:
        record["table1_parallel_speedup"] = table1_serial / table1_parallel
        record["figure2_parallel_speedup"] = figure2_serial / figure2_parallel
    return record


def run_perf(
    jobs: int | None = None,
    machines: tuple[str, ...] = TABLE2_ORDER,
    out: str | Path | None = "BENCH_perf.json",
    batch_cells: int | None = None,
) -> dict:
    """Measure micro, single-run and grid performance; write the record."""
    cpus = os.cpu_count() or 1
    single_cpu = cpus <= 1
    # Even on a single-CPU host the parallel leg runs with a real pool
    # (two workers) so the bit-identity check exercises cross-process
    # dispatch; resolve_jobs' floor of two permits exactly that.
    workers = resolve_jobs(jobs) if jobs is not None else max(cpus, 2)
    record = {
        "environment": {
            "cpu_count": cpus,
            "single_cpu": single_cpu,
            "jobs": workers,
            "batch_cells": batch_cells,
            "note": (
                "parallel speedup requires cpu_count > 1; on a single-CPU "
                "container the vectorised kernels carry the speedup and "
                "the parallel columns only demonstrate bit-identity, not "
                "speed"
            ),
        },
        "seed_baselines": SEED_BASELINES,
        "micro": _micro_benches(),
        "single_run": _single_run_benches(),
        "tracing": _tracing_benches(),
        "obs": _obs_benches(),
        "grid": _grid_benches(workers, machines, batch_cells, single_cpu),
    }
    # Measured last: the million-address pools would otherwise perturb
    # the cache/frequency state the earlier A/B sections were tuned on.
    record["translation"] = _translation_benches()
    # The campaign aggressor A/B shares the translation section's
    # batched-kernel regime, so it runs right after it.
    from repro.rowhammer.perf import campaign_benches

    record["campaign"] = campaign_benches()
    # Fleet economics are simulated-cost numbers (deterministic), so
    # ordering does not matter for them; they run after the wall-clock
    # sections anyway to keep those undisturbed.
    from repro.fleet.perf import fleet_benches

    record["fleet"] = fleet_benches()
    if out is not None:
        atomic_write(out, json.dumps(record, indent=2) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.perf",
        description="measure serial/parallel grid wall-clock and decode throughput",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the parallel grid runs "
        "(default: all CPUs, minimum 2 so the pool is exercised)",
    )
    parser.add_argument(
        "--batch-cells", type=int, default=None, metavar="K",
        help="bundle K consecutive grid cells per worker task in the "
        "parallel grid runs (default: one cell per task)",
    )
    parser.add_argument(
        "--out", default="BENCH_perf.json", metavar="PATH",
        help="output JSON path (default BENCH_perf.json)",
    )
    parser.add_argument(
        "--machines", nargs="*", default=list(TABLE2_ORDER), metavar="NAME",
        help="machine panel for the grid runs (default: all nine presets)",
    )
    args = parser.parse_args(argv)
    setup_logging("info")
    record = run_perf(
        jobs=args.jobs,
        machines=tuple(args.machines),
        out=args.out,
        batch_cells=args.batch_cells,
    )
    grid = record["grid"]
    micro = record["micro"]
    single = record["single_run"]
    tracing = record["tracing"]
    _LOG.info(
        "table1: serial %.1fs (seed %.1fs, %.1fx), parallel x%d %.1fs",
        grid["table1_serial_seconds"],
        SEED_BASELINES["table1_seconds"],
        grid["table1_speedup_vs_seed"],
        grid["jobs"],
        grid["table1_parallel_seconds"],
    )
    _LOG.info(
        "figure2: serial %.1fs (seed %.1fs, %.1fx), parallel x%d %.1fs",
        grid["figure2_serial_seconds"],
        SEED_BASELINES["figure2_seconds"],
        grid["figure2_speedup_vs_seed"],
        grid["jobs"],
        grid["figure2_parallel_seconds"],
    )
    if "parallel_speedup_skipped" in grid:
        _LOG.info("parallel speedup: %s", grid["parallel_speedup_skipped"])
    else:
        _LOG.info(
            "parallel speedup: table1 %.2fx, figure2 %.2fx (x%d workers)",
            grid["table1_parallel_speedup"],
            grid["figure2_parallel_speedup"],
            grid["jobs"],
        )
    _LOG.info(
        "single run (%s): %.2fs, %.2fx vs seed panel",
        ",".join(single["machines"]),
        single["batched_seconds"],
        single["speedup_vs_seed"],
    )
    translation = record["translation"]
    _LOG.info(
        "translation (%s): %.1fM phys→DRAM/s, %.1fM DRAM→phys/s "
        "(%.0fx vs scalar, compile %.1fms, bit-identical)",
        translation["machine"],
        translation["translate_lookups_per_s"] / 1e6,
        translation["encode_lookups_per_s"] / 1e6,
        translation["batch_speedup_vs_scalar"],
        translation["compile_ms"],
    )
    campaign = record["campaign"]
    _LOG.info(
        "campaign (%s): planner %.1fM victims/s vs scalar %.1fk/s "
        "(%.0fx, aim-identical), trial of %d hammer trials in %.2fs",
        campaign["machine"],
        campaign["planner_victims_per_s"] / 1e6,
        campaign["scalar_victims_per_s"] / 1e3,
        campaign["planner_speedup_vs_scalar"],
        campaign["trial_hammer_trials"],
        campaign["trial_seconds"],
    )
    for key, speedup in micro["speedup_vs_seed"].items():
        _LOG.info(
            "%s: %.1fus (%.1fx vs seed)",
            key.removesuffix("_us"),
            micro["current"][key],
            speedup,
        )
    _LOG.info(
        "tracing overhead on %s: untraced %.2fs, traced %.2fs (%.1f%%)",
        tracing["machine"],
        tracing["untraced_seconds"],
        tracing["traced_seconds"],
        (tracing["overhead_ratio"] - 1.0) * 100.0,
    )
    obs_bench = record["obs"]
    _LOG.info(
        "telemetry overhead on %s: off %.2fs, on %.2fs (%.1f%%), "
        "%d events/run, artefacts identical: %s",
        obs_bench["machine"],
        obs_bench["telemetry_off_seconds"],
        obs_bench["telemetry_on_seconds"],
        (obs_bench["overhead_ratio"] - 1.0) * 100.0,
        obs_bench["events_per_run"],
        obs_bench["artefacts_identical"],
    )
    fleet = record["fleet"]
    _LOG.info(
        "fleet (%d machines, %d families): %.0f measurements/machine "
        "amortized vs %.0f cold (%.1fx), all correct: %s",
        fleet["fleet_size"],
        fleet["families"],
        fleet["amortized_measurements_per_machine"],
        fleet["cold_measurements_per_machine"],
        fleet["amortization_speedup"],
        fleet["all_correct"],
    )
    _LOG.info("written %s", args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

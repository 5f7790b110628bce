"""DRAMDig simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of a workload runs cold in its own fresh interpreter
(``worker.py``), started and awaited one at a time; no worker pool is
ever started. With ``--trace 0`` passes repeat until the next would end
after ``--seconds`` (at least one) and the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one untraced and one traced pass
run and it carries the per-layer metrics:

    {"correct": true, "attempted": 59, "failed": 26, "metrics": {...}}

``--workload all`` runs the four workloads one after another. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "fleet-adversarial", "campaign", "noisy-hostile")
# Set-up is timed in at least this many fresh interpreters (the
# measuring ones included) and reported as the median.
SETUP_SAMPLES = 5
# Wall budget per workload, kept under the 180 s a run may take.
BUDGET_S = 170.0
# Share of traced wall time the layers each workload was chosen for
# are predicted to own.
DOMINANCE = {
    "table1": (("machine.allocator", "analysis.gf2", "baselines.drama"), ">", 0.50),
    "fleet-adversarial": (("analysis.gf2", "baselines.drama"), "<", 0.05),
    "campaign": (("rowhammer.hammer", "rowhammer.variants"), ">", 0.85),
    "noisy-hostile": (("machine.measure", "faults.injector"), ">", 0.80),
}


class BenchError(Exception):
    """A worker failed; the run prints no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def spawn(arguments: list[str], deadline: float) -> tuple[float | None, list[str], int]:
    """Run ``worker.py`` to completion.

    Returns (seconds from spawn to its ``ready`` line, the other stdout
    lines, exit code). The worker is killed at ``deadline`` and always
    reaped before this returns.
    """
    # Compiling from source every time keeps set-up independent of what
    # earlier runs cached, and keeps the checkout free of bytecode files.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), process.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in process.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        watchdog.join()
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        code = process.wait()
    return ready, lines, code


def run_pass(name: str, seed: int, deadline: float, *extra: str) -> dict:
    """One worker: its pass record plus ``setup_s`` and ``cost_s`` (spawn to exit)."""
    start = time.perf_counter()
    ready, lines, code = spawn(["--workload", name, "--seed", str(seed), *extra], deadline)
    if code != 0 or ready is None or ("--setup-only" not in extra and not lines):
        raise BenchError(f"{name}: worker {' '.join(extra)} exited with code {code}")
    record = json.loads(lines[-1]) if lines else {}
    record["setup_s"] = ready
    record["cost_s"] = time.perf_counter() - start
    return record


def simulated(record: dict) -> str:
    """Everything about a pass that must repeat exactly for a seed."""
    keys = ("ops", "failed", "events", "measurements", "sim_seconds", "digest", "counters")
    return json.dumps({key: record[key] for key in keys}, sort_keys=True)


def describe(name: str, passes: list[dict]) -> list[str]:
    """Print what the passes share; return the failed checks."""
    first = passes[0]
    print(f"workload {name}  passes {len(passes)}")
    print(f"environment {first['environment']}")
    print(f"digest {first['digest']}")
    if first["counters"].get("tools"):
        print(f"correct/attempted tool runs: {first['counters']['tools']}")
    if "failures" in first["counters"]:
        print(f"known failures {first['counters']['failures']}")
    print("pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    problems = [check for p in passes for check in p["checks"]]
    for index, record in enumerate(passes[1:], start=1):
        if simulated(record) != simulated(first):
            problems.append(f"pass {index} differs from pass 0 (digest or simulated counters)")
    return problems


def end_to_end(name: str, seed: int, seconds: int, deadline: float):
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(name, seed, deadline))
        typical = statistics.median(p["cost_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(name, seed, deadline, "--setup-only")["setup_s"])
    problems = describe(name, passes)

    first = passes[0]
    ops = first["ops"]
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "events_per_s": (first["events"] / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_per_sim_h": (3600 * ops / first["sim_seconds"], "1/sim_h"),
        "events_per_op": (first["events"] / ops, "count"),
    }
    # Printed only. Every workload's JSON must carry every end-to-end
    # metric, never 0: fail_rate, measurements_per_op and flips_per_sim_min
    # are 0 or undefined on some workload. sim_s_per_op is a time that is
    # exact for a seed (and on three workloads the same for every seed),
    # which the result format forbids for times; its inverse is a rate.
    shown = {
        **metrics,
        "sim_s_per_op": (first["sim_seconds"] / ops, "sim_s"),
        "fail_rate": (first["failed"] / ops, "ratio"),
        "measurements_per_op": (first["measurements"] / ops, "count"),
    }
    if name == "campaign":
        shown["flips_per_sim_min"] = (
            first["counters"]["flips"] / (first["sim_seconds"] / 60), "1/sim_min"
        )
    for metric, (value, unit) in shown.items():
        print(f"  {metric:38s} {value:.6g} {unit}")
    return passes, metrics, problems


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(name: str, seed: int, deadline: float):
    untraced = run_pass(name, seed, deadline)
    traced = run_pass(name, seed, deadline, "--trace")
    passes = [untraced, traced]
    problems = describe(name, passes)
    trace = traced["trace"]
    busy, calls = trace["busy"], trace["calls"]
    if trace["accounting_error_s"] > 1e-6 or abs(trace["wall_s"] - traced["wall_s"]) > 1e-3:
        problems.append(f"layer accounting is off by {trace['accounting_error_s']:.3g} s")

    layers, op, bound = DOMINANCE[name]
    share = sum(busy[layer] for layer in layers) / trace["wall_s"]
    met = share > bound if op == ">" else share < bound
    print(f"traced wall_s {trace['wall_s']:.4f} s = layers {sum(busy.values()):.4f} s"
          f" + unattributed {trace['unattributed_s']:.4f} s")
    print(f"intended layers {'+'.join(layers)}: {share:.1%} "
          f"(predicted {op} {bound:.0%}: {'met' if met else 'NOT met'})")
    for layer in sorted(busy, key=lambda item: -busy[item]):
        if calls[layer]:
            print(f"  {layer:22s} {busy[layer]:9.4f} s {busy[layer] / trace['wall_s']:6.1%}"
                  f" {calls[layer]:9d} calls")
    print("hottest functions (self time):")
    for function, seconds in trace["hottest"].items():
        print(f"  {function:62s} {seconds:8.4f} s {seconds / trace['wall_s']:6.1%}")

    counters = traced["counters"]
    metrics = {}
    for layer in busy:
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    derived = {
        "machine.measure.us_per_event": (
            ratio(busy["machine.measure"] * 1e6, traced["measurements"]), "us"),
        "core.dramdig.attempts_per_run": (
            ratio(counters.get("dramdig_attempts", 0), counters.get("dramdig_runs", 0)),
            "ratio"),
        "fleet.confirm.confirmed_ratio": (
            ratio(counters.get("confirmed", 0), counters.get("confirm_attempts", 0)), "ratio"),
        "service.translation.hit_ratio": (
            ratio(counters.get("translation_hits", 0), counters.get("translation_lookups", 0)),
            "ratio"),
        "rowhammer.hammer.flips_per_sim_min": (
            ratio(counters.get("flips", 0), traced["sim_seconds"] / 60), "1/sim_min"),
        "unattributed_s": (trace["unattributed_s"], "s"),
        "trace_overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }
    for metric, (value, unit) in derived.items():
        print(f"  {metric:38s} {value:.6g} {unit}")
    metrics.update(derived)
    return passes, metrics, problems


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    if trace:
        passes, metrics, problems = per_layer(name, seed, deadline)
    else:
        passes, metrics, problems = end_to_end(name, seed, seconds, deadline)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    # One pass's ops: describe() has checked every pass did the same, and
    # a sum would grow with the number of passes that fit, i.e. host speed.
    return {
        "correct": not problems,
        "attempted": passes[0]["ops"],
        "failed": passes[0]["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def _terminate(signum, frame):
    # Turn SIGTERM into SystemExit so spawn()'s cleanup kills and reaps
    # the running worker instead of leaving it behind.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

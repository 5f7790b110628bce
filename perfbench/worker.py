"""One cold pass of one workload in a fresh interpreter.

Started and awaited by ``run.py``. Prints ``ready`` once imports and input
construction are done (the parent times interpreter start to that line as
set-up), runs a single pass of the workload (under the layer tracer with
``--trace``), and prints one JSON line describing the pass. With
``--setup-only`` it exits after ``ready``.

Exits 3, printing no result, if a child process, a parked worker pool or
a thread other than the main one is alive at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def lifecycle_problems() -> list[str]:
    from repro.parallel.pool import get_pool_manager

    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"{len(children)} child processes alive")
    parked = get_pool_manager().parked_count
    if parked:
        problems.append(f"{parked} worker pools parked")
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads alive: {', '.join(threads)}")
    return problems


def environment(seed: int) -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} machine={platform.machine()} seed={seed}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    from layers import LayerTracer
    from workloads import WORKLOADS, Census

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    census = Census()
    tracer = LayerTracer() if args.trace else None
    census.install()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        output = tracer.run(workload.run) if tracer is not None else workload.run()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        census.restore()
    # Ground-truth checks run here, after the timer and the tracer.
    census.score()
    summary = workload.summarize(output, census)

    record = {
        "environment": environment(args.seed),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **dataclasses.asdict(summary),
    }
    if tracer is not None:
        hottest = sorted(tracer.functions.items(), key=lambda item: -item[1])[:8]
        record["trace"] = {
            "busy": tracer.busy,
            "calls": tracer.calls,
            "hottest": dict(hottest),
            "unattributed_s": tracer.root_self,
            "wall_s": tracer.root_elapsed,
            "accounting_error_s": tracer.accounting_error(),
        }

    lifecycle = lifecycle_problems()
    for problem in lifecycle:
        print(f"lifecycle check failed: {problem}", file=sys.stderr)
    if lifecycle:
        return 3
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is built from the benchmark seed alone, runs one *pass*
per :meth:`Workload.run` call, and folds a pass's output into a
:class:`PassSummary`: the ops it attempted and missed,
the simulated events and seconds it cost, and a SHA-256 digest of its
artefact. An *op* is one tool run on one machine (``table1``,
``noisy-hostile``), one fleet machine (``fleet-adversarial``) or one
campaign test (``campaign``); a missing or wrong mapping is a failed op.

:class:`Census` observes a pass cheaply in traced and untraced passes
alike: it records every simulated machine's counters and clock and every
tool run's result next to the machine's ground truth. It wraps a handful
of constructors and ``run`` methods (a few hundred calls a pass), not
the hot paths the layer tracer times. The results are compared with
ground truth only in :meth:`Census.score`, after the timed pass, so the
checks cost the pass nothing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field

from repro.baselines.drama import DramaTool
from repro.baselines.xiao import XiaoTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.errors import ReproError
from repro.dram.mapping import AddressMapping
from repro.dram.presets import preset
from repro.dram.serialization import mapping_to_dict
from repro.evalsuite.table1 import render_table1, run_table1
from repro.faults.injector import FaultInjector
from repro.faults.profiles import get_profile
from repro.fleet.confirm import ConfirmConfig
from repro.fleet.orchestrator import FleetConfig, run_fleet
from repro.fleet.runner import FleetMachineResult
from repro.machine.machine import SimulatedMachine
from repro.parallel import GridPolicy
from repro.rowhammer.campaign import CampaignSpec, campaign_artifact, run_campaign
from repro.service.translation import TranslationService

# Presets of the noisy-hostile panel: DDR3 and DDR4, and No.7 needs a
# pipeline retry. The others are left out for pass length, so that a run
# holds several passes: under the hostile profile No.2, No.5, No.6 and
# No.9 need 0.4M-1.4M latency measurements each (75% of a nine-preset
# pass), on the same scalar measurement path.
NOISY_PANEL = ("No.1", "No.4", "No.7")
CAMPAIGN_MACHINES = ("No.1", "No.2")

_ERROR_CLASS = re.compile(r"failed: (\w+)")


def _error_class(detail: str) -> str:
    """Exception class named in a grid cell failure's detail line."""
    match = _ERROR_CLASS.search(detail)
    return match.group(1) if match else "unknown"


def _fields(mapping: AddressMapping) -> tuple:
    """What an :class:`AddressMapping` is built from, without the decode
    tables and compiled matrices it caches (tens of MB over a fleet)."""
    return (mapping.geometry, mapping.bank_functions, mapping.row_bits, mapping.column_bits)


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class ToolRun:
    """One observed tool run: which tool, what it recovered and the truth.

    ``recovered`` is the DRAMDig mapping's fields or the baseline's
    belief, None when the run raised or gave no belief; ``truth`` is the
    ground truth's fields. ``ok`` is set by :meth:`Census.score`.
    """

    tool: str
    recovered: object
    truth: object
    retries: int = 0
    ok: bool = False


class Census:
    """Observers for one pass; :meth:`install` then :meth:`restore`."""

    def __init__(self) -> None:
        # (stats, clock) of every machine built; not the machine itself,
        # which would keep its allocator and controller alive.
        self.meters: list[tuple] = []
        self.runs: list[ToolRun] = []
        self.services: list[TranslationService] = []
        self._patches: list[tuple[type, str, object]] = []

    def _observe(self, owner: type, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self) -> None:
        census = self

        def machine_init(original):
            def init(self, *args, **kwargs):
                original(self, *args, **kwargs)
                census.meters.append((self.stats, self.clock))

            return init

        def service_init(original):
            def init(self, *args, **kwargs):
                original(self, *args, **kwargs)
                census.services.append(self)

            return init

        def tool_run(tool, recovered_of):
            def make(original):
                def run(self, machine, *args, **kwargs):
                    try:
                        result = original(self, machine, *args, **kwargs)
                    except ReproError:
                        census.runs.append(ToolRun(tool, None, _fields(machine.ground_truth)))
                        raise
                    recovered, retries = recovered_of(result)
                    census.runs.append(
                        ToolRun(tool, recovered, _fields(machine.ground_truth), retries)
                    )
                    return result

                return run

            return make

        self._observe(SimulatedMachine, "__init__", machine_init)
        self._observe(TranslationService, "__init__", service_init)
        self._observe(DramDig, "run", tool_run("DRAMDig", lambda r: (_fields(r.mapping), r.retries)))
        self._observe(DramaTool, "run", tool_run("DRAMA", lambda r: (r.belief, 0)))
        self._observe(XiaoTool, "run", tool_run("Xiao", lambda r: (r.belief, 0)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def score(self) -> None:
        """Compare every recorded run with its machine's ground truth."""
        for run in self.runs:
            truth = AddressMapping(*run.truth)
            if run.recovered is None:
                run.ok = False
            elif run.tool == "DRAMDig":
                run.ok = AddressMapping(*run.recovered).equivalent_to(truth)
            else:
                run.ok = run.recovered.agrees_with(truth)

    # ------------------------------------------------------------ totals

    @property
    def measurements(self) -> int:
        return sum(stats.measurements for stats, _ in self.meters)

    @property
    def sim_seconds(self) -> float:
        return sum(clock.elapsed_seconds for _, clock in self.meters)

    def translation_lookups(self) -> tuple[int, int]:
        hits = sum(service.hits for service in self.services)
        return hits, hits + sum(service.misses for service in self.services)


@dataclass
class PassSummary:
    """What one pass did; all of it is simulated and exact for a seed."""

    ops: int
    failed: int
    events: int
    measurements: int
    sim_seconds: float
    digest: str
    checks: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def _tool_counters(census: Census) -> dict:
    dramdig = [run for run in census.runs if run.tool == "DRAMDig" and run.ok]
    hits, lookups = census.translation_lookups()
    tools: dict[str, list[int]] = {}
    for run in census.runs:
        tally = tools.setdefault(run.tool, [0, 0])
        tally[0] += run.ok
        tally[1] += 1
    return {
        "dramdig_runs": len(dramdig),
        "dramdig_attempts": sum(1 + run.retries for run in dramdig),
        "translation_hits": hits,
        "translation_lookups": lookups,
        "tools": " ".join(f"{tool} {ok}/{runs}" for tool, (ok, runs) in sorted(tools.items())),
    }


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self):
        raise NotImplementedError

    def summarize(self, output, census: Census) -> PassSummary:
        raise NotImplementedError


class Table1(Workload):
    """Table I panel: Xiao x9, DRAMA x27 and DRAMDig x27 on the 9 presets."""

    name = "table1"

    def run(self):
        return run_table1(seed=self.seed, jobs=1)

    def summarize(self, verdicts, census: Census) -> PassSummary:
        checks = []
        dramdig = next(v for v in verdicts if v.tool == "DRAMDig")
        solved = sum(1 for run in census.runs if run.tool == "DRAMDig" and run.ok)
        # Every DRAMDig run the verdict counts as solved must have
        # recovered the true mapping (3 determinism runs per machine).
        if solved < dramdig.successes * 3:
            checks.append(
                f"DRAMDig verdict claims {dramdig.successes} machines solved but "
                f"only {solved} runs matched ground truth"
            )
        ops = len(census.runs)
        return PassSummary(
            ops=ops,
            failed=sum(1 for run in census.runs if not run.ok),
            events=census.measurements,
            measurements=census.measurements,
            sim_seconds=census.sim_seconds,
            digest=digest(render_table1(verdicts)),
            checks=checks,
            counters=_tool_counters(census),
        )


class FleetAdversarial(Workload):
    """256 unseen random-mapping machines in 16 families, with imposters.

    The fleet itself is fixed at fleet seed 1: another fleet seed draws
    other random geometries, and their cost differs by up to 2.5x in time
    and 6x in memory. Fleet seed 1 loses 14 of its 256 machines to
    ``SelectionError``, the known baseline; the default fleet seed 0
    loses 11, but a pass takes 34 s and 1.5 GB, too long for a run to
    hold a median. The benchmark seed salts the confirmation campaigns'
    sampling instead; benchmark seed 0 is the default salt.
    """

    name = "fleet-adversarial"
    size = 256
    fleet_seed = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = FleetConfig(
            profile="adversarial", size=self.size, families=16, seed=self.fleet_seed,
            confirm=ConfirmConfig(seed_salt=ConfirmConfig().seed_salt + seed),
            supervision=GridPolicy(),
        )

    def run(self):
        return run_fleet(self.config)

    def summarize(self, outcome, census: Census) -> PassSummary:
        checks = []
        if len(outcome.machines) != self.size:
            checks.append(f"fleet returned {len(outcome.machines)} of {self.size} machines")
        results = [m for m in outcome.machines if isinstance(m, FleetMachineResult)]
        verdicts = [verdict for result in results for verdict in result.verdicts]
        counters = _tool_counters(census)
        # Known baseline: imposter ("mismatch") machines whose fallback
        # search raises SelectionError. Tallied by error class and kind.
        failure_kinds = Counter(
            f"{failure.cell.payload['spec']['kind']}:{_error_class(failure.detail)}"
            for failure in outcome.failures
        )
        counters.update(
            confirmed=sum(1 for result in results if result.outcome == "confirmed"),
            confirm_attempts=len(verdicts),
            failures=canonical_json(dict(sorted(failure_kinds.items()))),
        )
        return PassSummary(
            ops=len(outcome.machines),
            failed=len(outcome.machines) - sum(1 for result in results if result.correct),
            events=census.measurements,
            measurements=census.measurements,
            sim_seconds=census.sim_seconds,
            digest=digest(canonical_json(outcome.artifact())),
            checks=checks,
            counters=counters,
        )


class Campaign(Workload):
    """Every hammering variant x mitigation stack on No.1 and No.2.

    Tests last 10 simulated seconds (142 trials): a pass then takes about
    4 s, so a run holds several and its median rides out the host noise
    this memory-bound workload is most exposed to.
    """

    name = "campaign"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec = CampaignSpec(
            machines=CAMPAIGN_MACHINES, tests=1, duration_seconds=10, seed=seed
        )

    def run(self):
        return run_campaign(self.spec)

    def summarize(self, outcome, census: Census) -> PassSummary:
        checks = []
        completed = outcome.completed
        if len(outcome.results) != self.spec.cell_count:
            checks.append(f"{len(outcome.results)} results for {self.spec.cell_count} cells")
        trials = self.spec.hammer_trials_per_test()
        for result in completed:
            label = f"{result.machine}/{result.variant}/{result.mitigation}"
            if result.flips > result.raw_flips:
                checks.append(f"{label}: {result.flips} observable > {result.raw_flips} raw flips")
            if result.trials != trials:
                checks.append(f"{label}: {result.trials} trials, spec says {trials}")
        if outcome.total_trials != trials * len(completed):
            checks.append("campaign trial total disagrees with its tests")
        hits, lookups = census.translation_lookups()
        sim_seconds = sum(result.duration_seconds for result in completed)
        return PassSummary(
            ops=len(outcome.results),
            failed=len(outcome.failures),
            events=outcome.total_trials,
            measurements=census.measurements,
            sim_seconds=sim_seconds,
            digest=digest(canonical_json(campaign_artifact(outcome))),
            checks=checks,
            counters={
                "flips": outcome.total_flips,
                "raw_flips": sum(result.raw_flips for result in completed),
                "translation_hits": hits,
                "translation_lookups": lookups,
            },
        )


class NoisyHostile(Workload):
    """Resilient DRAMDig on presets under the ``hostile`` fault profile.

    The inputs do not depend on the benchmark seed. With a handful of
    runs a pass, every seeded input moves the cost more than the changes
    this workload exists to measure: on a five-preset panel, other
    machine and fault seeds changed the measurement count by 30%, and
    other DRAMDig tool seeds split it between about 26k and 33k a run,
    depending on retries.
    """

    name = "noisy-hostile"
    machine_seed = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.presets = [preset(name) for name in NOISY_PANEL]
        self.profile = get_profile("hostile")
        self.config = DramDigConfig.resilient()

    def run(self):
        mappings = []
        for machine_preset in self.presets:
            machine = SimulatedMachine.from_preset(
                machine_preset, seed=self.machine_seed,
                faults=FaultInjector(self.profile, seed=self.machine_seed),
            )
            try:
                mappings.append(mapping_to_dict(DramDig(self.config).run(machine).mapping))
            except ReproError as error:
                mappings.append({"error": type(error).__name__})
        return mappings

    def summarize(self, mappings, census: Census) -> PassSummary:
        checks = []
        if len(census.runs) != len(self.presets):
            checks.append(f"{len(census.runs)} DRAMDig runs for {len(self.presets)} machines")
        return PassSummary(
            ops=len(census.runs),
            failed=sum(1 for run in census.runs if not run.ok),
            events=census.measurements,
            measurements=census.measurements,
            sim_seconds=census.sim_seconds,
            digest=digest(canonical_json(mappings)),
            checks=checks,
            counters=_tool_counters(census),
        )


WORKLOADS = {cls.name: cls for cls in (Table1, FleetAdversarial, Campaign, NoisyHostile)}

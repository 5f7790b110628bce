"""Measurement-issue identity: campaign primitives ≡ a stepwise oracle.

The tools issue every measurement through two vectorized machine
primitives: ``measure_latency_sweeps`` (one base against a pool,
min over repeated sweeps) and ``measure_latency_pairs`` (many pairs,
min over each pair's back-to-back repeats). ``StepwiseMachine`` below
is the test oracle for both: it issues the same work one sweep, or one
scalar measurement, at a time. Every observable must agree between
identically-seeded twins — measured latencies, verdicts, the machine's
noise-RNG stream, simulated clock charge and measurement counters —
including under realistic noise, where any RNG-order slip would diverge
immediately. ``TestIssuePath`` pins the other half: the tools really do
issue through the campaign primitives, one call per scan.
"""

from collections import Counter

import numpy as np
import pytest

from repro.baselines.drama import DramaTool
from repro.baselines.xiao import XiaoTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.core.probe import LatencyProbe, ProbeConfig
from repro.dram.presets import preset
from repro.machine.machine import DEFAULT_ROUNDS, SimulatedMachine


class StepwiseMachine(SimulatedMachine):
    """Oracle: issues each campaign one sweep / one scalar pair at a time."""

    def measure_latency_sweeps(
        self, base, others, rounds=DEFAULT_ROUNDS, sweeps=1
    ):
        latencies = super().measure_latency_sweeps(base, others, rounds, sweeps=1)
        for _ in range(sweeps - 1):
            latencies = np.minimum(
                latencies,
                super().measure_latency_sweeps(base, others, rounds, sweeps=1),
            )
        return latencies

    def measure_latency_pairs(
        self, bases, partners, rounds=DEFAULT_ROUNDS, repeats=1
    ):
        return np.array(
            [
                min(self.measure_latency(int(a), int(b), rounds) for _ in range(repeats))
                for a, b in zip(bases, partners)
            ],
            dtype=np.float64,
        )


class CountingMachine(SimulatedMachine):
    """Counts calls to each public measurement primitive."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = Counter()
        self.sweep_args = []

    def measure_latency(self, *args, **kwargs):
        self.calls["measure_latency"] += 1
        return super().measure_latency(*args, **kwargs)

    def measure_latency_batch(self, *args, **kwargs):
        self.calls["measure_latency_batch"] += 1
        return super().measure_latency_batch(*args, **kwargs)

    def measure_latency_sweeps(self, base, others, rounds=DEFAULT_ROUNDS, sweeps=1):
        self.calls["measure_latency_sweeps"] += 1
        self.sweep_args.append((int(np.size(others)), sweeps))
        return super().measure_latency_sweeps(base, others, rounds, sweeps)

    def measure_latency_pairs(self, *args, **kwargs):
        self.calls["measure_latency_pairs"] += 1
        return super().measure_latency_pairs(*args, **kwargs)


MACHINE_CLASSES = (SimulatedMachine, StepwiseMachine)


def _twin_probes(machine_name="No.1", seed=3, machine_classes=MACHINE_CLASSES,
                 **config_kwargs):
    """Identically-seeded calibrated (machine, pages, probe) per class."""
    twins = []
    for machine_class in machine_classes:
        machine = machine_class.from_preset(preset(machine_name), seed=seed)
        config = ProbeConfig(rounds=100, calibration_pairs=768, **config_kwargs)
        probe = LatencyProbe(machine, config)
        pages = machine.allocate(int(machine.total_bytes * 0.85), "contiguous")
        probe.calibrate(pages, np.random.default_rng(0))
        twins.append((machine, pages, probe))
    return twins


def _assert_machines_identical(machine_a, machine_b):
    assert machine_a.clock.elapsed_ns == machine_b.clock.elapsed_ns
    assert machine_a.stats.measurements == machine_b.stats.measurements
    assert machine_a.stats.accesses_timed == machine_b.stats.accesses_timed


def _pairs(addresses):
    return [
        (int(addresses[i]), int(addresses[i + 1]))
        for i in range(0, len(addresses) - 1, 2)
    ]


class TestAreConflictsIdentity:
    def test_batched_equals_scalar_loop(self):
        (machine_b, pages_b, batched), (machine_s, _, stepwise) = _twin_probes()
        pairs = _pairs(pages_b.sample_addresses(64, np.random.default_rng(11)))
        assert batched.are_conflicts(pairs) == stepwise.are_conflicts(pairs)
        _assert_machines_identical(machine_b, machine_s)

    def test_small_campaigns_also_identical(self):
        # Below the batching crossover the probe falls back to the scalar
        # loop for speed; the verdicts and clock must not notice.
        (machine_b, pages_b, batched), (machine_s, _, stepwise) = _twin_probes(
            seed=5
        )
        pairs = _pairs(pages_b.sample_addresses(8, np.random.default_rng(2)))[:2]
        assert batched.are_conflicts(pairs) == stepwise.are_conflicts(pairs)
        _assert_machines_identical(machine_b, machine_s)

    def test_empty_campaign(self):
        (machine_b, _, batched), (machine_s, _, stepwise) = _twin_probes()
        assert batched.are_conflicts([]) == stepwise.are_conflicts([]) == []
        _assert_machines_identical(machine_b, machine_s)

    def test_drift_watch_forces_scalar_fallback(self):
        # With the adaptive drift watch armed the probe routes through the
        # scalar loop (the watch interleaves reference re-measurements
        # between verdicts) — still identical to the oracle.
        twins = _twin_probes(machine_name="No.3", seed=7, max_recalibrations=8)
        (machine_b, pages_b, batched), (machine_s, _, stepwise) = twins
        assert batched._watching_drift()
        pairs = _pairs(pages_b.sample_addresses(40, np.random.default_rng(4)))
        assert batched.are_conflicts(pairs) == stepwise.are_conflicts(pairs)
        _assert_machines_identical(machine_b, machine_s)


class TestConflictMaskIdentity:
    def test_batched_sweeps_equal_stepwise_batches(self):
        (machine_b, pages_b, batched), (machine_s, _, stepwise) = _twin_probes()
        others = pages_b.sample_addresses(512, np.random.default_rng(21))
        base = int(others[0])
        np.testing.assert_array_equal(
            batched.conflict_mask(base, others),
            stepwise.conflict_mask(base, others),
        )
        _assert_machines_identical(machine_b, machine_s)

    def test_identity_holds_under_drift_watch(self):
        twins = _twin_probes(machine_name="No.3", seed=13, max_recalibrations=8)
        (machine_b, pages_b, batched), (machine_s, _, stepwise) = twins
        others = pages_b.sample_addresses(256, np.random.default_rng(22))
        base = int(others[0])
        np.testing.assert_array_equal(
            batched.conflict_mask(base, others),
            stepwise.conflict_mask(base, others),
        )
        _assert_machines_identical(machine_b, machine_s)
        assert batched.drift_checks == stepwise.drift_checks


def _run_twins(machine_name, seed, run):
    """``run(machine)`` on identically-seeded plain and oracle machines."""
    outcomes = []
    for machine_class in MACHINE_CLASSES:
        machine = machine_class.from_preset(preset(machine_name), seed=seed)
        outcomes.append((run(machine), machine.clock.elapsed_ns))
    return outcomes


class TestWholeToolIdentity:
    @pytest.mark.parametrize("machine_name", ["No.1", "No.3"])
    def test_dramdig_batched_equals_stepwise(self, machine_name):
        """End-to-end: the recovered mapping, measurement count and
        simulated wall-clock are identical on the oracle machine."""

        def run(machine):
            result = DramDig().run(machine)
            return (
                tuple(sorted(result.mapping.bank_functions)),
                result.mapping.row_bits,
                result.mapping.column_bits,
                result.measurements,
                result.total_seconds,
            )

        plain, oracle = _run_twins(machine_name, 1, run)
        assert plain == oracle

    def test_resilient_config_identity(self):
        """The drift-watch fallback keeps the resilient (recovery-armed)
        configuration identical too."""

        def run(machine):
            result = DramDig(DramDigConfig.resilient()).run(machine)
            return (
                tuple(sorted(result.mapping.bank_functions)),
                result.measurements,
                result.total_seconds,
            )

        plain, oracle = _run_twins("No.3", 2, run)
        assert plain == oracle

    def test_drama_batched_equals_stepwise(self):
        """DRAMA's set scans (sweeps) and calibration/row scans (pairs)."""

        def run(machine):
            result = DramaTool(seed=4).run(machine)
            return result.belief, result.attempts, result.measurements

        plain, oracle = _run_twins("No.1", 1, run)
        assert plain[0][0] is not None
        assert plain == oracle

    def test_xiao_batched_equals_stepwise(self):
        """Xiao's min-of-repeats calibration and verification pairs."""

        def run(machine):
            result = XiaoTool().run(machine)
            return result.belief, result.measurements

        plain, oracle = _run_twins("No.1", 1, run)
        assert plain == oracle


class TestIssuePath:
    """Deterministic guard against silently falling back to stepwise
    issue: count the machine primitives one probe or scan calls."""

    def test_conflict_mask_is_one_sweep_call(self):
        ((machine, pages, probe),) = _twin_probes(machine_classes=(CountingMachine,))
        others = pages.sample_addresses(512, np.random.default_rng(21))
        machine.calls.clear()
        probe.conflict_mask(int(others[0]), others)
        assert machine.calls == Counter(measure_latency_sweeps=1)
        assert machine.sweep_args[-1] == (512, probe.config.repeats)

    def test_are_conflicts_is_one_pairs_call(self):
        ((machine, pages, probe),) = _twin_probes(machine_classes=(CountingMachine,))
        assert not probe._watching_drift()
        pairs = _pairs(pages.sample_addresses(12, np.random.default_rng(3)))
        assert len(pairs) == 6
        machine.calls.clear()
        probe.are_conflicts(pairs)
        assert machine.calls == Counter(measure_latency_pairs=1)

    def test_drama_set_scan_is_one_sweep_call(self):
        machine = CountingMachine.from_preset(preset("No.1"), seed=1)
        tool = DramaTool(seed=4)
        pages = machine.allocate(
            int(machine.total_bytes * tool.config.alloc_fraction),
            tool.config.alloc_strategy,
        )
        threshold = tool._calibrate(machine, pages)
        machine.calls.clear()
        before = machine.stats.measurements
        sets = tool._cluster_sets(machine, pages, threshold)
        assert sets
        scans = machine.calls["measure_latency_sweeps"]
        assert machine.calls == Counter(measure_latency_sweeps=scans)
        # One call per scan: every call carries all of its scan's repeats,
        # and together the calls account for every measurement taken.
        assert len(machine.sweep_args) == scans
        assert {sweeps for _, sweeps in machine.sweep_args} == {
            tool.config.cluster_repeats
        }
        assert machine.stats.measurements - before == sum(
            size * sweeps for size, sweeps in machine.sweep_args
        )

"""Unit tests for the SimulatedMachine facade and clock accounting."""

import numpy as np
import pytest

from repro.dram.presets import preset
from repro.machine.clock import MeasurementCost, SimClock
from repro.machine.machine import SimulatedMachine
from repro.memctrl.timing import NoiseParams


def quiet_machine(name="No.1", seed=0):
    return SimulatedMachine.from_preset(
        preset(name), seed=seed, noise=NoiseParams.noiseless()
    )


class TestClock:
    def test_charge_accumulates(self):
        clock = SimClock()
        clock.charge(5e9)
        clock.charge(1e9)
        assert clock.elapsed_seconds == pytest.approx(6.0)
        assert clock.elapsed_minutes == pytest.approx(0.1)
        assert clock.charges == 2

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1.0)

    def test_checkpoint_span(self):
        clock = SimClock()
        clock.charge(100.0)
        mark = clock.checkpoint()
        clock.charge(50.0)
        assert clock.since(mark) == pytest.approx(50.0)

    def test_measurement_cost_formula(self):
        cost = MeasurementCost(setup_ns=1000.0, per_round_ns=10.0)
        assert cost.measurement_ns(100, 200.0) == pytest.approx(1000 + 100 * 210.0)

    def test_measurement_cost_validation(self):
        with pytest.raises(ValueError):
            MeasurementCost().measurement_ns(0, 100.0)


class TestMeasurement:
    def test_conflict_pair_is_slow(self):
        machine = quiet_machine()
        mapping = machine.ground_truth
        base = 1 << 24
        conflict = mapping.encode(
            mapping.dram_address(base)._replace(row=mapping.row_of(base) ^ 1)
        )
        same_row = base + 64
        assert machine.measure_latency(base, conflict) > machine.measure_latency(
            base, same_row
        )

    def test_batch_matches_scalar_classification(self):
        machine = quiet_machine("No.4")
        rng = np.random.default_rng(0)
        others = rng.integers(0, machine.total_bytes, 256, dtype=np.uint64)
        base = int(others[0]) ^ (1 << 20)
        batch = machine.measure_latency_batch(base, others)
        for i in (0, 50, 128, 255):
            scalar = machine.measure_latency(base, int(others[i]))
            assert batch[i] == pytest.approx(scalar)

    def test_clock_charged_per_measurement(self):
        machine = quiet_machine()
        before = machine.clock.elapsed_ns
        machine.measure_latency(0, 1 << 20, rounds=100)
        elapsed = machine.clock.elapsed_ns - before
        # 100 rounds x 2 accesses x ~75-110ns each plus overheads.
        assert 10_000 < elapsed < 100_000

    def test_batch_charges_linear_in_size(self):
        machine = quiet_machine()
        rng = np.random.default_rng(1)
        others = rng.integers(0, machine.total_bytes, 1000, dtype=np.uint64)
        before = machine.clock.elapsed_ns
        machine.measure_latency_batch(0, others, rounds=100)
        small = machine.clock.elapsed_ns - before
        before = machine.clock.elapsed_ns
        machine.measure_latency_batch(0, np.tile(others, 2), rounds=100)
        large = machine.clock.elapsed_ns - before
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_stats_counters(self):
        machine = quiet_machine()
        machine.measure_latency(0, 4096, rounds=10)
        machine.measure_latency_batch(
            0, np.array([64, 128], dtype=np.uint64), rounds=10
        )
        assert machine.stats.measurements == 3
        assert machine.stats.accesses_timed == 2 * 10 * 3

    def test_invalid_rounds(self):
        """Every primitive rejects a non-positive count before it draws
        noise: the refused call leaves the RNG, clock and counters exactly
        as on an untouched, identically-seeded twin."""
        machine = SimulatedMachine.from_preset(preset("No.1"), seed=4)
        twin = SimulatedMachine.from_preset(preset("No.1"), seed=4)
        others = np.array([64, 4096, 1 << 20], dtype=np.uint64)
        rejected = [
            lambda: machine.measure_latency(0, 64, rounds=0),
            lambda: machine.measure_latency_batch(0, others, rounds=0),
            lambda: machine.measure_latency_sweeps(0, others, rounds=0),
            lambda: machine.measure_latency_sweeps(0, others, rounds=10, sweeps=0),
            lambda: machine.measure_latency_pairs(others, others ^ 64, rounds=0),
            lambda: machine.measure_latency_pairs(
                others, others ^ 64, rounds=10, repeats=0
            ),
        ]
        for call in rejected:
            with pytest.raises(ValueError, match="must be positive"):
                call()
            assert machine.measure_latency(0, 1 << 20, rounds=10) == (
                twin.measure_latency(0, 1 << 20, rounds=10)
            )
            assert machine.clock.elapsed_ns == twin.clock.elapsed_ns
            assert machine.stats.measurements == twin.stats.measurements
            assert machine.stats.accesses_timed == twin.stats.accesses_timed


class TestPairMeasurement:
    def test_pairs_bit_identical_to_scalar_loop(self):
        """measure_latency_pairs must reproduce a scalar measure_latency
        loop exactly — latencies, clock charge, and stats — on an
        identically-seeded machine (it replaced such loops in the
        baselines)."""
        rng = np.random.default_rng(3)
        bases = rng.integers(0, preset("No.1").mapping.geometry.total_bytes, 64, dtype=np.uint64)
        partners = rng.integers(0, preset("No.1").mapping.geometry.total_bytes, 64, dtype=np.uint64)

        noisy = SimulatedMachine.from_preset(preset("No.1"), seed=7)
        batch = noisy.measure_latency_pairs(bases, partners, rounds=50)

        reference = SimulatedMachine.from_preset(preset("No.1"), seed=7)
        scalar = np.array(
            [
                reference.measure_latency(int(a), int(b), rounds=50)
                for a, b in zip(bases, partners)
            ]
        )
        np.testing.assert_array_equal(batch, scalar)
        assert noisy.clock.elapsed_ns == reference.clock.elapsed_ns
        assert noisy.stats.measurements == reference.stats.measurements
        assert noisy.stats.accesses_timed == reference.stats.accesses_timed

    def test_repeats_equal_back_to_back_scalar_minimum(self):
        """``repeats`` measures each pair back to back and keeps the
        minimum, in a scalar loop's RNG order."""
        rng = np.random.default_rng(8)
        total = preset("No.1").mapping.geometry.total_bytes
        bases = rng.integers(0, total, 40, dtype=np.uint64)
        partners = rng.integers(0, total, 40, dtype=np.uint64)

        noisy = SimulatedMachine.from_preset(preset("No.1"), seed=7)
        batch = noisy.measure_latency_pairs(bases, partners, rounds=50, repeats=3)

        reference = SimulatedMachine.from_preset(preset("No.1"), seed=7)
        scalar = np.array(
            [
                min(reference.measure_latency(int(a), int(b), rounds=50) for _ in range(3))
                for a, b in zip(bases, partners)
            ]
        )
        np.testing.assert_array_equal(batch, scalar)
        assert noisy.clock.elapsed_ns == reference.clock.elapsed_ns
        assert noisy.stats.measurements == reference.stats.measurements == 120
        assert noisy.stats.accesses_timed == reference.stats.accesses_timed

    def test_shape_mismatch_rejected(self):
        machine = quiet_machine()
        with pytest.raises(ValueError, match="matching shapes"):
            machine.measure_latency_pairs(
                np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
            )


class TestSweepMeasurement:
    def test_sweeps_bit_identical_to_repeated_batches(self):
        """measure_latency_sweeps must reproduce N consecutive
        measure_latency_batch calls reduced with np.minimum exactly —
        latencies, clock charge and stats — on an identically-seeded
        machine (the probe's campaign path relies on it)."""
        rng = np.random.default_rng(5)
        total = preset("No.1").mapping.geometry.total_bytes
        others = rng.integers(0, total, 300, dtype=np.uint64)

        campaign = SimulatedMachine.from_preset(preset("No.1"), seed=9)
        swept = campaign.measure_latency_sweeps(0, others, rounds=50, sweeps=3)

        reference = SimulatedMachine.from_preset(preset("No.1"), seed=9)
        stepwise = reference.measure_latency_batch(0, others, rounds=50)
        for _ in range(2):
            stepwise = np.minimum(
                stepwise, reference.measure_latency_batch(0, others, rounds=50)
            )
        np.testing.assert_array_equal(swept, stepwise)
        assert campaign.clock.elapsed_ns == reference.clock.elapsed_ns
        assert campaign.stats.measurements == reference.stats.measurements
        assert campaign.stats.accesses_timed == reference.stats.accesses_timed

    def test_single_sweep_equals_batch(self):
        others = np.array([64, 4096, 8192], dtype=np.uint64)
        campaign = SimulatedMachine.from_preset(preset("No.1"), seed=9)
        reference = SimulatedMachine.from_preset(preset("No.1"), seed=9)
        np.testing.assert_array_equal(
            campaign.measure_latency_sweeps(0, others, rounds=25, sweeps=1),
            reference.measure_latency_batch(0, others, rounds=25),
        )

    def test_non_positive_sweeps_rejected(self):
        machine = quiet_machine()
        with pytest.raises(ValueError, match="sweeps must be positive"):
            machine.measure_latency_sweeps(
                0, np.array([64], dtype=np.uint64), rounds=10, sweeps=0
            )


class TestStatsAccounting:
    """Pin the counter semantics for every measurement path (the audit of
    the suspected ``measurements`` double-increment): ``measurements``
    counts pair measurements, ``accesses_timed`` counts individual timed
    accesses (2 per round per pair) — two counters, two units, each
    incremented exactly once per charge."""

    def test_scalar_path(self):
        machine = quiet_machine()
        machine.measure_latency(0, 4096, rounds=25)
        assert machine.stats.measurements == 1
        assert machine.stats.accesses_timed == 2 * 25

    def test_batch_path(self):
        machine = quiet_machine()
        machine.measure_latency_batch(
            0, np.array([64, 128, 192], dtype=np.uint64), rounds=25
        )
        assert machine.stats.measurements == 3
        assert machine.stats.accesses_timed == 2 * 25 * 3

    def test_pairs_path(self):
        machine = quiet_machine()
        machine.measure_latency_pairs(
            np.array([0, 64], dtype=np.uint64),
            np.array([4096, 8192], dtype=np.uint64),
            rounds=25,
        )
        assert machine.stats.measurements == 2
        assert machine.stats.accesses_timed == 2 * 25 * 2

    def test_paths_compose_without_double_counting(self):
        machine = quiet_machine()
        machine.measure_latency(0, 4096, rounds=10)  # 1 pair
        machine.measure_latency_batch(0, np.array([64], dtype=np.uint64), rounds=10)
        machine.measure_latency_pairs(
            np.array([0], dtype=np.uint64), np.array([128], dtype=np.uint64), rounds=10
        )
        assert machine.stats.measurements == 3
        assert machine.stats.accesses_timed == 2 * 10 * 3

    def test_scalar_and_batch_charge_identically(self):
        scalar_machine = quiet_machine(seed=1)
        batch_machine = quiet_machine(seed=1)
        scalar_machine.measure_latency(0, 4096, rounds=40)
        batch_machine.measure_latency_batch(
            0, np.array([4096], dtype=np.uint64), rounds=40
        )
        assert scalar_machine.clock.elapsed_ns == batch_machine.clock.elapsed_ns


class TestDeterminism:
    def test_same_seed_same_behaviour(self):
        machine_a = SimulatedMachine.from_preset(preset("No.1"), seed=42)
        machine_b = SimulatedMachine.from_preset(preset("No.1"), seed=42)
        rng = np.random.default_rng(2)
        others = rng.integers(0, machine_a.total_bytes, 64, dtype=np.uint64)
        np.testing.assert_array_equal(
            machine_a.measure_latency_batch(0, others),
            machine_b.measure_latency_batch(0, others),
        )

    def test_different_seed_different_noise(self):
        machine_a = SimulatedMachine.from_preset(preset("No.1"), seed=1)
        machine_b = SimulatedMachine.from_preset(preset("No.1"), seed=2)
        rng = np.random.default_rng(3)
        others = rng.integers(0, machine_a.total_bytes, 64, dtype=np.uint64)
        assert not np.array_equal(
            machine_a.measure_latency_batch(0, others),
            machine_b.measure_latency_batch(0, others),
        )


class TestFacade:
    def test_sysinfo_matches_geometry(self):
        machine = quiet_machine("No.6")
        info = machine.sysinfo()
        assert info.total_banks == 64
        assert info.total_bytes == machine.total_bytes

    def test_dmidecode_text_parses(self):
        from repro.machine.sysinfo import parse_dmidecode

        machine = quiet_machine("No.9")
        assert parse_dmidecode(machine.dmidecode_text()) == machine.sysinfo()

    def test_allocation_strategies(self):
        machine = quiet_machine()
        for strategy in ("contiguous", "fragmented", "sparse", "hugepages"):
            pages = machine.allocate(1 << 22, strategy)
            assert pages.byte_count >= 1 << 22
        assert machine.stats.allocations == 4

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown"):
            quiet_machine().allocate(4096, "magic")

    def test_charge_analysis(self):
        machine = quiet_machine()
        machine.charge_analysis(2e9)
        assert machine.elapsed_seconds == pytest.approx(2.0)

"""The simulated machine: what a reverse-engineering tool is allowed to see.

On real hardware a tool gets (1) memory it allocated, (2) a way to time a
pair of addresses, (3) system commands like dmidecode. Nothing else — it
must *not* read the memory controller's wiring. :class:`SimulatedMachine`
enforces the same contract: tools interact only through

* :meth:`allocate` / allocator variants — get physical pages,
* :meth:`measure_latency` / :meth:`measure_latency_sweeps` /
  :meth:`measure_latency_pairs` — the timing primitive (paper Section
  III-B), which charges the simulated clock,
* :meth:`sysinfo` / :meth:`dmidecode_text` — system information.

The ground-truth mapping lives in ``_controller`` (underscore = private by
convention); the test-suite and the evaluation harness use it to *verify*
recovered mappings, never to recover them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.mapping import AddressMapping
from repro.dram.presets import MachinePreset
from repro.machine.allocator import PageAllocator, PhysPages
from repro.machine.clock import MeasurementCost, SimClock
from repro.machine.sysinfo import SystemInfo, render_decode_dimms, render_dmidecode
from repro.memctrl.controller import MemoryController
from repro.memctrl.timing import AccessClass, LatencyModel, NoiseParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

__all__ = ["SimulatedMachine", "MachineStats"]

DEFAULT_ROUNDS = 1000


@dataclass
class MachineStats:
    """Counters a tool's run accumulates on a machine."""

    measurements: int = 0
    accesses_timed: int = 0
    allocations: int = 0


class SimulatedMachine:
    """A machine under reverse engineering.

    Construct from a preset (:meth:`from_preset`) or any ground-truth
    mapping. A ``seed`` controls all stochastic behaviour (noise, allocation
    placement); two machines with the same preset and seed behave
    identically, which is how the test-suite checks tool *determinism*
    separately from machine randomness.
    """

    def __init__(
        self,
        mapping: AddressMapping,
        seed: int = 0,
        noise: NoiseParams | None = None,
        measurement_cost: MeasurementCost | None = None,
        microarchitecture: str = "Unknown",
        faults: FaultInjector | None = None,
    ):
        self.microarchitecture = microarchitecture
        # Optional fault layer; it owns its own RNG stream, so attaching
        # one never perturbs the machine-noise or tool RNG sequences.
        self.faults = faults
        self._mapping = mapping
        self._controller = MemoryController(mapping=mapping)
        self._latency_model = LatencyModel.for_generation(
            mapping.geometry.generation,
            noise=noise,
        )
        self._allocator = PageAllocator(total_bytes=mapping.geometry.total_bytes)
        self._cost = measurement_cost if measurement_cost is not None else MeasurementCost()
        self.clock = SimClock()
        self.stats = MachineStats()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_preset(
        cls,
        preset: MachinePreset,
        seed: int = 0,
        noise: NoiseParams | None = None,
        faults: FaultInjector | None = None,
    ) -> "SimulatedMachine":
        """Build the simulated version of one of the paper's machines.

        The preset's own noise profile applies unless ``noise`` overrides it
        (No.3 and No.7 are noisier than the rest; see presets). ``faults``
        optionally layers a fault-injection profile on top.
        """
        return cls(
            mapping=preset.mapping,
            seed=seed,
            noise=noise if noise is not None else preset.noise_profile,
            microarchitecture=preset.microarchitecture,
            faults=faults,
        )

    # ------------------------------------------------------------- allocation

    @property
    def total_bytes(self) -> int:
        """Physical memory size (a tool may read this from /proc too)."""
        return self._mapping.geometry.total_bytes

    def allocate(self, request_bytes: int, strategy: str = "contiguous") -> PhysPages:
        """Allocate physical pages.

        Strategies: ``contiguous`` (boot-reserved buffer / 1 GiB hugepage),
        ``fragmented`` (default userspace buddy allocation), ``sparse``
        (loaded machine), ``hugepages`` (2 MiB THP).
        """
        if self.faults is not None:
            request_bytes = self.faults.on_allocate(
                request_bytes, self.stats.allocations
            )
        self.stats.allocations += 1
        rng = self._rng
        if strategy == "contiguous":
            return self._allocator.allocate_contiguous(request_bytes, rng)
        if strategy == "fragmented":
            return self._allocator.allocate_fragmented(request_bytes, rng)
        if strategy == "sparse":
            return self._allocator.allocate_sparse(request_bytes, rng)
        if strategy == "hugepages":
            return self._allocator.allocate_hugepages(request_bytes, rng)
        raise ValueError(f"unknown allocation strategy {strategy!r}")

    # ---------------------------------------------------------------- timing

    def measure_latency(self, addr_a: int, addr_b: int, rounds: int = DEFAULT_ROUNDS) -> float:
        """Median latency (ns) of an alternating access loop over a pair.

        This is the paper's timing primitive: flush both addresses from the
        cache, access them alternately ``rounds`` times, return the median
        per-access latency. Charges the simulated clock with the hardware
        cost of doing so.
        """
        # Every primitive validates before it draws noise, so a refused call
        # leaves the RNG, clock and counters untouched.
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        access_class = self._controller.classify_pair(addr_a, addr_b)
        is_conflict = access_class is AccessClass.ROW_CONFLICT
        latency = float(self._latency_model.sample_pair_ns(is_conflict, self._rng))
        if self.faults is not None:
            latency = self.faults.perturb_one(
                latency, is_conflict, addr_a, addr_b, self.clock.elapsed_ns
            )
        self._charge_one(latency, rounds)
        return latency

    def measure_latency_batch(
        self, base: int, others: np.ndarray, rounds: int = DEFAULT_ROUNDS
    ) -> np.ndarray:
        """One sweep of :meth:`measure_latency_sweeps`."""
        return self.measure_latency_sweeps(base, others, rounds)

    def measure_latency_sweeps(
        self,
        base: int,
        others: np.ndarray,
        rounds: int = DEFAULT_ROUNDS,
        sweeps: int = 1,
    ) -> np.ndarray:
        """Measure ``base`` against every address in ``others``, ``sweeps``
        times, and return the element-wise minimum — the repeat-and-take-
        the-minimum idiom every noise-suppressing scan uses.

        Each sweep is what a real tool does when it partitions an address
        pool: one translation + flush setup per pair, so costs are those of
        a scalar loop, just computed in bulk here for simulator speed.
        Classification is a pure decode with no RNG, so it is hoisted out
        of the sweep loop; noise draws, fault perturbations and clock
        charges proceed sweep by sweep.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if sweeps <= 0:
            raise ValueError("sweeps must be positive")
        others = np.asarray(others, dtype=np.uint64)
        conflicts = self._controller.classify_pairs(base, others)
        base_u64 = np.uint64(base)
        minimum: np.ndarray | None = None
        for _ in range(sweeps):
            latencies = self._latency_model.sample_batch_ns(conflicts, self._rng)
            if self.faults is not None:
                latencies = self.faults.perturb(
                    latencies, conflicts, base_u64, others, self.clock.elapsed_ns
                )
            self._charge_measurements(latencies, rounds)
            minimum = (
                latencies if minimum is None else np.minimum(minimum, latencies)
            )
        return minimum

    def measure_latency_pairs(
        self,
        bases: np.ndarray,
        partners: np.ndarray,
        rounds: int = DEFAULT_ROUNDS,
        repeats: int = 1,
    ) -> np.ndarray:
        """Min-of-``repeats`` latency of each ``(bases[i], partners[i])`` pair.

        Each pair is measured ``repeats`` times back to back (pair 0's
        repeats, then pair 1's, ...) and the minimum is kept. Classification
        is vectorized (one decode pass over each array); noise sampling and
        clock charging then proceed measurement by measurement in the order
        a scalar :meth:`measure_latency` loop would, so the returned
        latencies, the simulated-clock charge, and the stats counters are
        all bit-identical to that loop — it is purely a simulator-speed
        transformation.
        """
        bases = np.asarray(bases, dtype=np.uint64)
        partners = np.asarray(partners, dtype=np.uint64)
        if bases.shape != partners.shape:
            raise ValueError("bases and partners must have matching shapes")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if repeats <= 0:
            raise ValueError("repeats must be positive")
        if repeats > 1:
            bases = np.repeat(bases, repeats)
            partners = np.repeat(partners, repeats)
        conflicts = self._controller.classify_pairwise(bases, partners)
        count = int(bases.size)
        latencies = np.empty(bases.shape, dtype=np.float64)
        rng = self._rng
        faults = self.faults
        clock = self.clock
        # Hot loop: the per-pair RNG and clock order is pinned, so the only
        # legal speedups are hoists. The charge expression must stay exactly
        # _charge_one's — float addition order is observable in the clock.
        sample = self._latency_model.sample_pair_ns
        charge = clock.charge
        setup_ns = self._cost.setup_ns
        per_round_ns = self._cost.per_round_ns
        flags = conflicts.tolist()
        base_ints = bases.tolist() if faults is not None else None
        partner_ints = partners.tolist() if faults is not None else None
        for index in range(count):
            latency = float(sample(flags[index], rng))
            if faults is not None:
                latency = faults.perturb_one(
                    latency,
                    flags[index],
                    base_ints[index],
                    partner_ints[index],
                    clock.elapsed_ns,
                )
            charge(setup_ns + rounds * (per_round_ns + 2.0 * latency))
            latencies[index] = latency
        self.stats.measurements += count
        self.stats.accesses_timed += 2 * rounds * count
        if repeats > 1:
            latencies = latencies.reshape(-1, repeats).min(axis=1)
        return latencies

    def _charge_one(self, latency: float, rounds: int) -> None:
        """Scalar clock/stats charge — exactly one pair measurement.

        Matches :meth:`_charge_measurements` for a single-element batch,
        term for term (``count`` = 1), so scalar and batch paths account
        identically; pinned by ``tests/machine/test_machine.py``.
        """
        total = self._cost.setup_ns + rounds * (
            self._cost.per_round_ns + 2.0 * latency
        )
        self.clock.charge(total)
        self.stats.measurements += 1
        self.stats.accesses_timed += 2 * rounds

    def _charge_measurements(self, latencies: np.ndarray, rounds: int) -> None:
        # Accounting audit (two counters, two units — not a double count):
        # ``measurements`` counts pair measurements (one per latency summary
        # returned to the tool); ``accesses_timed`` counts individual timed
        # DRAM accesses (2 addresses x ``rounds`` alternations per pair).
        # Each increments exactly once per charge.
        count = latencies.size
        pair_sum = 2.0 * float(latencies.sum())  # both addresses accessed per round
        total = count * self._cost.setup_ns + rounds * (
            count * self._cost.per_round_ns + pair_sum
        )
        self.clock.charge(total)
        self.stats.measurements += count
        self.stats.accesses_timed += 2 * rounds * count

    def charge_analysis(self, duration_ns: float) -> None:
        """Charge non-measurement work (sorting pools, GF(2) solving). Tools
        call this so Figure 2 accounts CPU-side cost too."""
        self.clock.charge(duration_ns)

    # ------------------------------------------------------------ system info

    def sysinfo(self) -> SystemInfo:
        """Parsed system information (dmidecode/decode-dimms equivalent)."""
        return SystemInfo.from_geometry(self._mapping.geometry)

    def dmidecode_text(self) -> str:
        """Raw dmidecode-style text, for tools that parse it themselves."""
        return render_dmidecode(self._mapping.geometry)

    def decode_dimms_text(self) -> str:
        """Raw decode-dimms-style SPD text (the paper's other command)."""
        return render_decode_dimms(self._mapping.geometry)

    @property
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock seconds consumed so far."""
        return self.clock.elapsed_seconds

    # ----------------------------------------------------- ground-truth oracle

    @property
    def ground_truth(self) -> AddressMapping:
        """The true mapping — for *verification only*.

        Tools must not touch this; the evaluation harness uses it to score
        recovered mappings, and the rowhammer simulator uses it to find true
        row adjacency.
        """
        return self._mapping

    @property
    def latency_model(self) -> LatencyModel:
        """The latency model (exposed for probes to reason about scale)."""
        return self._latency_model

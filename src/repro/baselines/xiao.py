"""Xiao et al. baseline (USENIX Security 2016), reimplemented.

Xiao et al.'s tool is fast but *not generic* (paper Table I); DRAMDig's
authors ran the shared code and found it failed on machine settings No.2
and No.6-9, e.g. hanging on No.6 after resolving three two-bit functions
(Section IV-A). The reimplementation reproduces the method and therefore
the failure modes:

1. **Row scan** — same single-bit-flip timing scan as everyone else.
2. **Row-partner search** — for every *hidden* row bit ``r`` (a bit just
   below the detected row range that reads fast when flipped alone,
   because it also feeds a bank function), search for the single partner
   bit ``lo`` such that flipping ``{lo, r}`` reads slow. Each hit is a
   two-bit bank function. This is exactly where the tool gets stuck on
   machines whose hidden row bits feed *two* functions (bit 19 on No.6
   feeds (15,19) and the wide channel hash): no single partner restores
   the bank, every probe reads fast, and the search loops until its
   budget dies.
3. **Channel templates** — functions containing no row bit (the channel /
   rank hashes) cannot be found by row-partnering; the tool carries
   hard-coded templates for the platforms its authors owned: the
   single-bit channel select of dual-channel Sandy Bridge and the wide
   DDR3 dual-channel hash of their Haswell testbed. On anything else
   (Ivy Bridge dual-channel, every DDR4 part) the needed template is
   missing and the final self-verification never passes.
4. **Self-verification** — predict same-bank-different-row for random
   pairs from the assembled mapping and compare against measurements;
   below-threshold agreement means the tool keeps searching until its
   attempt budget is exhausted (:class:`ToolStuckError`, carrying the
   partial function list, as the paper describes).

The DDR3 geometry assumptions (8 banks per rank, spec row counts) are the
tool's own; on DDR4 they are simply wrong, which is the structural reason
for the No.6-9 failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bits import bit, bits_of_mask, format_mask
from repro.analysis.repair import kernel_repair
from repro.analysis.stats import calibrate_threshold
from repro.dram.belief import BeliefMapping
from repro.dram.errors import CalibrationError, ToolStuckError
from repro.machine.machine import SimulatedMachine

__all__ = ["XiaoConfig", "XiaoResult", "XiaoTool", "CHANNEL_TEMPLATES"]

# Hard-coded channel/rank-hash templates, keyed by (microarchitecture,
# channel count). These mirror the published mappings of the platforms the
# Xiao et al. paper evaluated on (Sandy Bridge desktops and the dual-channel
# DDR3 Haswell/Ivy-Bridge-EP cloud machines), which their tool carried as
# built-in knowledge.
CHANNEL_TEMPLATES: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {
    ("Sandy Bridge", 2): ((6,),),
    ("Haswell", 2): ((7, 8, 9, 12, 13, 18, 19),),
}


@dataclass(frozen=True)
class XiaoConfig:
    """Tool tuning.

    Attributes:
        rounds: accesses per measurement.
        measure_repeats: measurements per pair; the minimum is kept
            (refresh spikes only inflate latency).
        calibration_pairs: random pairs for threshold calibration; must be
            large enough that 64-bank machines still contribute a visible
            slow population (~1/#banks of the sample).
        alloc_fraction: buffer size as a fraction of memory.
        partner_search_low: lowest bit tried as a partner.
        verify_pairs: random pairs for the final self-verification.
        verify_agreement: required prediction/measurement agreement.
        stuck_budget_seconds: simulated time burned in the retry loop
            before the tool is declared stuck (it has no timeout of its
            own; the budget models the operator killing it).
    """

    rounds: int = 4000
    measure_repeats: int = 4
    calibration_pairs: int = 512
    alloc_fraction: float = 0.8
    partner_search_low: int = 6
    verify_pairs: int = 256
    verify_agreement: float = 0.97
    stuck_budget_seconds: float = 1800.0


@dataclass
class XiaoResult:
    """Outcome of a successful Xiao run."""

    belief: BeliefMapping
    seconds: float
    measurements: int


class XiaoTool:
    """Xiao et al.'s row-partner reverse-engineering method."""

    def __init__(self, config: XiaoConfig | None = None, seed: int = 7):
        self.config = config if config is not None else XiaoConfig()
        self._rng = np.random.default_rng(seed)

    def run(self, machine: SimulatedMachine) -> XiaoResult:
        """Run the tool; raises :class:`ToolStuckError` on its documented
        failure settings."""
        config = self.config
        clock = machine.clock
        start_ns = clock.checkpoint()
        pages = machine.allocate(
            int(machine.total_bytes * config.alloc_fraction), "contiguous"
        )
        machine.charge_analysis(pages.byte_count * 0.33)
        address_bits = machine.total_bytes.bit_length() - 1
        info = machine.sysinfo()

        threshold = self._calibrate(machine, pages)

        # Step 1: single-bit row scan.
        pure_rows = self._scan_rows(machine, pages, threshold, address_bits)
        if not pure_rows:
            raise ToolStuckError("no row bits detected; timing loop broken")

        # Step 2: channel/rank hash templates for the authors' platforms
        # (applied first so the partner search can compensate against them).
        functions: list[int] = []
        key = (machine.microarchitecture, info.channels)
        for template in CHANNEL_TEMPLATES.get(key, ()):
            mask = 0
            for position in template:
                mask |= bit(position)
            functions.append(mask)

        # Step 3: row-partner search for hidden row bits under the range.
        hidden_rows: list[int] = []
        cursor = min(pure_rows) - 1
        consecutive_failures = 0
        while cursor > config.partner_search_low and consecutive_failures < 3:
            partner = self._find_partner(machine, pages, threshold, cursor, functions)
            if partner is None:
                consecutive_failures += 1
            else:
                consecutive_failures = 0
                functions.append(bit(cursor) | bit(partner))
                hidden_rows.append(cursor)
            cursor -= 1

        row_bits = tuple(sorted(set(pure_rows) | set(hidden_rows)))
        column_bits = tuple(
            position
            for position in range(address_bits)
            if position not in row_bits
            and all(not bit(position) & f for f in functions)
        )
        belief = BeliefMapping(
            address_bits=address_bits,
            bank_functions=tuple(functions),
            row_bits=row_bits,
            column_bits=column_bits,
        )

        # Step 4: self-verification; loop (i.e. burn the budget) on failure.
        if not self._verify(machine, pages, threshold, belief):
            machine.charge_analysis(config.stuck_budget_seconds * 1e9)
            resolved = ", ".join(format_mask(f) for f in functions)
            raise ToolStuckError(
                f"stuck after resolving {resolved or 'no functions'} "
                f"(verification never converged)",
                partial_result=tuple(functions),
            )
        return XiaoResult(
            belief=belief,
            seconds=clock.since(start_ns) / 1e9,
            measurements=machine.stats.measurements,
        )

    # -------------------------------------------------------------- internals

    def _calibrate(self, machine, pages):
        """Reference-anchored calibration (same-page pairs are never
        row conflicts), as the original tool calibrated against known
        same-row accesses. Batched via measure_latency_pairs —
        bit-identical to the original per-pair loop."""
        config = self.config
        bases = pages.sample_addresses(64, self._rng)
        references = machine.measure_latency_pairs(
            bases, bases ^ np.uint64(0x80), config.rounds, config.measure_repeats
        )
        bases = pages.sample_addresses(config.calibration_pairs, self._rng)
        partners = pages.sample_addresses(config.calibration_pairs, self._rng)
        samples = machine.measure_latency_pairs(
            bases, partners, config.rounds, config.measure_repeats
        )
        try:
            return calibrate_threshold(references, samples)
        except ValueError as error:
            raise CalibrationError(str(error)) from error

    def _min_latency(self, machine, addr_a: int, addr_b: int) -> float:
        return min(
            machine.measure_latency(addr_a, addr_b, self.config.rounds)
            for _ in range(self.config.measure_repeats)
        )

    def _measure(self, machine, pages, threshold, mask: int) -> bool:
        """Min-of-two measurement of a pair differing by ``mask``."""
        samples = pages.sample_addresses(64, self._rng)
        partners = samples ^ np.uint64(mask)
        valid = (partners < pages.total_bytes) & pages.has_pages(partners)
        hits = np.flatnonzero(valid)
        if hits.size == 0:
            return False
        base = int(samples[hits[0]])
        return threshold.is_slow(self._min_latency(machine, base, base ^ mask))

    def _scan_rows(self, machine, pages, threshold, address_bits: int) -> tuple[int, ...]:
        return tuple(
            position
            for position in range(address_bits)
            if self._measure(machine, pages, threshold, bit(position))
        )

    def _find_partner(
        self, machine, pages, threshold, row_bit: int, known_functions: list[int]
    ) -> int | None:
        """Search the single low partner making {lo, row_bit} read slow.

        Each candidate probe is compensated against the *known* functions
        (the templates and previously found pairs) by XORing in their
        lowest non-row member bits — the tool's built-in knowledge of its
        platforms' channel hashes is what lets it handle row bits that feed
        two functions (bit 18/19 on the authors' Haswell machines). With no
        matching template the compensation is unsolvable and the probe
        always reads fast: the documented "stuck" behaviour.
        """
        for partner in range(self.config.partner_search_low, row_bit):
            candidate = bit(row_bit) | bit(partner)
            repair = self._compensate(candidate, known_functions, row_bit)
            if repair is None:
                continue
            if self._measure(machine, pages, threshold, candidate | repair):
                return partner
        return None

    def _compensate(
        self, candidate: int, known_functions: list[int], row_bit: int
    ) -> int | None:
        """Bits restoring every known function's parity, or None."""
        if not known_functions:
            return 0
        forbidden = set(bits_of_mask(candidate)) | {row_bit}
        available = sorted(
            {
                position
                for g in known_functions
                for position in bits_of_mask(g)
                if position not in forbidden and position < row_bit
            }
        )
        return kernel_repair(candidate, known_functions, available)

    def _verify(self, machine, pages, threshold, belief: BeliefMapping) -> bool:
        """Predict conflicts from the belief, compare with measurements."""
        config = self.config
        bases = pages.sample_addresses(config.verify_pairs, self._rng)
        partners = pages.sample_addresses(config.verify_pairs, self._rng)
        measured = threshold.classify(
            machine.measure_latency_pairs(
                bases, partners, config.rounds, config.measure_repeats
            )
        )
        agreements = 0
        for base, partner, is_slow in zip(bases, partners, measured):
            base, partner = int(base), int(partner)
            predicted = (
                belief.bank_of(base) == belief.bank_of(partner)
                and belief.row_of(base) != belief.row_of(partner)
            )
            agreements += predicted == bool(is_slow)
        return agreements / config.verify_pairs >= config.verify_agreement

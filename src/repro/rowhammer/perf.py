"""Campaign aggressor-planning bench: compiled batch vs scalar aiming.

The campaign fuzzer's hot loop is aggressor selection: every victim
needs a same-bank row ± 1 pair. The scalar path
(:meth:`~repro.dram.belief.BeliefMapping.aim_row_neighbor`) solves a
small GF(2) repair system per victim — the right model for an attacker
holding a possibly-wrong belief, and far too slow at campaign scale.
The compiled path (:class:`~repro.rowhammer.aggressors.CompiledAggressorPlanner`)
plans the whole victim batch with three matrix-parity kernels.

Before any timing is believed, both paths run over a shared sample and
must agree on every lane: same skip verdict (boundary rows *and*
victims outside the mapped address space), and — on plannable lanes —
the same believed (bank, row) for both aggressors. A speedup built on
different aim decisions would be worse than no number, so disagreement
raises. The perf gate (``scripts/check_perf_gate.py``) holds the
recorded speedup at ≥5× and the agreement flag at ``True``.

Also reported: one timed campaign trial through
:func:`~repro.rowhammer.campaign.campaign_trial_cell`, as the
end-to-end cost anchor for sizing sweeps (trials per wall second).
"""

from __future__ import annotations

import numpy as np

from repro.dram.belief import BeliefMapping
from repro.dram.presets import preset
from repro.parallel.perf import best_of
from repro.rowhammer.aggressors import CompiledAggressorPlanner

__all__ = ["campaign_benches"]

_PLAN_POOL = 200_000
_SCALAR_SAMPLE = 2_000
_AGREEMENT_SAMPLE = 4_096


def _check_agreement(mapping, belief, planner, victims: np.ndarray) -> None:
    """Both aim paths must agree lane for lane; raises on divergence."""
    compiled = mapping.compiled
    plan = planner.plan(victims)
    for index in range(victims.size):
        victim = int(victims[index])
        above = belief.aim_row_neighbor(victim, -1)
        below = belief.aim_row_neighbor(victim, +1)
        scalar_plans = above is not None and below is not None
        if scalar_plans != bool(plan.valid[index]):
            raise RuntimeError(
                f"aim disagreement at 0x{victim:x}: scalar "
                f"{'plans' if scalar_plans else 'skips'}, planner "
                f"{'plans' if plan.valid[index] else 'skips'}"
            )
        if not scalar_plans:
            continue
        for scalar_addr, batch_addr, delta in (
            (above, int(plan.above[index]), -1),
            (below, int(plan.below[index]), +1),
        ):
            scalar_dram = compiled.translate_one(scalar_addr)
            batch_dram = compiled.translate_one(batch_addr)
            if (scalar_dram.bank, scalar_dram.row) != (
                batch_dram.bank, batch_dram.row
            ):
                raise RuntimeError(
                    f"aggressor disagreement at 0x{victim:x} (row {delta:+d}): "
                    f"scalar bank/row ({scalar_dram.bank}, {scalar_dram.row}) "
                    f"vs planner ({batch_dram.bank}, {batch_dram.row})"
                )


def campaign_benches(machine_name: str = "No.2") -> dict:
    """Measure the campaign aggressor path; distil the BENCH section."""
    from repro.rowhammer.campaign import CampaignSpec, campaign_trial_cell

    machine_preset = preset(machine_name)
    mapping = machine_preset.mapping
    belief = BeliefMapping.from_mapping(mapping)
    planner = CompiledAggressorPlanner.from_mapping(mapping)
    rng = np.random.default_rng(0)
    # Victims over the full address space plus a deliberate out-of-space
    # tail: the agreement check must also pin the skip semantics the
    # scalar path applies beyond the mapped range.
    space = np.uint64(1 << mapping.geometry.address_bits)
    pool = rng.integers(0, space, _PLAN_POOL, dtype=np.uint64)
    agreement = pool[:_AGREEMENT_SAMPLE].copy()
    agreement[-16:] |= space
    _check_agreement(mapping, belief, planner, agreement)

    plan_seconds = best_of(lambda: planner.plan(pool))
    sample = pool[:_SCALAR_SAMPLE]

    def scalar_aim():
        for victim in sample:
            belief.aim_row_neighbor(int(victim), -1)
            belief.aim_row_neighbor(int(victim), +1)

    scalar_seconds = best_of(scalar_aim, repeats=3)
    planner_rate = _PLAN_POOL / plan_seconds
    scalar_rate = _SCALAR_SAMPLE / scalar_seconds

    spec = CampaignSpec(
        machines=(machine_name,), variants=("double_sided",),
        mitigations=("none",), tests=1, duration_seconds=30.0,
    )
    trial_seconds = best_of(
        lambda: campaign_trial_cell(
            "bench", machine_name, "double_sided", "none", 1, 0,
            spec.duration_seconds,
        ),
        repeats=3,
    )
    hammer_trials = spec.hammer_trials_per_test()

    return {
        "machine": machine_name,
        "plan_pool": _PLAN_POOL,
        "scalar_sample": _SCALAR_SAMPLE,
        "agreement_sample": _AGREEMENT_SAMPLE,
        "plan_seconds": plan_seconds,
        "planner_victims_per_s": planner_rate,
        "scalar_victims_per_s": scalar_rate,
        "planner_speedup_vs_scalar": planner_rate / scalar_rate,
        "aim_agreement": True,
        "trial_hammer_trials": hammer_trials,
        "trial_seconds": trial_seconds,
        "hammer_trials_per_s": hammer_trials / trial_seconds,
    }

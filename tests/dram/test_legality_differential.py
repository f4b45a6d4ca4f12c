"""Legality kernel vs the object-walking oracle, cycle for cycle.

``DramSystem.earliest_issue`` answers from the incremental
:class:`~repro.dram.legality.LegalityKernel` mirrors;
``DramSystem.earliest_issue_reference`` recombines the live bank, rank,
and channel objects on every query.  Both must return the identical
integer for every (kind, rank, bank) at every cycle of real runs, and
``earliest_by_mask`` must equal the min of the scalar answers it
summarizes.
"""

import random

import pytest

from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.legality import (
    MASK_ACT,
    MASK_PRE,
    MASK_READ,
    MASK_WRITE,
)
from repro.dram.timing import DDR2Timing
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile

KINDS = (
    CommandType.ACTIVATE,
    CommandType.PRECHARGE,
    CommandType.READ,
    CommandType.WRITE,
)
KIND_MASKS = {
    CommandType.ACTIVATE: MASK_ACT,
    CommandType.PRECHARGE: MASK_PRE,
    CommandType.READ: MASK_READ,
    CommandType.WRITE: MASK_WRITE,
}
FULL_MASK = MASK_ACT | MASK_PRE | MASK_READ | MASK_WRITE


def _assert_kernel_matches_reference(dram, where):
    """Every scalar query and every mask reduction match the oracle."""
    kernel = dram.kernel
    for rank in range(dram.num_ranks):
        for bank in range(dram.num_banks):
            flat = rank * dram.num_banks + bank
            per_kind = {}
            for kind in KINDS:
                got = dram.earliest_issue(kind, rank, bank)
                want = dram.earliest_issue_reference(kind, rank, bank)
                assert got == want, (
                    f"{where}: {kind.value} rank {rank} bank {bank}: "
                    f"kernel says {got}, reference says {want}"
                )
                # Sans-refresh scalar, for the mask cross-checks.
                per_kind[kind] = kernel.earliest_issue(kind, rank, bank)
            legal = [t for t in per_kind.values() if t is not None]
            by_mask = kernel.earliest_by_mask(flat, FULL_MASK)
            assert by_mask == (min(legal) if legal else None), (
                f"{where}: earliest_by_mask(rank {rank}, bank {bank}) "
                f"disagrees with the scalar min"
            )
            for kind, mask in KIND_MASKS.items():
                assert kernel.earliest_by_mask(flat, mask) == per_kind[kind]


def _instrument(system):
    """Verify the kernel against the oracle after every controller tick."""
    for controller in system.controllers:
        dram = controller.dram
        original = controller.tick

        def tick(now, _dram=dram, _original=original):
            completed = _original(now)
            _assert_kernel_matches_reference(_dram, f"cycle {now}")
            return completed

        controller.tick = tick


@pytest.mark.parametrize(
    "benchmarks, engine",
    [
        (("vpr", "art"), "cycle"),
        (("vpr", "art"), "event"),
        (("art", "vpr", "parser", "crafty"), "event"),
    ],
    ids=["pair-cycle", "pair-event", "quad-event"],
)
def test_checked_run_kernel_matches_oracle(benchmarks, engine):
    """Pair and quad runs, sanitizer attached, verified every stepped cycle."""
    config = SystemConfig(
        num_cores=len(benchmarks), policy="FQ-VFTF", seed=0, engine=engine
    )
    profiles = [profile(name) for name in benchmarks]
    system = CmpSystem(config, profiles, check=True)
    _instrument(system)
    system.run(6_000)
    stats = system.controllers[0].stats
    assert sum(stats.commands_issued.values()) > 0


def test_random_walk_multirank_with_refresh():
    """Seeded random legal-command walk over 2 ranks with frequent refresh.

    Full runs rarely reach multi-rank constraints (tRRD/tFAW windows on
    a second rank) or refresh blackouts inside a short test budget, so
    this drives them directly: each cycle the oracle enumerates every
    legal command, a seeded coin issues one (or lets a refresh start),
    and every query is re-verified.
    """
    timing = DDR2Timing(t_refi=1_200)
    dram = DramSystem(timing, num_ranks=2, num_banks=4)
    rng = random.Random(20060)
    open_rows = 8
    for now in range(4_000):
        draining = dram.refresh_due(now)
        if draining:
            dram.try_start_refresh(now)
        if not dram.in_refresh(now) and rng.random() < 0.7:
            legal = []
            for rank in range(dram.num_ranks):
                for bank in range(dram.num_banks):
                    for kind in KINDS:
                        if draining and kind is not CommandType.PRECHARGE:
                            # Refresh pending: close banks so it starts.
                            continue
                        earliest = dram.earliest_issue_reference(
                            kind, rank, bank
                        )
                        if earliest is not None and earliest <= now:
                            legal.append((kind, rank, bank))
            if legal:
                kind, rank, bank = rng.choice(legal)
                row = rng.randrange(open_rows)
                if kind is not CommandType.ACTIVATE:
                    row = dram.bank(rank, bank).open_row or 0
                dram.issue(kind, rank, bank, row, now)
        _assert_kernel_matches_reference(dram, f"walk cycle {now}")
    assert dram.refresh_count > 0, "walk never exercised a refresh"


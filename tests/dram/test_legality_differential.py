"""The legality kernel against its one oracle, the protocol sanitizer.

``DramSystem.earliest_issue`` answers from the
:class:`~repro.dram.legality.LegalityKernel` (plus the refresh fold);
:meth:`~repro.check.protocol.DramProtocolSanitizer.check` independently
says whether one command would be legal.  For every (kind, rank, bank)
the kernel's earliest cycle E must be the first cycle the sanitizer
accepts — ``check`` passes at E and raises at E − 1 — and when the
kernel says the bank state forbids the command, ``check`` must reject
it too.  ``earliest_by_mask`` must equal the min of the per-kind
answers it summarizes.

A Hypothesis property drives random legal command streams over random
valid timings (under Table 6 neither tRC nor tCCD ever binds) with idle
gaps that cross a short tREFI; three real checked runs compare against
the attached checker's sanitizer after every controller tick.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.protocol import DramProtocolSanitizer, ProtocolViolation
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

#: A cycle past every timing constraint, where only bank state can
#: make the sanitizer reject a command.
FAR = 10**9


def _rejects(sanitizer, kind, rank, bank, row, now):
    try:
        sanitizer.check(kind, rank, bank, row, now)
    except ProtocolViolation:
        return True
    return False


def _assert_kernel_matches_sanitizer(dram, sanitizer, where):
    """Every scalar answer, and every mask reduction, against the oracle."""
    kernel = dram.kernel
    for rank in range(dram.num_ranks):
        for bank in range(dram.num_banks):
            flat = rank * dram.num_banks + bank
            open_row = dram.bank(rank, bank).open_row
            row = 0 if open_row is None else open_row
            answers = []
            for kind in KINDS:
                earliest = dram.earliest_issue(kind, rank, bank)
                if earliest is None:
                    assert _rejects(sanitizer, kind, rank, bank, row, FAR), (
                        f"{where}: {kind.value} rank {rank} bank {bank}: "
                        f"kernel forbids it, sanitizer accepts"
                    )
                else:
                    assert not _rejects(sanitizer, kind, rank, bank, row, earliest), (
                        f"{where}: {kind.value} rank {rank} bank {bank}: "
                        f"sanitizer rejects the kernel's earliest {earliest}"
                    )
                    assert earliest == 0 or _rejects(
                        sanitizer, kind, rank, bank, row, earliest - 1
                    ), (
                        f"{where}: {kind.value} rank {rank} bank {bank}: "
                        f"sanitizer accepts {earliest - 1}, before the kernel's earliest"
                    )
                # Sans-refresh scalar, for the mask cross-checks.
                answer = kernel.earliest_issue(kind, rank, bank)
                assert kernel.earliest_by_mask(flat, KIND_MASKS[kind]) == answer
                if answer is not None:
                    answers.append(answer)
            assert kernel.earliest_by_mask(flat, FULL_MASK) == (
                min(answers) if answers else None
            ), f"{where}: earliest_by_mask(rank {rank}, bank {bank}) is not the min"


# -- random command streams ------------------------------------------------

small = st.integers(1, 12)


@st.composite
def timings(draw):
    """Any valid ``DDR2Timing``, with a refresh interval short enough to cross."""
    t_rcd = draw(small)
    t_ras = draw(st.integers(t_rcd, t_rcd + 12))
    t_rrd = draw(st.integers(1, t_ras))
    t_rfc = draw(st.integers(1, 40))
    return DDR2Timing(
        t_rcd=t_rcd,
        t_cl=draw(small),
        t_wl=draw(small),
        t_ccd=draw(st.integers(1, 24)),
        t_wtr=draw(small),
        t_wr=draw(small),
        t_rtp=draw(small),
        t_rp=draw(small),
        t_rrd=t_rrd,
        t_ras=t_ras,
        # Up to tRAS + 24: tRC binds whenever it exceeds tRAS + tRP.
        t_rc=draw(st.integers(t_ras, t_ras + 24)),
        t_faw=draw(st.integers(t_rrd, 4 * t_rrd + 12)),
        burst=draw(small),
        t_rfc=t_rfc,
        t_refi=draw(st.integers(t_rfc + 1, t_rfc + 150)),
    )


def _drain_slack(timing, num_flat_banks):
    """Longest a due refresh can wait for open rows to close.

    No command but a precharge issues once a refresh is due, so each
    open bank's precharge is at most one row's worth of timing away,
    the precharges serialize on the command bus, and the last needs
    tRP to complete.
    """
    t = timing
    row = max(t.t_ras, t.t_rtp, t.t_wl + t.burst + t.t_wr)
    return row + num_flat_banks + t.t_rp


@given(
    data=st.data(),
    timing=st.one_of(st.just(DDR2Timing(t_refi=900)), timings()),
    num_ranks=st.integers(1, 2),
    num_banks=st.integers(2, 8),
)
@settings(max_examples=300, deadline=None)
def test_random_walk_multirank_with_refresh(data, timing, num_ranks, num_banks):
    """Random legal command streams, refresh included, against the oracle.

    Each step either idles (a gap that may reach the next refresh, but
    never past it), issues a random legal command at or soon after its
    earliest cycle, or — once a refresh is due — precharges open banks
    and starts the refresh the moment every bank is idle, exactly as the
    controller's drain does.  The kernel is checked before every step.
    """
    dram = DramSystem(timing, num_ranks=num_ranks, num_banks=num_banks)
    sanitizer = DramProtocolSanitizer(
        timing,
        num_ranks=num_ranks,
        num_banks=num_banks,
        refresh_slack=_drain_slack(timing, num_ranks * num_banks),
    )
    now = 0
    for step in range(data.draw(st.integers(1, 40), label="steps")):
        _assert_kernel_matches_sanitizer(dram, sanitizer, f"step {step}")
        if dram.refresh_due(now):
            if dram.try_start_refresh(now):
                sanitizer.on_refresh(now)
                continue
            open_banks = [
                (rank, bank)
                for rank in range(num_ranks)
                for bank in range(num_banks)
                if dram.bank(rank, bank).open_row is not None
            ]
            if not open_banks:
                # Every row closed; wait out the last precharge.
                now = max(bank.precharge_done for bank in dram.banks)
                continue
            rank, bank = data.draw(st.sampled_from(open_banks), label="drain")
            at = max(now, dram.earliest_issue(CommandType.PRECHARGE, rank, bank))
            dram.issue(CommandType.PRECHARGE, rank, bank, 0, at)
            sanitizer.on_command(CommandType.PRECHARGE, rank, bank, 0, at)
            now = at
            continue
        due = dram.next_refresh_due
        if data.draw(st.integers(0, 4), label="move") == 0:
            now = min(now + data.draw(st.integers(1, 2 * timing.t_refi), label="gap"), due)
            continue
        options = []
        for rank in range(num_ranks):
            for bank in range(num_banks):
                for kind in KINDS:
                    earliest = dram.earliest_issue(kind, rank, bank)
                    if earliest is not None and max(earliest, now) < due:
                        options.append((kind, rank, bank, max(earliest, now)))
        if not options:
            now = due
            continue
        kind, rank, bank, at = data.draw(st.sampled_from(options), label="command")
        at = min(at + data.draw(st.integers(0, 3), label="delay"), due - 1)
        if kind is CommandType.ACTIVATE:
            row = data.draw(st.integers(0, 3), label="row")
        else:
            row = dram.bank(rank, bank).open_row
        dram.issue(kind, rank, bank, row, at)
        sanitizer.on_command(kind, rank, bank, row, at)
        now = at
    _assert_kernel_matches_sanitizer(dram, sanitizer, "end of stream")


# -- real runs ---------------------------------------------------------------


def _instrument(system):
    """Verify the kernel against the attached sanitizer after every tick.

    Both sides are functions of the command and refresh stream alone,
    so a tick that issued nothing and started no refresh leaves the
    previous verdict standing and is not re-verified.
    """
    for controller in system.controllers:
        dram = controller.dram
        sanitizer = controller.checker.protocol
        original = controller.tick
        seen = [-1]

        def tick(now, _dram=dram, _sanitizer=sanitizer, _original=original, _seen=seen):
            completed = _original(now)
            events = _sanitizer.commands_checked + _sanitizer.refreshes_checked
            if events != _seen[0]:
                _seen[0] = events
                _assert_kernel_matches_sanitizer(_dram, _sanitizer, f"cycle {now}")
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

"""BankScheduler.candidate against a brute-force first-ready reference.

``candidate`` collapses three queue shapes (closed bank, conflicts
only, all-hit reads) to the min-key request under one readiness probe,
runs one mixed-kind pass otherwise, and keys only each thread's oldest
request per command kind.  The reference below is the plain
first-ready definition with no shortcut: stamp every visible request's
VTMS estimates from the registers itself, probe every request and keep
the least ``(not ready, RAS penalty, key)`` tuple, the penalty dropped
under ``key_over_cas``.  Requests arrive in acceptance order, the order
in which the controller fixes FQ-VFTF-ARR's VFTs.  Hypothesis drives both
over random queues, bank states on both sides of the inversion bound,
the write-drain gate and the refresh drain, and every registered
policy (BLISS and MISE with non-trivial state); both must nominate the
same (kind, request, ready).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.address_map import AddressMap
from repro.controller.bank_scheduler import BankScheduler
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.vtms import VtmsState
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing
from repro.policy import PolicyContext, registered_names, resolve

TIMING = DDR2Timing()
AMAP = AddressMap()
NUM_THREADS = 4
BANK = 1
ROWS = (3, 7, 11)
ACTIVATE, PRECHARGE = CommandType.ACTIVATE, CommandType.PRECHARGE
READ, WRITE = CommandType.READ, CommandType.WRITE


def summary(cand):
    """What a nomination decides: (kind, request seq, ready)."""
    if cand is None:
        return None
    seq = None if cand.request is None else cand.request.seq
    return cand.kind, seq, cand.ready


def reference(scheduler, now, draining_for_refresh):
    """First-ready selection by definition: every request, every probe."""
    bank = scheduler._bank
    policy = scheduler.policy
    visible = [
        r for r in scheduler.queue if scheduler.writes_eligible or r.is_read
    ]
    if policy.uses_vtms and not policy.arrival_accounting:
        # Deferred accounting: Eqs 3 and 7 over the live registers and
        # the Table 3 service time of the bank's row state.
        for request in visible:
            thread = scheduler.vtms[request.thread_id]
            request.virtual_start_time = thread.start_time_estimate(BANK)
            request.virtual_finish_time = thread.finish_time_estimate(
                BANK, bank.state_service_time(request.row)
            )
    open_row = bank.open_row
    if not visible:
        if open_row is not None and (
            scheduler.row_policy == "closed" or draining_for_refresh
        ):
            return PRECHARGE, None, scheduler.dram.can_issue(PRECHARGE, 0, BANK, now)
        return None
    if draining_for_refresh and open_row is None:
        return None

    def kind_of(request):
        if open_row is None:
            return ACTIVATE
        if open_row == request.row:
            return READ if request.is_read else WRITE
        return PRECHARGE

    if (
        policy.fq_bank_rule
        and open_row is not None
        and now - bank.last_activate >= scheduler.inversion_bound
    ):
        chosen = min(visible, key=policy.request_key)
        kind = kind_of(chosen)
        return kind, chosen.seq, scheduler.dram.can_issue(kind, 0, BANK, now)
    best = best_sort = best_kind = None
    for request in visible:
        kind = kind_of(request)
        ready = scheduler.dram.can_issue(kind, scheduler.rank, scheduler.bank, now)
        key = policy.request_key(request)
        if policy.key_over_cas:
            sort = (not ready, key)
        else:
            sort = (not ready, not kind.is_cas, key)
        if best_sort is None or sort < best_sort:
            best, best_sort, best_kind = request, sort, kind
    return best_kind, best.seq, not best_sort[0]


def _issue_at_earliest(dram, draw, kind, row, after):
    """Issue ``kind`` at its earliest legal cycle ≥ ``after`` plus jitter."""
    at = max(after, dram.earliest_issue(kind, 0, BANK))
    at += draw(st.integers(0, 6))
    dram.issue(kind, 0, BANK, row, at)
    return at


@st.composite
def scenarios(draw, name):
    policy = resolve(name)(PolicyContext(num_threads=NUM_THREADS, timing=TIMING))
    dram = DramSystem(TIMING, enable_refresh=False)

    # Bank state: closed (fresh, or closed again after a row cycle) or
    # open, optionally after a CAS, so the per-kind readiness varies.
    last = draw(st.integers(0, 30))
    open_row = draw(st.sampled_from((None,) + ROWS))
    if draw(st.booleans()) or open_row is not None:
        row = open_row if open_row is not None else ROWS[0]
        last = _issue_at_earliest(dram, draw, ACTIVATE, row, last)
        if draw(st.booleans()):
            last = _issue_at_earliest(
                dram, draw, draw(st.sampled_from((READ, WRITE))), row, last
            )
        if open_row is None:
            last = _issue_at_earliest(dram, draw, PRECHARGE, row, last)
    # Straddle the inversion bound x = tRAS after the activate.
    now = last + draw(st.integers(0, 2 * TIMING.t_ras))

    vtms = None
    if policy.uses_vtms:
        shares = draw(
            st.lists(st.sampled_from((0.05, 0.1, 0.2, 0.25)),
                     min_size=NUM_THREADS, max_size=NUM_THREADS)
        )
        vtms = VtmsState(shares, dram.num_banks, TIMING)
        for _ in range(draw(st.integers(0, 6))):
            thread = draw(st.integers(0, NUM_THREADS - 1))
            kind = draw(st.sampled_from((ACTIVATE, PRECHARGE, READ, WRITE)))
            vtms[thread].on_command_issued(kind, BANK, float(draw(st.integers(0, now))))
    if hasattr(policy, "blacklisted"):  # BLISS
        for thread in range(NUM_THREADS):
            policy.blacklisted[thread] = draw(st.booleans())
            policy._last_served[thread] = draw(st.integers(0, 5))
    if hasattr(policy, "estimator"):  # MISE
        for _ in range(draw(st.integers(0, 8))):
            policy.estimator.observe(
                draw(st.integers(0, NUM_THREADS - 1)), draw(st.integers(1, 2_000))
            )
        policy.on_cycle(policy._next_epoch)

    scheduler = BankScheduler(
        0, BANK, dram, policy, vtms,
        inversion_bound=TIMING.t_ras,
        row_policy=draw(st.sampled_from(("closed", "open"))),
    )
    # Queue shape: rows all hit one row, mostly hit it, or spread; kinds
    # are all reads, all writes, or mixed.
    hit = ROWS[0] if open_row is None else open_row
    miss = ROWS[1] if hit == ROWS[0] else ROWS[0]
    rows = draw(st.sampled_from(((hit,), (hit, hit, hit, miss), ROWS)))
    kinds = draw(st.sampled_from((
        (RequestKind.READ,), (RequestKind.WRITE,),
        (RequestKind.READ, RequestKind.WRITE),
    )))
    for arrival in sorted(draw(st.lists(st.integers(0, now), max_size=8))):
        thread = draw(st.integers(0, NUM_THREADS - 1))
        request = MemoryRequest(
            thread_id=thread,
            kind=draw(st.sampled_from(kinds)),
            address=AMAP.encode(0, BANK, draw(st.sampled_from(rows)), 0),
            arrival_time=arrival,
        )
        request.rank, request.bank, request.row, request.column = AMAP.decode(
            request.address
        )
        request.virtual_arrival = float(arrival)
        if policy.arrival_accounting:
            request.virtual_finish_time = vtms[thread].on_request_arrival(
                BANK, float(arrival), TIMING.service_closed
            )
        scheduler.add(request)
    scheduler.writes_eligible = draw(st.booleans())
    return scheduler, now, draw(st.booleans())


@pytest.mark.parametrize("name", registered_names())
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_candidate_matches_first_ready_reference(name, data):
    scheduler, now, draining_for_refresh = data.draw(scenarios(name))
    got = summary(scheduler.candidate(now, draining_for_refresh))
    assert got == reference(scheduler, now, draining_for_refresh)

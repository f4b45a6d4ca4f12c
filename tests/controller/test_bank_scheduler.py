"""Bank scheduler: candidate selection, closed-page policy, FQ bank rule."""

import pytest

from repro.controller.address_map import AddressMap
from repro.controller.bank_scheduler import IDLE_BOUND, BankScheduler
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import FQ_VFTF, FR_FCFS, FR_VFTF
from repro.core.vtms import VtmsState
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing


@pytest.fixture
def timing():
    return DDR2Timing()


@pytest.fixture
def dram(timing):
    return DramSystem(timing, enable_refresh=False)


def make_scheduler(dram, policy=FR_FCFS, shares=(0.5, 0.5), bank=0):
    vtms = None
    if policy.uses_vtms:
        vtms = VtmsState(list(shares), dram.num_banks, dram.timing)
    return BankScheduler(0, bank, dram, policy, vtms,
                         inversion_bound=dram.timing.t_ras), vtms


def req(bank, row, thread=0, arrival=0, column=0, kind=RequestKind.READ):
    amap = AddressMap()
    request = MemoryRequest(
        thread_id=thread, kind=kind,
        address=amap.encode(0, bank, row, column), arrival_time=arrival,
    )
    request.rank, request.bank, request.row, request.column = amap.decode(
        request.address
    )
    request.virtual_arrival = float(arrival)
    return request


class TestCandidateGeneration:
    def test_empty_queue_no_candidate(self, dram):
        scheduler, _ = make_scheduler(dram)
        assert scheduler.candidate(0) is None

    def test_closed_bank_offers_activate(self, dram):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 5))
        cand = scheduler.candidate(0)
        assert cand.kind is CommandType.ACTIVATE
        assert cand.row == 5
        assert cand.ready

    def test_open_row_offers_cas(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        request = req(0, 5)
        scheduler.add(request)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_rcd)
        assert cand.kind is CommandType.READ
        assert cand.ready

    def test_write_request_offers_write(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 5, kind=RequestKind.WRITE))
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_rcd)
        assert cand.kind is CommandType.WRITE

    def test_conflicting_row_offers_precharge(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 9))
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_ras)
        assert cand.kind is CommandType.PRECHARGE

    def test_auto_precharge_when_queue_empty(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_ras)
        assert cand.kind is CommandType.PRECHARGE
        assert cand.request is None

    def test_not_ready_candidate_flagged(self, dram):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 5))
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(1)  # before t_rcd
        assert cand.kind is CommandType.READ
        assert not cand.ready


class TestFirstReadySelection:
    def test_ready_cas_beats_earlier_conflict(self, dram, timing):
        """Priority chaining: ready row hits win over older conflicts."""
        scheduler, _ = make_scheduler(dram, FR_FCFS)
        old_conflict = req(0, 9, arrival=0)
        newer_hit = req(0, 5, arrival=10)
        scheduler.add(old_conflict)
        scheduler.add(newer_hit)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_rcd)
        assert cand.request is newer_hit
        assert cand.kind is CommandType.READ

    def test_fcfs_tie_break_on_closed_bank(self, dram):
        scheduler, _ = make_scheduler(dram, FR_FCFS)
        late, early = req(0, 9, arrival=10), req(0, 5, arrival=2)
        scheduler.add(late)
        scheduler.add(early)
        cand = scheduler.candidate(0)
        assert cand.request is early


class TestGroupHeads:
    """The queue is age-ordered and only group heads are keyed."""

    def _spy(self, scheduler):
        keyed = []
        real = scheduler.key

        def spy(request):
            keyed.append(request)
            return real(request)

        scheduler.key = spy
        return keyed

    def test_add_keeps_arrival_seq_order(self, dram):
        scheduler, _ = make_scheduler(dram)
        late, early, tie = req(0, 9, arrival=10), req(0, 5, arrival=2), req(0, 7, arrival=10)
        tie.seq = late.seq - 1  # same arrival, older sequence number
        for request in (late, early, tie):
            scheduler.add(request)
        assert scheduler.queue == [early, tie, late]

    def test_closed_bank_keys_each_threads_oldest(self, dram):
        scheduler, _ = make_scheduler(dram, FQ_VFTF)
        t0 = [req(0, 5 + i, thread=0, arrival=i) for i in range(3)]
        t1 = req(0, 9, thread=1, arrival=1)
        for request in t0 + [t1]:
            scheduler.add(request)
        keyed = self._spy(scheduler)
        scheduler.candidate(0)
        assert keyed == [t0[0], t1]

    def test_mixed_queue_keys_each_thread_and_kinds_oldest(self, dram, timing):
        scheduler, _ = make_scheduler(dram, FR_FCFS)
        hits = [req(0, 5, thread=0, arrival=i, column=i) for i in range(2)]
        writes = [
            req(0, 5, thread=0, arrival=2 + i, column=4 + i, kind=RequestKind.WRITE)
            for i in range(2)
        ]
        conflicts = [req(0, 9, thread=1, arrival=i) for i in range(2)]
        for request in hits + writes + conflicts:
            scheduler.add(request)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        keyed = self._spy(scheduler)
        cand = scheduler.candidate(timing.t_ras)
        assert cand.request is hits[0]
        assert set(keyed) <= {hits[0], writes[0], conflicts[0]}


class TestFqBankRule:
    def _open_and_queue(self, dram, scheduler, vtms, timing):
        """Open row 5 for a thread-0 stream and queue a thread-1 conflict."""
        hits = [req(0, 5, thread=0, arrival=i, column=i) for i in range(3)]
        conflict = req(0, 9, thread=1, arrival=1)
        for r in hits:
            scheduler.add(r)
        scheduler.add(conflict)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        # Make thread 0 the heavy consumer so the conflict has the
        # earliest virtual finish-time.
        for _ in range(50):
            vtms[0].on_command_issued(CommandType.READ, 0, arrival=0.0)
        return hits, conflict

    def test_within_bound_first_ready_wins(self, dram, timing):
        scheduler, vtms = make_scheduler(dram, FQ_VFTF)
        hits, conflict = self._open_and_queue(dram, scheduler, vtms, timing)
        cand = scheduler.candidate(timing.t_rcd)  # t_rcd < t_ras
        assert cand.request in hits

    def test_after_bound_commits_to_earliest_vftf(self, dram, timing):
        scheduler, vtms = make_scheduler(dram, FQ_VFTF)
        hits, conflict = self._open_and_queue(dram, scheduler, vtms, timing)
        cand = scheduler.candidate(timing.t_ras)  # bound expired
        assert cand.request is conflict
        assert cand.kind is CommandType.PRECHARGE

    def test_fr_vftf_never_commits(self, dram, timing):
        scheduler, vtms = make_scheduler(dram, FR_VFTF)
        hits, conflict = self._open_and_queue(dram, scheduler, vtms, timing)
        cand = scheduler.candidate(10 * timing.t_ras)
        assert cand.request in hits  # ready CAS still wins: chaining


class TestChargeAccounting:
    def test_conflict_precharge_charged_to_row_owner(self, dram, timing):
        scheduler, vtms = make_scheduler(dram, FQ_VFTF)
        opener = req(0, 5, thread=0, arrival=0)
        scheduler.add(opener)
        act = scheduler.candidate(0)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        scheduler.on_issue(act, 0)
        read = scheduler.candidate(timing.t_rcd)
        dram.issue(CommandType.READ, 0, 0, 5, timing.t_rcd)
        scheduler.on_issue(read, timing.t_rcd)
        conflict = req(0, 9, thread=1, arrival=5)
        scheduler.add(conflict)
        cand = scheduler.candidate(timing.t_ras + timing.t_rp)
        assert cand.kind is CommandType.PRECHARGE
        assert cand.request is conflict
        assert cand.charge_thread == 0  # thread 0 opened the row

    def test_on_issue_removes_cas_request(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        request = req(0, 5)
        scheduler.add(request)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        cand = scheduler.candidate(timing.t_rcd)
        scheduler.on_issue(cand, timing.t_rcd)
        assert len(scheduler) == 0


class TestEarliestPossibleIssue:
    """The wake bound the channel scheduler caches after a fruitless scan."""

    def test_empty_and_closed_is_idle(self, dram):
        scheduler, _ = make_scheduler(dram)
        assert scheduler.cacheable_wake(0) == IDLE_BOUND

    def test_closed_with_request_is_immediate(self, dram):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 5))
        assert scheduler.poll_bound(0) == 0
        assert scheduler.cacheable_wake(0) == 1

    def test_open_row_hit_waits_for_trcd(self, dram, timing):
        scheduler, _ = make_scheduler(dram)
        scheduler.add(req(0, 5))
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 0)
        assert scheduler.cacheable_wake(1) == timing.t_rcd

    def test_requires_vtms_for_vtms_policy(self, dram):
        with pytest.raises(ValueError):
            BankScheduler(0, 0, dram, FR_VFTF, None, inversion_bound=0)

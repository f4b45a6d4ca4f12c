"""MemoryController end-to-end: scheduling, ordering, NACK, policies."""

import pytest

from repro.controller.address_map import AddressMap
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import get_policy
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing


@pytest.fixture
def timing():
    return DDR2Timing()


def make_controller(policy="FR-FCFS", num_threads=2, timing=None, refresh=False,
                    **kwargs):
    timing = timing or DDR2Timing()
    dram = DramSystem(timing, enable_refresh=refresh)
    amap = AddressMap()
    controller = MemoryController(
        dram, amap, num_threads, policy=get_policy(policy), **kwargs
    )
    return controller, dram, amap


def request_for(amap, bank, row, column=0, thread=0, kind=RequestKind.READ):
    address = amap.encode(0, bank, row, column)
    return MemoryRequest(thread_id=thread, kind=kind, address=address,
                         arrival_time=0)


def run_until_done(controller, requests, max_cycles=100_000):
    """Tick the controller until all ``requests`` complete."""
    now = 0
    while not all(r.done and r.completed_at < now for r in requests):
        controller.tick(now)
        now += 1
        if now > max_cycles:
            raise AssertionError("requests did not complete")
    return now


class TestSingleRead:
    def test_unloaded_latency_is_dram_access_time(self, timing):
        controller, dram, amap = make_controller()
        request = request_for(amap, bank=2, row=7)
        assert controller.try_enqueue(request)
        run_until_done(controller, [request])
        # ACT at cycle 0, RD at t_rcd, data at t_rcd + t_cl + burst.
        assert request.completed_at == timing.t_rcd + timing.t_cl + timing.burst

    def test_write_completes(self, timing):
        controller, dram, amap = make_controller()
        request = request_for(amap, bank=0, row=1, kind=RequestKind.WRITE)
        controller.try_enqueue(request)
        run_until_done(controller, [request])
        assert request.completed_at == timing.t_rcd + timing.t_wl + timing.burst

    def test_buffer_released_after_completion(self):
        controller, dram, amap = make_controller()
        request = request_for(amap, bank=0, row=1)
        controller.try_enqueue(request)
        run_until_done(controller, [request])
        assert controller.buffers.total_occupancy() == 0

    def test_read_latency_recorded(self, timing):
        controller, dram, amap = make_controller()
        request = request_for(amap, bank=0, row=1)
        controller.try_enqueue(request)
        run_until_done(controller, [request])
        assert controller.stats.mean_read_latency(0) == request.completed_at


class TestClosedPagePolicy:
    def test_row_precharged_after_last_access(self, timing):
        controller, dram, amap = make_controller()
        request = request_for(amap, bank=3, row=9)
        controller.try_enqueue(request)
        now = run_until_done(controller, [request])
        # Keep ticking past t_ras so the auto-precharge can issue.
        for extra in range(timing.t_ras + timing.t_rp + 10):
            controller.tick(now + extra)
        assert dram.bank(0, 3).open_row is None

    def test_row_stays_open_for_pending_hits(self, timing):
        controller, dram, amap = make_controller()
        first = request_for(amap, bank=3, row=9, column=0)
        second = request_for(amap, bank=3, row=9, column=1)
        controller.try_enqueue(first)
        controller.try_enqueue(second)
        run_until_done(controller, [first, second])
        # Second access is a row hit: exactly one activate total.
        assert dram.bank(0, 3).activate_count == 1


class TestFrFcfsOrdering:
    def test_same_bank_requests_served_in_arrival_order(self):
        controller, dram, amap = make_controller()
        first = request_for(amap, bank=0, row=1)
        second = request_for(amap, bank=0, row=2)
        controller.tick(0)
        controller.try_enqueue(first)
        controller.tick(1)
        controller.try_enqueue(second)
        run_until_done(controller, [first, second])
        assert first.cas_issued_at < second.cas_issued_at

    def test_row_hit_bypasses_earlier_conflict(self, timing):
        """First-ready: a later row hit is served before an earlier
        different-row request once the row is open (priority chaining)."""
        controller, dram, amap = make_controller()
        opener = request_for(amap, bank=0, row=1, column=0)
        controller.try_enqueue(opener)
        # Let the activate for row 1 issue.
        for now in range(timing.t_rcd + 1):
            controller.tick(now)
        conflicting = request_for(amap, bank=0, row=2)
        hit = request_for(amap, bank=0, row=1, column=1)
        conflicting.arrival_time = timing.t_rcd + 1
        hit.arrival_time = timing.t_rcd + 2
        controller.now = timing.t_rcd + 1
        controller.try_enqueue(conflicting)
        controller.now = timing.t_rcd + 2
        controller.try_enqueue(hit)
        start = timing.t_rcd + 3
        now = start
        while not (conflicting.done and hit.done):
            controller.tick(now)
            now += 1
            assert now < 10_000
        assert hit.cas_issued_at < conflicting.cas_issued_at


class TestNack:
    def test_nack_when_partition_full(self):
        controller, dram, amap = make_controller(read_entries_per_thread=2)
        a = request_for(amap, bank=0, row=1)
        b = request_for(amap, bank=1, row=1)
        c = request_for(amap, bank=2, row=1)
        assert controller.try_enqueue(a)
        assert controller.try_enqueue(b)
        assert not controller.try_enqueue(c)
        assert controller.stats.requests_nacked[0] == 1

    def test_other_thread_unaffected(self):
        controller, dram, amap = make_controller(read_entries_per_thread=1)
        assert controller.try_enqueue(request_for(amap, bank=0, row=1, thread=0))
        assert not controller.try_enqueue(request_for(amap, bank=1, row=1, thread=0))
        assert controller.try_enqueue(request_for(amap, bank=2, row=1, thread=1))


class TestVtmsIntegration:
    def test_registers_updated_on_issue(self):
        controller, dram, amap = make_controller(policy="FQ-VFTF")
        request = request_for(amap, bank=4, row=2, thread=1)
        controller.try_enqueue(request)
        run_until_done(controller, [request])
        vtms = controller.vtms
        assert vtms[1].bank_finish[4] > 0
        assert vtms[1].channel_finish > 0
        # Thread 0 issued nothing; its registers are untouched.
        assert vtms[0].channel_finish == 0.0

    def test_fr_fcfs_has_no_vtms(self):
        controller, _, _ = make_controller(policy="FR-FCFS")
        assert controller.vtms is None

    def test_inversion_bound_defaults_to_tras(self, timing):
        controller, _, _ = make_controller(policy="FQ-VFTF")
        assert all(
            s.inversion_bound == timing.t_ras for s in controller.bank_schedulers
        )


class TestQosIsolation:
    """The FQ scheduler serves a meek thread's request sooner than
    FR-FCFS does when an aggressive thread floods the same bank."""

    def _flood_then_single(self, policy):
        controller, dram, amap = make_controller(
            policy=policy, read_entries_per_thread=16
        )
        flood = [
            request_for(amap, bank=0, row=1, column=c, thread=0)
            for c in range(12)
        ]
        for request in flood:
            assert controller.try_enqueue(request)
        victim = request_for(amap, bank=0, row=5, thread=1)
        victim.arrival_time = 1
        controller.tick(0)
        controller.now = 1
        assert controller.try_enqueue(victim)
        now = 1
        while not victim.done:
            controller.tick(now)
            now += 1
            assert now < 100_000
        return victim.completed_at

    def test_fq_serves_victim_sooner_than_fr_fcfs(self):
        fr = self._flood_then_single("FR-FCFS")
        fq = self._flood_then_single("FQ-VFTF")
        assert fq < fr


class TestRefreshIntegration:
    def test_refresh_starts_and_clock_pauses(self, timing):
        fast = DDR2Timing(t_refi=2_000)
        controller, dram, amap = make_controller(
            policy="FQ-VFTF", timing=fast, refresh=True
        )
        for now in range(3_000):
            controller.tick(now)
        assert dram.refresh_count == 1
        # The FQ real clock excludes refresh cycles (t_rfc each).
        assert controller.vtms.clock == 3_000 - fast.t_rfc

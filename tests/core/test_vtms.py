"""VTMS register file: Equations 3–9 and Table 3/4 service times."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import CommandType
from repro.dram.timing import DDR2Timing
from repro.core.vtms import ThreadVtms, VtmsState


@pytest.fixture
def timing():
    return DDR2Timing()


def make_thread(share=0.5, banks=8, timing=None):
    return ThreadVtms(0, share, banks, timing or DDR2Timing())


class TestConstruction:
    def test_registers_start_at_zero(self, timing):
        thread = make_thread(timing=timing)
        assert thread.bank_finish == [0.0] * 8
        assert thread.channel_finish == 0.0
        assert thread.oldest_arrival == 0.0

    @pytest.mark.parametrize("share", [0.0, -0.5, 1.5])
    def test_rejects_bad_share(self, share, timing):
        with pytest.raises(ValueError):
            ThreadVtms(0, share, 8, timing)

    def test_full_share_allowed(self, timing):
        assert ThreadVtms(0, 1.0, 8, timing).share == 1.0


class TestEquation7FinishTimeEstimate:
    """C.F = max(max(Ra, B_j.R) + B.L/φ, C.R) + C.L/φ."""

    def test_idle_thread_from_arrival(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.oldest_arrival = 100.0
        service = timing.service_closed
        expected = 100.0 + service / 0.5 + timing.burst / 0.5
        assert thread.finish_time_estimate(0, service) == pytest.approx(expected)

    def test_bank_register_dominates_arrival(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.oldest_arrival = 100.0
        thread.bank_finish[3] = 500.0
        service = timing.service_row_hit
        expected = 500.0 + service / 0.5 + timing.burst / 0.5
        assert thread.finish_time_estimate(3, service) == pytest.approx(expected)

    def test_channel_register_dominates_bank_finish(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.oldest_arrival = 0.0
        thread.channel_finish = 10_000.0
        service = timing.service_row_hit
        expected = 10_000.0 + timing.burst / 0.5
        assert thread.finish_time_estimate(0, service) == pytest.approx(expected)

    def test_smaller_share_means_later_finish(self, timing):
        small = make_thread(share=0.25, timing=timing)
        large = make_thread(share=0.75, timing=timing)
        for t in (small, large):
            t.oldest_arrival = 50.0
        service = timing.service_closed
        assert small.finish_time_estimate(0, service) > large.finish_time_estimate(
            0, service
        )

    def test_bank_state_changes_estimate_per_table3(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        hit = thread.finish_time_estimate(0, timing.service_row_hit)
        closed = thread.finish_time_estimate(0, timing.service_closed)
        conflict = thread.finish_time_estimate(0, timing.service_conflict)
        assert hit < closed < conflict


class TestEquations8And9Updates:
    """Register updates as commands issue, with Table 4 service times."""

    def test_activate_updates_bank_only(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.ACTIVATE, 2, arrival=100.0)
        assert thread.bank_finish[2] == pytest.approx(100.0 + timing.t_rcd / 0.5)
        assert thread.channel_finish == 0.0

    def test_read_updates_bank_then_channel(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.READ, 2, arrival=100.0)
        bank_after = 100.0 + timing.t_cl / 0.5
        assert thread.bank_finish[2] == pytest.approx(bank_after)
        assert thread.channel_finish == pytest.approx(bank_after + timing.burst / 0.5)

    def test_write_uses_twl(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.WRITE, 0, arrival=0.0)
        assert thread.bank_finish[0] == pytest.approx(timing.t_wl / 0.5)

    def test_precharge_uses_table4_service(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.PRECHARGE, 5, arrival=0.0)
        assert thread.bank_finish[5] == pytest.approx(timing.update_precharge / 0.5)
        assert thread.channel_finish == 0.0

    def test_bank_register_max_of_arrival_and_previous(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.ACTIVATE, 0, arrival=0.0)
        first = thread.bank_finish[0]
        # Later arrival beyond the register restarts from the arrival.
        thread.on_command_issued(CommandType.ACTIVATE, 0, arrival=first + 1000)
        assert thread.bank_finish[0] == pytest.approx(
            first + 1000 + timing.t_rcd / 0.5
        )

    def test_full_read_transaction_accounts_bank_occupancy(self, timing):
        # ACT + RD + PRE together charge t_ras + t_rp of bank service
        # (Table 4's invariant), scaled by 1/φ.
        thread = make_thread(share=0.5, timing=timing)
        thread.on_command_issued(CommandType.ACTIVATE, 0, arrival=0.0)
        thread.on_command_issued(CommandType.READ, 0, arrival=0.0)
        thread.on_command_issued(CommandType.PRECHARGE, 0, arrival=0.0)
        assert thread.bank_finish[0] == pytest.approx(
            (timing.t_ras + timing.t_rp) / 0.5
        )


class TestStartTimeEstimate:
    """Equation 3: B.S = max(Ra, B_j.R) — the FQ-VSTF ordering basis."""

    def test_idle_thread_starts_at_arrival(self, timing):
        thread = make_thread(timing=timing)
        thread.oldest_arrival = 70.0
        assert thread.start_time_estimate(0) == 70.0

    def test_busy_bank_dominates(self, timing):
        thread = make_thread(timing=timing)
        thread.oldest_arrival = 70.0
        thread.bank_finish[3] = 500.0
        assert thread.start_time_estimate(3) == 500.0
        assert thread.start_time_estimate(0) == 70.0

    def test_start_precedes_finish(self, timing):
        thread = make_thread(timing=timing)
        thread.oldest_arrival = 70.0
        start = thread.start_time_estimate(0)
        finish = thread.finish_time_estimate(0, timing.service_row_hit)
        assert start < finish


class TestArrivalAccounting:
    """Paper §3.2 solution 1: finish-times fixed at arrival."""

    def test_arrival_updates_registers_immediately(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        finish = thread.on_request_arrival(2, arrival=100.0, assumed_service=100)
        expected_bank = 100.0 + 100 / 0.5
        assert thread.bank_finish[2] == pytest.approx(expected_bank)
        assert finish == pytest.approx(expected_bank + timing.burst / 0.5)
        assert thread.channel_finish == pytest.approx(finish)

    def test_back_to_back_arrivals_accumulate(self, timing):
        thread = make_thread(share=0.5, timing=timing)
        first = thread.on_request_arrival(0, 0.0, 100)
        second = thread.on_request_arrival(0, 0.0, 100)
        assert second > first

    def test_matches_deferred_when_service_equals_assumption(self, timing):
        # For a closed-bank access the deferred estimate and the
        # arrival-time computation agree.
        deferred = make_thread(share=0.5, timing=timing)
        deferred.oldest_arrival = 40.0
        estimate = deferred.finish_time_estimate(0, timing.service_closed)
        arrival = make_thread(share=0.5, timing=timing)
        fixed = arrival.on_request_arrival(0, 40.0, timing.service_closed)
        assert fixed == pytest.approx(estimate)


class TestVtmsState:
    def test_rejects_oversubscribed_shares(self, timing):
        with pytest.raises(ValueError):
            VtmsState([0.6, 0.6], 8, timing)

    def test_equal_shares_accepted(self, timing):
        state = VtmsState([0.25] * 4, 8, timing)
        assert len(state) == 4

    def test_clock_pauses_during_refresh(self, timing):
        state = VtmsState([0.5, 0.5], 8, timing)
        state.tick()
        state.tick(in_refresh=True)
        state.tick()
        assert state.clock == 2.0

    def test_oldest_arrival_parks_at_clock_when_idle(self, timing):
        state = VtmsState([1.0], 8, timing)
        for _ in range(100):
            state.tick()
        state.set_oldest_arrival(0, None)
        assert state[0].oldest_arrival == 100.0

    def test_oldest_arrival_tracks_pending(self, timing):
        state = VtmsState([1.0], 8, timing)
        state.set_oldest_arrival(0, 42.0)
        assert state[0].oldest_arrival == 42.0

    def test_epoch_bumps_on_update(self, timing):
        state = VtmsState([0.5, 0.5], 8, timing)
        before = state.global_epoch
        state[0].on_command_issued(CommandType.READ, 0, arrival=0.0)
        assert state.global_epoch > before

    def test_epoch_stable_when_arrival_unchanged(self, timing):
        state = VtmsState([1.0], 8, timing)
        state.set_oldest_arrival(0, 42.0)
        before = state.global_epoch
        state.set_oldest_arrival(0, 42.0)
        assert state.global_epoch == before


class TestVirtualTimeScalingProperties:
    @given(
        share=st.floats(min_value=0.05, max_value=1.0),
        service=st.integers(min_value=1, max_value=1000),
        arrival=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_finish_after_arrival(self, share, service, arrival):
        thread = make_thread(share=share)
        thread.oldest_arrival = arrival
        assert thread.finish_time_estimate(0, service) > arrival

    @given(
        share=st.floats(min_value=0.05, max_value=1.0),
        commands=st.lists(
            st.sampled_from(
                [CommandType.ACTIVATE, CommandType.READ,
                 CommandType.WRITE, CommandType.PRECHARGE]
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_registers_monotonically_nondecreasing(self, share, commands):
        thread = make_thread(share=share)
        prev_bank, prev_channel = list(thread.bank_finish), thread.channel_finish
        for command in commands:
            thread.on_command_issued(command, 0, arrival=0.0)
            assert thread.bank_finish[0] >= prev_bank[0]
            assert thread.channel_finish >= prev_channel
            prev_bank, prev_channel = list(thread.bank_finish), thread.channel_finish

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_half_share_doubles_virtual_service(self, data):
        service = data.draw(st.integers(min_value=1, max_value=500))
        full = make_thread(share=1.0)
        half = make_thread(share=0.5)
        full_cost = full.finish_time_estimate(0, service)
        half_cost = half.finish_time_estimate(0, service)
        assert half_cost == pytest.approx(2 * full_cost)

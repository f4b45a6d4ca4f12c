"""MISE slowdown estimation: estimator ledgers, epoch snapshots, keys."""

import pytest

from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.timing import DDR2Timing
from repro.policy.slowdown import SlowdownEstimator, SlowdownPolicy

TIMING = DDR2Timing()
ALONE = TIMING.t_rcd + TIMING.t_cl + TIMING.burst


def _request(thread, arrival=0):
    return MemoryRequest(
        thread_id=thread,
        kind=RequestKind.READ,
        address=thread << 34,
        arrival_time=arrival,
    )


class TestEstimator:
    def test_no_completions_reports_unit_slowdown(self):
        estimator = SlowdownEstimator(2, ALONE)
        assert estimator.slowdowns() == [1.0, 1.0]

    def test_slowdown_is_monotone_in_waiting(self):
        fast = SlowdownEstimator(1, ALONE)
        slow = SlowdownEstimator(1, ALONE)
        fast.observe(0, 2 * ALONE)
        slow.observe(0, 5 * ALONE)
        assert slow.slowdown(0) > fast.slowdown(0) > 1.0

    def test_accumulation_raises_the_estimate(self):
        estimator = SlowdownEstimator(1, ALONE)
        estimator.observe(0, ALONE)
        first = estimator.slowdown(0)
        estimator.observe(0, 10 * ALONE)
        assert estimator.slowdown(0) > first

    def test_floored_at_one(self):
        # A thread served faster than the alone estimate (row hits in an
        # idle system) cannot report a slowdown below 1.0.
        estimator = SlowdownEstimator(1, ALONE)
        estimator.observe(0, 1)
        assert estimator.slowdown(0) == 1.0

    def test_per_thread_ledgers_are_independent(self):
        estimator = SlowdownEstimator(2, ALONE)
        estimator.observe(0, 8 * ALONE)
        assert estimator.slowdown(0) == pytest.approx(8.0)
        assert estimator.slowdown(1) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_threads=0, alone_service_cycles=ALONE),
            dict(num_threads=2, alone_service_cycles=0),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SlowdownEstimator(**kwargs)


class TestPolicy:
    def _complete(self, policy, thread, waited, now=None):
        request = _request(thread, arrival=0)
        policy.on_complete(request, waited if now is None else now)

    def test_estimates_refresh_only_at_epoch_boundaries(self):
        policy = SlowdownPolicy(2, TIMING, interval=100)
        self._complete(policy, 0, waited=10 * ALONE)
        # Completions accumulate but priorities hold until the epoch.
        assert policy.slowdown_estimates() == [1.0, 1.0]
        policy.on_cycle(99)  # before the boundary: must be a no-op
        assert policy.slowdown_estimates() == [1.0, 1.0]
        policy.on_cycle(100)
        estimates = policy.slowdown_estimates()
        assert estimates[0] == pytest.approx(10.0)
        assert estimates[1] == 1.0

    def test_next_event_time_publishes_each_epoch(self):
        policy = SlowdownPolicy(1, TIMING, interval=100)
        assert policy.next_event_time(0) == 100
        policy.on_cycle(100)
        assert policy.next_event_time(100) == 200
        policy.on_cycle(250)  # late tick advances to the next multiple
        assert policy.next_event_time(250) == 300

    def test_key_prioritizes_the_most_slowed_thread(self):
        policy = SlowdownPolicy(2, TIMING, interval=100)
        self._complete(policy, 1, waited=10 * ALONE)
        policy.on_cycle(100)
        # Thread 1 is further behind: its request must outrank an
        # *older* request of the unslowed thread.
        behind = _request(1, arrival=50)
        ahead = _request(0, arrival=0)
        assert policy.request_key(behind) < policy.request_key(ahead)

    def test_equal_slowdowns_fall_back_to_oldest_first(self):
        policy = SlowdownPolicy(2, TIMING, interval=100)
        old = _request(0, arrival=10)
        new = _request(1, arrival=20)
        assert policy.request_key(old) < policy.request_key(new)

    def test_stateful_flags(self):
        policy = SlowdownPolicy(1, TIMING)
        assert policy.has_hooks
        assert not policy.key_over_cas

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SlowdownPolicy(1, TIMING, interval=0)

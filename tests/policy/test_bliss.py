"""BLISS blacklist dynamics: streaks, clearing, round-robin ordering."""

import pytest

from repro.controller.bank_scheduler import CandidateCommand
from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.commands import CommandType
from repro.policy.bliss import BlissPolicy


def _request(thread, arrival=0, seq=None):
    request = MemoryRequest(
        thread_id=thread,
        kind=RequestKind.READ,
        address=thread << 34,
        arrival_time=arrival,
    )
    if seq is not None:
        request.seq = seq
    return request


def _served(thread, kind=CommandType.READ):
    """A candidate as the channel scheduler issues it for ``thread``."""
    request = _request(thread)
    return CandidateCommand(
        kind=kind,
        rank=0,
        bank=0,
        row=0,
        ready=True,
        key=(),
        request=request,
        charge_thread=thread,
        charge_arrival=0.0,
    )


def _serve(policy, thread, times=1, now=0):
    for _ in range(times):
        policy.on_issue(_served(thread), now)


class TestBlacklistDynamics:
    def test_thread_blacklisted_at_threshold_consecutive_wins(self):
        policy = BlissPolicy(num_threads=2, threshold=4)
        _serve(policy, 0, times=3)
        assert policy.blacklisted == [False, False]
        _serve(policy, 0)
        assert policy.blacklisted == [True, False]

    def test_streak_resets_when_another_thread_wins(self):
        policy = BlissPolicy(num_threads=2, threshold=4)
        _serve(policy, 0, times=3)
        _serve(policy, 1)  # breaks thread 0's run
        _serve(policy, 0)
        assert policy.blacklisted == [False, False]

    def test_only_cas_issues_count_as_wins(self):
        policy = BlissPolicy(num_threads=2, threshold=2)
        for kind in (CommandType.ACTIVATE, CommandType.PRECHARGE):
            for _ in range(4):
                policy.on_issue(_served(0, kind=kind), 0)
        assert policy.blacklisted == [False, False]

    def test_requestless_candidates_are_ignored(self):
        policy = BlissPolicy(num_threads=1, threshold=1)
        auto_precharge = CandidateCommand(
            kind=CommandType.PRECHARGE,
            rank=0,
            bank=0,
            row=0,
            ready=True,
            key=(float("inf"),),
            request=None,
            charge_thread=0,
            charge_arrival=0.0,
        )
        policy.on_issue(auto_precharge, 0)
        assert policy.blacklisted == [False]

    def test_clearing_interval_resets_blacklist_and_streak(self):
        policy = BlissPolicy(num_threads=2, threshold=2, clearing_interval=100)
        _serve(policy, 0, times=2)
        assert policy.blacklisted[0]
        policy.on_cycle(99)  # before the boundary: must be a no-op
        assert policy.blacklisted[0]
        policy.on_cycle(100)
        assert policy.blacklisted == [False, False]
        # The streak does not survive the clear either.
        _serve(policy, 0)
        assert policy.blacklisted == [False, False]

    def test_next_event_time_publishes_each_clearing_boundary(self):
        policy = BlissPolicy(num_threads=1, clearing_interval=100)
        assert policy.next_event_time(0) == 100
        policy.on_cycle(100)
        assert policy.next_event_time(100) == 200
        # A late tick still advances to the next multiple, not now+100.
        policy.on_cycle(250)
        assert policy.next_event_time(250) == 300


class TestPriorityKey:
    def test_non_blacklisted_outranks_blacklisted(self):
        policy = BlissPolicy(num_threads=2)
        policy.blacklisted[0] = True
        victim = _request(1, arrival=50, seq=10)
        streamer = _request(0, arrival=0, seq=1)
        assert policy.request_key(victim) < policy.request_key(streamer)

    def test_round_robin_prefers_least_recently_served(self):
        policy = BlissPolicy(num_threads=3)
        _serve(policy, 1)
        _serve(policy, 2)
        keys = [policy.request_key(_request(t, seq=t)) for t in range(3)]
        # Thread 0 was never served; thread 1 served before thread 2.
        assert keys[0] < keys[1] < keys[2]

    def test_ties_break_oldest_first(self):
        policy = BlissPolicy(num_threads=1)
        old = _request(0, arrival=10, seq=1)
        new = _request(0, arrival=20, seq=2)
        assert policy.request_key(old) < policy.request_key(new)

    def test_key_outranks_cas_preference(self):
        # The flag the schedulers consult; BLISS's defining move is a
        # non-blacklisted activate beating a blacklisted ready row hit.
        assert BlissPolicy(num_threads=1).key_over_cas


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_threads=0),
            dict(num_threads=2, threshold=0),
            dict(num_threads=2, clearing_interval=0),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BlissPolicy(**kwargs)

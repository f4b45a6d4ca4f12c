"""WakeIndex: unit, property, and system-level differential tests.

The wake index must agree with a brute-force scan over the published
wake array at every point of any publish/peek/pop interleaving — that
is the whole correctness contract the indexed engine leans on.  The
property tests drive randomized wake walks (including the epoch
invalidation races: republish-before-pop, republish-to-earlier,
republish-to-idle) against a dict-based model; the system-level test
checks that the event engine really ticks sparsely.  Engine
bit-identity against the per-cycle oracle lives in
``test_engine_differential.py``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.sim.wakeindex import NO_EVENT, WakeIndex
from repro.workloads.spec2000 import profile


class TestWakeIndexUnit:
    def test_empty_index_is_idle(self):
        index = WakeIndex([0, 0, 1])
        assert index.min_wake() == NO_EVENT
        assert index.wake_of(0) == NO_EVENT

    def test_rejects_empty_and_negative_shards(self):
        with pytest.raises(ValueError):
            WakeIndex([])
        with pytest.raises(ValueError):
            WakeIndex([0, -1])

    def test_publish_and_min(self):
        index = WakeIndex([0, 1, 1])
        index.publish(0, 50)
        index.publish(1, 30)
        index.publish(2, 40)
        assert index.min_wake() == 30
        assert index.wake_of(1) == 30

    def test_none_means_idle(self):
        index = WakeIndex([0])
        index.publish(0, 10)
        index.publish(0, None)
        assert index.min_wake() == NO_EVENT

    def test_republish_moves_the_entry(self):
        index = WakeIndex([0])
        index.publish(0, 10)
        index.publish(0, 99)
        assert index.min_wake() == 99
        index.publish(0, 5)
        assert index.min_wake() == 5

    def test_unchanged_republish_is_free(self):
        index = WakeIndex([0])
        index.publish(0, 10)
        publishes = index.publishes
        index.publish(0, 10)
        assert index.publishes == publishes

    def test_pop_due_consumes_and_flags(self):
        index = WakeIndex([0, 0, 1])
        index.publish(0, 5)
        index.publish(1, 9)
        index.publish(2, 20)
        due = [False, False, False]
        assert index.pop_due(10, due) == 2
        assert due == [True, True, False]
        assert index.wake_of(0) == NO_EVENT
        assert index.min_wake() == 20

    def test_identical_wake_after_pop_lands_again(self):
        # pop_due resets the slot to NO_EVENT, so a post-tick republish
        # of the *same* cycle is a real change and re-enters the heap.
        index = WakeIndex([0])
        index.publish(0, 7)
        due = [False]
        index.pop_due(7, due)
        index.publish(0, 7)
        assert index.min_wake() == 7

    def test_stale_entries_are_counted(self):
        index = WakeIndex([0])
        index.publish(0, 10)
        index.publish(0, 20)
        assert index.min_wake() == 20
        assert index.stale_pops == 1


#: One randomized walk step: (slot, wake-or-idle) publish, a pop_due
#: at some cycle, or a min_wake peek.
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, 5),
                  st.one_of(st.none(), st.integers(0, 120))),
        st.tuples(st.just("pop"), st.integers(0, 120), st.none()),
        st.tuples(st.just("peek"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=120,
)


class TestWakeIndexProperties:
    @given(shards=st.lists(st.integers(0, 2), min_size=6, max_size=6),
           actions=_actions)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_model(self, shards, actions):
        index = WakeIndex(shards)
        model = [NO_EVENT] * len(shards)
        for kind, a, b in actions:
            if kind == "publish":
                index.publish(a, b)
                model[a] = NO_EVENT if b is None else b
            elif kind == "pop":
                due = [False] * len(shards)
                count = index.pop_due(a, due)
                expected = [s for s, w in enumerate(model) if w <= a]
                assert count == len(expected)
                assert [s for s, d in enumerate(due) if d] == sorted(expected)
                for slot in expected:
                    model[slot] = NO_EVENT
            else:
                assert index.min_wake() == min(model)
            # Invariant: published wakes are always readable per slot.
            for slot, wake in enumerate(model):
                assert index.wake_of(slot) == wake
        assert index.min_wake() == min(model)

    @given(actions=st.lists(st.integers(0, 60), min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_epoch_races_never_resurrect_stale_wakes(self, actions):
        # Rapid republishing to one slot: only the latest value may ever
        # surface, regardless of how much heap garbage accumulates.
        index = WakeIndex([0])
        latest = NO_EVENT
        for wake in actions:
            index.publish(0, wake)
            latest = wake
            assert index.min_wake() == latest
        due = [False]
        index.pop_due(latest, due)
        assert due == [True]
        assert index.min_wake() == NO_EVENT


CYCLES = 20_000
WARMUP = 5_000


def _run(policy, names):
    profiles = [profile(n) for n in names]
    config = SystemConfig(policy=policy, num_cores=len(names), engine="event")
    system = CmpSystem(config, profiles)
    result = system.run(CYCLES, warmup=WARMUP)
    return system, dataclasses.asdict(comparable_result(result))


class TestIndexedEngineDifferential:
    def test_indexed_engine_ticks_sparsely(self):
        system, _ = _run("FQ-VFTF", ("vpr", "art"))
        total = system.engine_steps * system._num_slots
        assert 0 < system.engine_component_ticks < total

"""FairJobQueue: SFQ tagging, weighted dispatch, and fairness metrics.

The scheduler is wall-clock-free, so every expected dispatch sequence
here is computed by hand from (submission order, shares, costs) — the
same style of closed-form check the core VTMS tests use.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netfq import GpsServer, Packet
from repro.serve.queue import FairJobQueue, TenantAccount
from repro.sim.parallel import group_spec

SPEC = group_spec(("vpr", "art"), "FR-FCFS", 100, 0, 0)


def drain(queue):
    order = []
    while True:
        job = queue.pop()
        if job is None:
            return order
        order.append(job.tenant)


class TestTagging:
    def test_backlogged_tenant_queues_behind_itself(self):
        queue = FairJobQueue()
        first = queue.submit("a", SPEC, 100.0)
        second = queue.submit("a", SPEC, 100.0)
        assert (first.start_tag, first.finish_tag) == (0.0, 100.0)
        assert (second.start_tag, second.finish_tag) == (100.0, 200.0)

    def test_weight_divides_finish_tags(self):
        queue = FairJobQueue()
        queue.tenant("heavy", weight=4.0)
        job = queue.submit("heavy", SPEC, 100.0)
        assert job.finish_tag == 25.0

    def test_idle_tenant_reanchors_to_virtual_time(self):
        queue = FairJobQueue()
        for _ in range(3):
            queue.submit("busy", SPEC, 100.0)
        for _ in range(3):
            queue.pop()
        # v(t) is the start tag of the last job dispatched.
        assert queue.virtual_time == 200.0
        late = queue.submit("late", SPEC, 100.0)
        assert late.start_tag == 200.0  # re-anchored, no banked credit
        backlogged = queue.submit("busy", SPEC, 100.0)
        assert backlogged.start_tag == 300.0  # behind its own last job
        assert queue.pop().tenant == "late"


class TestDispatch:
    def test_weighted_interleaving_two_to_one(self):
        queue = FairJobQueue()
        queue.tenant("a", weight=2.0)
        queue.tenant("b", weight=1.0)
        for _ in range(6):
            queue.submit("a", SPEC, 100.0)
        for _ in range(6):
            queue.submit("b", SPEC, 100.0)
        # Hand-computed finish tags: a = 50,100,...,300; b = 100,...,600.
        # Ties break on submission sequence number.
        assert drain(queue) == [
            "a", "a", "b", "a", "a", "b", "a", "a", "b", "b", "b", "b",
        ]

    def test_fifo_among_equal_tenants(self):
        queue = FairJobQueue()
        for tenant in ("x", "y", "x", "y"):
            queue.submit(tenant, SPEC, 100.0)
        assert drain(queue) == ["x", "y", "x", "y"]

    def test_pop_empty_returns_none(self):
        assert FairJobQueue().pop() is None

    def test_requeue_keeps_tags_and_priority(self):
        queue = FairJobQueue()
        crashed = queue.submit("a", SPEC, 100.0)
        queue.submit("a", SPEC, 100.0)
        assert queue.pop() is crashed
        queue.requeue(crashed)
        # Original tags: the retried job still beats its successor.
        assert queue.pop() is crashed
        assert crashed.finish_tag == 100.0
        assert queue.tenant("a").queued == 1

    def test_queued_counters_track_submit_and_pop(self):
        queue = FairJobQueue()
        queue.submit("a", SPEC, 100.0)
        queue.submit("a", SPEC, 100.0)
        assert queue.tenant("a").queued == 2
        queue.pop()
        assert queue.tenant("a").queued == 1
        assert len(queue) == 1


class TestAccounts:
    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TenantAccount("bad", 0.0)
        queue = FairJobQueue()
        queue.tenant("a")
        with pytest.raises(ValueError, match="positive"):
            queue.tenant("a", weight=-1.0)

    def test_reweight_existing_tenant(self):
        queue = FairJobQueue()
        queue.tenant("a", weight=1.0)
        queue.tenant("a", weight=3.0)
        assert queue.tenant("a").weight == 3.0

    def test_slowdown_floors_at_one(self):
        account = TenantAccount("a")
        assert account.slowdown == 1.0  # nothing run yet
        account.busy_s = 2.0
        account.turnaround_s = 1.0  # measurement jitter can undershoot
        assert account.slowdown == 1.0
        account.turnaround_s = 6.0
        assert account.slowdown == 3.0


class TestFairnessMetrics:
    def test_idle_queue_is_perfectly_fair(self):
        assert FairJobQueue().fairness() == {
            "max_slowdown": 1.0,
            "unfairness": 1.0,
        }

    def test_headline_and_per_tenant_shares(self):
        queue = FairJobQueue()
        queue.tenant("a", weight=2.0)
        queue.tenant("b", weight=1.0)
        job_a = queue.submit("a", SPEC, 100.0)
        job_b = queue.submit("b", SPEC, 100.0)
        queue.charge(job_a, busy_s=2.0, turnaround_s=4.0)
        queue.charge(job_b, busy_s=1.0, turnaround_s=3.0)
        metrics = queue.fairness()
        assert metrics["max_slowdown"] == 3.0
        assert metrics["unfairness"] == 1.5
        assert metrics["tenant.a.busy_share"] == pytest.approx(2 / 3)
        assert metrics["tenant.a.fair_share"] == pytest.approx(2 / 3)
        assert metrics["tenant.b.busy_share"] == pytest.approx(1 / 3)
        assert metrics["tenant.b.slowdown"] == 3.0

    def test_tenants_without_service_are_excluded(self):
        queue = FairJobQueue()
        job = queue.submit("ran", SPEC, 100.0)
        queue.submit("pending", SPEC, 100.0)
        queue.charge(job, busy_s=1.0, turnaround_s=2.0)
        metrics = queue.fairness()
        assert "tenant.pending.slowdown" not in metrics
        assert metrics["tenant.ran.fair_share"] == 1.0


class TestGpsOracle:
    """The fluid GPS server of :mod:`repro.core.netfq` as the oracle.

    With every job queued before the first dispatch and one job served
    at a time, fair queuing's classic bound applies: each job completes
    no later than its GPS fluid finish time plus the largest job cost.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        shares=st.lists(
            st.sampled_from([0.05, 0.2, 0.5, 1.0, 3.0, 0.95]),
            min_size=2, max_size=4,
        ),
        jobs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 1000)),
            min_size=2, max_size=30,
        ),
    )
    def test_no_job_completes_later_than_gps_plus_one_job(self, shares, jobs):
        jobs = [(tenant % len(shares), cost) for tenant, cost in jobs]
        queue = FairJobQueue()
        for tenant, share in enumerate(shares):
            queue.tenant(str(tenant), weight=share)
        submitted = [queue.submit(str(tenant), SPEC, cost) for tenant, cost in jobs]
        fluid = GpsServer(shares).finish_times(
            [Packet(tenant, cost, 0.0) for tenant, cost in jobs]
        )
        deadline = {
            job.job_id: finish + max(cost for _, cost in jobs)
            for job, finish in zip(submitted, fluid)
        }
        now = 0.0
        while True:
            job = queue.pop()
            if job is None:
                break
            now += job.cost
            assert now <= deadline[job.job_id] * (1 + 1e-9)

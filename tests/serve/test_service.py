"""ExperimentService: orchestration, dedupe, retry semantics, fairness.

These tests inject executors (instant, sleeping, always-crashing) so
the orchestrator's scheduling, caching, and failure handling are
exercised without real subprocesses; the end-to-end subprocess path is
covered by test_retry.py and the CI serve-smoke script.
"""

import asyncio

import pytest

from repro.serve.queue import Job
from repro.serve.service import ExperimentService
from repro.serve.spec import SweepSpec
from repro.serve.store import ResultStore
from repro.sim.cache import result_to_json
from repro.sim.retry import RetryPolicy, WorkerCrashError

from .conftest import InstantExecutor

NO_RETRY = RetryPolicy(retries=0, base_delay_s=0.0)
FAST_RETRY = RetryPolicy(retries=2, base_delay_s=0.0)


def small_sweep(seeds=(0, 1), policies=("FR-FCFS", "FQ-VFTF")):
    return SweepSpec(
        workloads=(("vpr", "art"),),
        policies=policies,
        cycles=600,
        warmup=150,
        seeds=seeds,
    )


def run(coro):
    return asyncio.run(coro)


async def serve(service, *submissions):
    """Start, submit each (tenant, sweep, share), drain, stop."""
    await service.start()
    tickets = [
        service.submit_sweep(tenant, sweep, share=share)
        for tenant, sweep, share in submissions
    ]
    await service.drain()
    await service.stop()
    return tickets


class TestSubmitAndDrain:
    def test_sweep_runs_to_done(self, tmp_path, tiny_result):
        service = ExperimentService(
            tmp_path, workers=2, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )
        (ticket,) = run(serve(service, ("alice", small_sweep(), 1.0)))
        assert ticket == {
            "tenant": "alice", "share": 1.0, "runs": 4,
            "queued": 4, "cached": 0, "job_ids": [1, 2, 3, 4],
        }
        assert service.counts["done"] == 4
        assert service.counts["lost"] == 0
        assert all(job.state == "done" for job in service.jobs.values())
        assert len(service.store) == 4

    def test_results_land_in_all_cache_layers(self, tmp_path, tiny_result):
        from repro.sim import runner
        from repro.sim.cache import active_cache

        service = ExperimentService(
            tmp_path, workers=1, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )
        sweep = small_sweep(seeds=(0,), policies=("FR-FCFS",))
        run(serve(service, ("alice", sweep, 1.0)))
        (spec,) = sweep.expand()
        assert runner.memo_get(spec) is not None
        assert active_cache().get(spec.fingerprint()) is not None
        stored = service.store.get_result(spec)
        assert result_to_json(stored) == result_to_json(tiny_result)

    def test_resubmission_is_fully_cache_served(self, tmp_path, tiny_result):
        service = ExperimentService(
            tmp_path, workers=2, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )
        first, second = run(serve(
            service,
            ("alice", small_sweep(), 1.0),
            ("alice", small_sweep(), 1.0),
        ))
        # Second submission happens before the scheduler ran, so it is
        # dispatch-time dedupe (not submit-time) that collapses it.
        assert first["queued"] == 4
        assert second["queued"] == 4
        assert service.counts["done"] == 4
        assert service.counts["cached"] == 4
        assert service.executor.executions == 4

    def test_submit_time_cache_hits_never_queue(self, tmp_path, tiny_result):
        service = ExperimentService(
            tmp_path, workers=2, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )
        run(serve(service, ("alice", small_sweep(), 1.0)))
        ticket = service.submit_sweep("bob", small_sweep())
        assert ticket["queued"] == 0
        assert ticket["cached"] == 4
        # The store is append-only and idempotent by fingerprint: the
        # original fresh records keep their attribution.
        assert len(service.store.query(tenant="alice", source="fresh")) == 4
        assert len(service.store) == 4

    def test_status_snapshot_shape(self, tmp_path, tiny_result):
        service = ExperimentService(
            tmp_path, workers=3, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )
        run(serve(service, ("alice", small_sweep(), 2.0)))
        status = service.status()
        assert status["workers"] == 3
        assert status["queued"] == 0
        assert status["outstanding"] == 0
        assert status["counts"]["done"] == 4
        assert status["tenants"]["alice"]["share"] == 2.0
        assert status["tenants"]["alice"]["finished"] == 4
        assert status["store_runs"] == 4
        assert "unfairness" in status["fairness"]
        assert isinstance(status["dashboard"], str)

    def test_runs_differing_only_in_window_get_their_own_rows(
        self, tmp_path, tiny_result
    ):
        service = ExperimentService(
            tmp_path, workers=2, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )

        def window(cycles):
            return SweepSpec(
                workloads=(("vpr", "art"),), policies=("FQ-VFTF",),
                cycles=cycles, warmup=cycles // 4,
            )

        run(serve(
            service, ("alice", window(800), 1.0), ("bob", window(1600), 1.0),
        ))
        assert service.counts["done"] == 2
        assert len(service.store) == 2
        assert "fleet: 2/2 runs finished" in service.status()["dashboard"]

    @pytest.mark.parametrize(
        "bad_mix, message", [(("vpr", "nosuch"), "nosuch"), ((), "at least one")]
    )
    def test_bad_grid_queues_nothing(self, tmp_path, tiny_result, bad_mix, message):
        service = ExperimentService(
            tmp_path, workers=1, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )

        async def scenario():
            await service.start()
            with pytest.raises(ValueError, match=message):
                service.submit_sweep("alice", SweepSpec(
                    workloads=(("vpr", "art"), bad_mix), policies=("FR-FCFS",),
                    cycles=600, warmup=150,
                ))
            await asyncio.wait_for(service.drain(), timeout=5)
            await service.stop()

        run(scenario())
        assert len(service.queue) == 0
        assert service.jobs == {}
        assert service.executor.executions == 0
        assert len(service.store) == 0

    @pytest.mark.parametrize("share", [float("nan"), float("inf")])
    def test_non_finite_share_queues_nothing(self, tmp_path, tiny_result, share):
        service = ExperimentService(
            tmp_path, workers=1, retry_policy=NO_RETRY,
            executor=InstantExecutor(tiny_result),
        )

        async def scenario():
            await service.start()
            with pytest.raises(ValueError, match="finite"):
                service.submit_sweep("alice", small_sweep(), share=share)
            await asyncio.wait_for(service.drain(), timeout=5)
            await service.stop()

        run(scenario())
        assert len(service.queue) == 0
        assert service.jobs == {}
        assert service.queue.tenants == {}
        assert len(service.store) == 0


class TestRetrySemantics:
    def test_crashed_jobs_are_retried_then_done(self, tmp_path, tiny_result):
        executor = InstantExecutor(tiny_result, crash_first=2)
        service = ExperimentService(
            tmp_path, workers=2, retry_policy=FAST_RETRY, executor=executor,
        )
        run(serve(service, ("alice", small_sweep(), 1.0)))
        assert service.counts == {
            "submitted": 4, "cached": 0, "done": 4,
            "retried": 2, "lost": 0, "error": 0,
        }
        # The survived crashes are durable: attempts=1 in the store.
        retried = [e for e in service.store.entries() if e.attempts == 1]
        assert len(retried) == 2

    def test_retry_budget_exhaustion_is_lost(self, tmp_path):
        class AlwaysCrash:
            async def run(self, job: Job):
                raise WorkerCrashError(f"chaos kill of job {job.job_id}")

        service = ExperimentService(
            tmp_path, workers=2,
            retry_policy=RetryPolicy(retries=1, base_delay_s=0.0),
            executor=AlwaysCrash(),
        )
        run(serve(
            service, ("alice", small_sweep(seeds=(0,), policies=("FR-FCFS",)), 1.0)
        ))
        assert service.counts["retried"] == 1
        assert service.counts["lost"] == 1
        assert service.counts["done"] == 0
        (job,) = service.jobs.values()
        assert job.state == "lost"
        assert job.attempts == 2  # first try + one resubmission
        assert "chaos kill" in job.error
        assert len(service.store) == 0

    def test_deterministic_error_is_never_retried(self, tmp_path):
        class Raises:
            async def run(self, job: Job):
                raise ValueError("simulation bug, not a crash")

        service = ExperimentService(
            tmp_path, workers=1, retry_policy=FAST_RETRY, executor=Raises(),
        )
        run(serve(
            service, ("alice", small_sweep(seeds=(0,), policies=("FR-FCFS",)), 1.0)
        ))
        assert service.counts["error"] == 1
        assert service.counts["retried"] == 0
        (job,) = service.jobs.values()
        assert job.state == "error"
        assert job.attempts == 1
        assert "simulation bug" in job.error


class TestDispatchWakeups:
    @pytest.mark.parametrize("crash_first", [0, 1], ids=["finish", "requeue"])
    def test_dispatch_does_not_wait_for_the_tick(
        self, tmp_path, tiny_result, crash_first
    ):
        # The scheduler has no timer tick: only the submit, finish and
        # requeue wakeups can drain four jobs through one worker.
        service = ExperimentService(
            tmp_path, workers=1, retry_policy=FAST_RETRY,
            executor=InstantExecutor(tiny_result, crash_first=crash_first),
        )

        async def scenario():
            await service.start()
            await asyncio.sleep(0)  # the scheduler parks on its event
            service.submit_sweep("alice", small_sweep())
            await asyncio.wait_for(service.drain(), timeout=10)
            await service.stop()

        run(scenario())
        assert service.counts["done"] == 4
        assert service.counts["retried"] == crash_first


class TestFairnessDogfood:
    def test_two_tenant_busy_shares_track_phi(
        self, tmp_path, tiny_result, monkeypatch
    ):
        """The acceptance check: φ=2:1 tenants, both backlogged from
        submit to drain, receive worker time within 10% of their
        configured shares — measured by the service's own accounting.

        The service reads host time through ``repro.serve.clock``; a
        fake clock that each job advances by a fixed cost makes every
        job's busy time exact, so the shares do not depend on how the
        host schedules the event loop."""
        job_cost_s = 0.01
        fake_now = [0.0]
        monkeypatch.setattr("repro.serve.clock.monotonic", lambda: fake_now[0])

        class Ordered(InstantExecutor):
            def __init__(self, result):
                super().__init__(result)
                self.order = []

            async def run(self, job):
                self.order.append(job.tenant)
                fake_now[0] += job_cost_s
                return await super().run(job)

        executor = Ordered(tiny_result)
        service = ExperimentService(
            tmp_path, workers=1, retry_policy=NO_RETRY, executor=executor,
        )
        # Disjoint seed ranges: no cross-tenant dedupe, 16 vs 8 jobs.
        alice = small_sweep(seeds=tuple(range(8)))
        bob = small_sweep(seeds=tuple(range(8, 12)))
        run(serve(service, ("alice", alice, 2.0), ("bob", bob, 1.0)))
        assert service.counts["done"] == 24
        # SFQ dispatch: two alice runs per bob run while both backlogged.
        assert executor.order[:9] == [
            "alice", "alice", "bob", "alice", "alice", "bob",
            "alice", "alice", "bob",
        ]
        metrics = service.fairness_metrics()
        for tenant in ("alice", "bob"):
            busy = metrics[f"tenant.{tenant}.busy_share"]
            fair = metrics[f"tenant.{tenant}.fair_share"]
            assert busy / fair == pytest.approx(1.0, rel=0.10)
        assert metrics["max_slowdown"] >= 1.0
        assert metrics["unfairness"] >= 1.0
        assert service.status()["fairness"] == metrics


class TestEndToEndScale:
    def test_108_run_sweep_with_chaos_then_full_cache_resubmit(
        self, tmp_path, tiny_result
    ):
        """The e2e acceptance sweep: 100+ distinct runs, one injected
        worker crash survived via retry, then a byte-identical resubmit
        served 100% from cache, all queryable from the store."""
        sweep = SweepSpec(
            workloads=(("vpr", "art"), ("gzip", "twolf")),
            policies=("FR-FCFS", "FQ-VFTF"),
            cycles=600,
            warmup=150,
            seeds=tuple(range(9)),
            share_vectors=(None, (1.0, 2.0), (1.0, 3.0)),
        )
        executor = InstantExecutor(tiny_result, crash_first=1)
        service = ExperimentService(
            tmp_path, workers=4, retry_policy=FAST_RETRY, executor=executor,
        )
        (ticket,) = run(serve(service, ("alice", sweep, 1.0)))
        assert ticket["runs"] == 108
        assert ticket["queued"] == 108
        assert service.counts["done"] == 108
        assert service.counts["retried"] == 1
        assert service.counts["lost"] == 0

        # Resubmission: 100% cache-served at submit time, nothing queued.
        again = service.submit_sweep("alice", sweep)
        assert again["cached"] == 108
        assert again["queued"] == 0

        # The store is independently queryable after a cold reload.
        store = ResultStore(tmp_path / "store")
        assert len(store) == 108
        assert len(store.query(policy="FR-FCFS")) == 54
        # 2 policies x 3 share vectors for one mix at one seed.
        assert len(store.query(workload=("gzip", "twolf"), seed=0)) == 6
        survived = [e for e in store.entries() if e.attempts == 1]
        assert len(survived) == 1
        got = store.get_result(sweep.expand()[0])
        assert result_to_json(got) == result_to_json(tiny_result)

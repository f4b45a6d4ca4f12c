"""Worker-crash retry hardening: the kill-a-worker regression tests.

``_flaky_execute`` is a module-level stand-in for
``parallel.execute_spec`` that SIGKILLs its own worker process exactly
once (a sentinel file marks the kill as spent), then delegates to the
real implementation.  Monkeypatching it into ``repro.sim.parallel``
propagates to pool/serve workers because children are forked from the
patched parent — giving a deterministic mid-run worker death without
races or timing assumptions.  Both batch front-ends must survive it:
``run_many``'s process pool and the serve ``ProcessJobExecutor``.
"""

import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.sim import parallel
from repro.sim.retry import (
    RetryPolicy,
    WorkerCrashError,
    default_retries,
    is_worker_crash,
)

_REAL_EXECUTE = parallel.execute_spec

#: Env var carrying the per-test sentinel path into forked workers.
SENTINEL_VAR = "REPRO_TEST_KILL_SENTINEL"

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="kill-worker regression relies on fork-propagated monkeypatches",
)


def _flaky_execute(spec, heartbeats=None):
    sentinel = Path(os.environ[SENTINEL_VAR])
    if not sentinel.exists():
        sentinel.write_text("spent")
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE(spec, heartbeats)


@pytest.fixture()
def one_kill(tmp_path, monkeypatch):
    """Arm one worker SIGKILL for any forked child of this test."""
    monkeypatch.setenv(SENTINEL_VAR, str(tmp_path / "kill-spent"))
    monkeypatch.setattr(parallel, "execute_spec", _flaky_execute)


def small_specs(count=3):
    return [
        parallel.group_spec(("vpr", "art"), "FR-FCFS", 600, 150, seed)
        for seed in range(count)
    ]


class TestClassification:
    def test_worker_death_signals_are_retryable(self):
        assert is_worker_crash(WorkerCrashError("pipe closed"))
        assert is_worker_crash(BrokenExecutor("pool died"))
        assert is_worker_crash(BrokenProcessPool("worker reaped"))

    def test_deterministic_exceptions_are_not(self):
        assert not is_worker_crash(ValueError("simulation bug"))
        assert not is_worker_crash(KeyError("unknown benchmark"))
        assert not is_worker_crash(MemoryError())


class TestRetryPolicy:
    def test_budget_counts_resubmissions(self):
        policy = RetryPolicy(retries=2)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not RetryPolicy(retries=0).should_retry(1)

    def test_backoff_doubles_and_saturates(self):
        policy = RetryPolicy(retries=5, base_delay_s=0.1, max_delay_s=0.5)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped
        assert policy.delay_s(0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)

    def test_env_knob_feeds_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_RETRIES", "7")
        assert default_retries() == 7
        assert RetryPolicy.from_env().retries == 7


@needs_fork
class TestRunManySurvivesAKilledWorker:
    def test_pool_sweep_completes_with_every_result(
        self, one_kill, monkeypatch
    ):
        # Tight, fast budget: one resubmission round is all it needs.
        monkeypatch.setattr(
            RetryPolicy, "from_env",
            classmethod(lambda cls: cls(retries=2, base_delay_s=0.01)),
        )
        specs = small_specs(3)
        results = parallel.run_many(specs, jobs=2)
        assert set(results) == set(specs)
        for spec in specs:
            assert results[spec].cycles == 600
        # The kill actually happened (the sentinel was spent).
        assert Path(os.environ[SENTINEL_VAR]).exists()
        # Results after a retry are bit-identical to an undisturbed run.
        undisturbed = _REAL_EXECUTE(specs[0])
        from repro.sim.cache import result_to_json

        assert result_to_json(results[specs[0]]) == result_to_json(undisturbed)


@needs_fork
class TestServeExecutorSurvivesAKilledWorker:
    def test_service_retries_killed_subprocess_job(self, tmp_path, one_kill):
        import asyncio

        from repro.serve.service import ExperimentService
        from repro.serve.spec import SweepSpec

        async def scenario():
            service = ExperimentService(
                tmp_path / "svc", workers=2, timeout_s=60.0,
                retry_policy=RetryPolicy(retries=2, base_delay_s=0.01),
            )
            await service.start()
            service.submit_sweep(
                "alice",
                SweepSpec(
                    workloads=(("vpr", "art"),),
                    policies=("FR-FCFS",),
                    cycles=600,
                    warmup=150,
                    seeds=(0, 1),
                ),
            )
            await asyncio.wait_for(service.drain(), timeout=120)
            await service.stop(drain=False)
            return service

        service = asyncio.run(scenario())
        assert service.counts["done"] == 2
        assert service.counts["retried"] == 1
        assert service.counts["lost"] == 0
        # The crash survived into the durable record.
        assert [e.attempts for e in service.store.entries()].count(1) == 1

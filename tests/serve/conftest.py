"""Shared fixtures for the repro.serve suite.

Every test gets isolated cache layers (private disk-cache dir, cleared
memo) so store/cache hit accounting is deterministic, plus a
module-scoped ``tiny_result`` — one real small simulation whose
:class:`~repro.sim.system.SimResult` the fake executors hand out
instantly, keeping the service tests fast while exercising the full
record/round-trip machinery with genuine result payloads.
"""

import pytest

from repro.sim import parallel, runner
from repro.sim.cache import configure_cache


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SERVE", raising=False)
    monkeypatch.delenv("REPRO_SERVE_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SERVE_TIMEOUT", raising=False)
    runner.clear_solo_cache()
    configure_cache()
    yield
    runner.clear_solo_cache()
    configure_cache()


TINY_SPEC = parallel.group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0)


@pytest.fixture(scope="module")
def tiny_result():
    """One real (small) simulation result, shared across a module."""
    return parallel.execute_spec(TINY_SPEC)


class InstantExecutor:
    """Injectable executor: returns a canned result with no subprocess.

    ``crash_first`` job executions raise
    :class:`~repro.sim.retry.WorkerCrashError` once each (the chaos
    knob).
    """

    def __init__(self, result, crash_first=0):
        self.result = result
        self.crash_first = crash_first
        self.crashed = set()
        self.executions = 0
        self.pids = {}

    async def run(self, job):
        from repro.sim.retry import WorkerCrashError

        self.executions += 1
        if len(self.crashed) < self.crash_first and job.job_id not in self.crashed:
            self.crashed.add(job.job_id)
            raise WorkerCrashError(f"chaos kill of job {job.job_id}")
        return self.result

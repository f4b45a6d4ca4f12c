"""ProcessJobExecutor's warm-L2 image exchange, with real worker processes.

The parent hands each worker the images it holds for the job's cores
and adopts the ones the worker built.  Only a worker that sends its
result back contributes images: a killed, timed-out or erroring worker
adds nothing to the parent's memo.
"""

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.serve.queue import Job
from repro.serve.service import ProcessJobExecutor
from repro.sim import parallel
from repro.sim.cache import result_to_json
from repro.sim.retry import WorkerCrashError
from repro.sim.system import CmpSystem

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the faulty workers rely on fork-propagated monkeypatches",
)


def make_job(job_id, policy, names=("vpr", "art")):
    return Job(job_id, "alice", parallel.group_spec(names, policy, 600, 150, 0), 1.0)


def spec_keys(spec):
    return {key for key in CmpSystem.prewarm_keys(*spec.build()) if key is not None}


@pytest.fixture(autouse=True)
def empty_memo():
    CmpSystem._prewarm_memo.clear()
    yield
    CmpSystem._prewarm_memo.clear()


def _build_then_die(spec, heartbeats=None):
    CmpSystem(*spec.build())
    os.kill(os.getpid(), signal.SIGKILL)


def _build_then_fail(spec, heartbeats=None):
    CmpSystem(*spec.build())
    raise ValueError("fault after the build")


def _build_then_hang(spec, heartbeats=None):
    CmpSystem(*spec.build())
    time.sleep(60)


class TestImageExchange:
    def test_later_job_is_handed_the_images_an_earlier_worker_built(
        self, monkeypatch
    ):
        first = make_job(1, "FR-FCFS")
        second = make_job(2, "FQ-VFTF")
        expected = {}
        for job in (first, second):
            CmpSystem._prewarm_memo.clear()
            expected[job.job_id] = result_to_json(parallel.execute_spec(job.spec))
        CmpSystem._prewarm_memo.clear()

        executor = ProcessJobExecutor(timeout_s=60.0)
        handed = []
        real = executor._run_subprocess

        def spy(job, images):
            handed.append(set(images))
            return real(job, images)

        monkeypatch.setattr(executor, "_run_subprocess", spy)
        results = {}
        results[1] = asyncio.run(executor.run(first))
        assert set(CmpSystem._prewarm_memo) == spec_keys(first.spec)
        results[2] = asyncio.run(executor.run(second))
        assert spec_keys(second.spec) == spec_keys(first.spec)
        assert handed == [set(), spec_keys(first.spec)]
        assert set(CmpSystem._prewarm_memo) == spec_keys(first.spec)
        assert {i: result_to_json(r) for i, r in results.items()} == expected

    @needs_fork
    @pytest.mark.parametrize(
        "fault, timeout_s, error",
        [
            (_build_then_die, 60.0, WorkerCrashError),
            (_build_then_hang, 2.0, WorkerCrashError),
            (_build_then_fail, 60.0, RuntimeError),
        ],
        ids=["sigkill", "timeout", "error"],
    )
    def test_failed_worker_adds_nothing(self, monkeypatch, fault, timeout_s, error):
        monkeypatch.setattr(parallel, "execute_spec", fault)
        executor = ProcessJobExecutor(timeout_s=timeout_s)
        with pytest.raises(error):
            asyncio.run(executor.run(make_job(1, "FR-FCFS")))
        assert not CmpSystem._prewarm_memo

"""The asyncio experiment orchestrator: fair dispatch over a worker pool.

:class:`ExperimentService` accepts sweep submissions from named
tenants, expands them to deduplicated :class:`~repro.sim.parallel.
RunSpec` jobs, and drains the :class:`~repro.serve.queue.FairJobQueue`
across a bounded pool of worker *subprocesses* — one process per job,
so a crash (OOM kill, segfault, chaos test) takes down exactly one job
and is detected by the parent as :class:`~repro.sim.retry.
WorkerCrashError`, classified and resubmitted with the same bounded
:class:`~repro.sim.retry.RetryPolicy` backoff ``run_many`` uses.

Caching goes through ``run_many``'s own lookup chain
(:func:`repro.sim.runner.lookup`: memo → disk cache → result store),
checked at submit *and* again at dispatch (so duplicate jobs queued
concurrently — two tenants submitting overlapping grids — collapse to
one simulation and the rest serve as ``cached``).  Every completed
result lands in all three layers, which is what makes a resubmitted
sweep 100% cache-served.

Live progress uses :mod:`repro.obs.fleet`: workers heartbeat
simulated-cycle progress over a Manager queue into a
:class:`~repro.obs.fleet.FleetState`, whose render *is* the
``repro-fqms status`` dashboard and the ``repro-fqms sweep --progress``
view.  Per-tenant busy-seconds, MISE-style slowdowns, and the
unfairness headline flow into a
:class:`~repro.obs.registry.MetricsRegistry` — the same metrics
surface the simulator's own observability uses.
"""

from __future__ import annotations

import asyncio
import traceback
from typing import Any, Dict, List, Optional, Tuple

from .. import env
from ..obs import fleet
from ..obs.registry import MetricsRegistry
from ..sim import parallel, runner
from ..sim.retry import RetryPolicy, WorkerCrashError
from ..sim.system import CmpSystem, SimResult
from . import clock
from .queue import FairJobQueue, Job
from .spec import SweepSpec, job_cost
from .store import ResultStore

#: Environment knobs (declared in repro.env; README-documented).
WORKERS_ENV_VAR = "REPRO_SERVE_WORKERS"
TIMEOUT_ENV_VAR = "REPRO_SERVE_TIMEOUT"

DEFAULT_WORKERS = 2
DEFAULT_TIMEOUT_S = 600.0

#: How often the scheduler wakes to pump heartbeats when nothing else
#: wakes it (job finish, requeue and submit dispatch at once).
_TICK_S = 0.02


def default_workers() -> int:
    return env.positive_int(WORKERS_ENV_VAR, DEFAULT_WORKERS)


def default_timeout_s() -> float:
    return env.positive_float(TIMEOUT_ENV_VAR, DEFAULT_TIMEOUT_S)


# -- the per-job worker subprocess ----------------------------------------


def _child_main(
    spec: parallel.RunSpec, images: Dict[Tuple, bytes], conn: Any, queue: Any
) -> None:
    """Worker entry: simulate one spec, send ('ok', (result, images)) | ('err', tb).

    ``images`` are the warm-L2 images the parent holds for the spec's
    cores; the ones this run builds go back with the result (see
    :func:`repro.sim.parallel.execute_exchanging`).  A worker that dies
    (or is killed) before sending anything is the crash signature the
    parent classifies as retryable; a simulation exception travels back
    as a deterministic ``err`` and is *not* retried.  ``queue`` carries
    the run's progress heartbeats (None: no heartbeats).
    """
    try:
        result = parallel.execute_exchanging(spec, images, queue)
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


class ProcessJobExecutor:
    """Runs each job in its own subprocess with a wall-clock timeout.

    One process per job (not a shared pool) is deliberate: a kill
    affects exactly one job, the pid is known for status displays and
    chaos tests, and a timeout can hard-kill the worker without
    poisoning siblings.  Each worker is handed the warm-L2 images this
    process holds for its job and returns the ones it built, so only
    the first build of each core image pays a cold warm-up.
    Environments that cannot fork degrade to in-thread execution (no
    timeout, no crash isolation — but sweeps still complete, matching
    ``run_many``'s inline fallback).
    """

    def __init__(self, timeout_s: Optional[float] = None, heartbeat_queue: Any = None):
        self.timeout_s = timeout_s
        self.heartbeat_queue = heartbeat_queue
        #: job_id -> live worker pid (chaos tests kill from here).
        self.pids: Dict[int, int] = {}

    async def run(self, job: Job) -> SimResult:
        # The memo is read here and written below, both on the event
        # loop's thread, so concurrent jobs need no lock around it.
        images = parallel.spec_images(job.spec)
        try:
            result, built = await asyncio.to_thread(
                self._run_subprocess, job, images
            )
        except (OSError, PermissionError, NotImplementedError):
            # No subprocesses in this sandbox: run inline.
            return await asyncio.to_thread(parallel.execute_spec, job.spec)
        CmpSystem.adopt_images(built)
        return result

    def _run_subprocess(
        self, job: Job, images: Dict[Tuple, bytes]
    ) -> Tuple[SimResult, Dict[Tuple, bytes]]:
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_child_main,
            args=(job.spec, images, child_conn, self.heartbeat_queue),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if process.pid is not None:
            self.pids[job.job_id] = process.pid
        try:
            return self._await_worker(job, process, parent_conn)
        finally:
            self.pids.pop(job.job_id, None)
            parent_conn.close()
            if process.is_alive():
                process.kill()
            process.join()

    def _await_worker(
        self, job: Job, process: Any, conn: Any
    ) -> Tuple[SimResult, Dict[Tuple, bytes]]:
        timeout_s = self.timeout_s
        deadline = clock.monotonic() + timeout_s if timeout_s else None
        while True:
            if conn.poll(0.05):
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashError(
                        f"worker for job {job.job_id} closed its pipe "
                        "without a result"
                    )
                if kind == "ok":
                    return payload
                raise RuntimeError(
                    f"job {job.job_id} ({parallel.run_label(job.spec)}) "
                    f"failed in its worker:\n{payload}"
                )
            if not process.is_alive():
                if conn.poll(0):
                    continue  # final message raced process exit
                raise WorkerCrashError(
                    f"worker for job {job.job_id} exited "
                    f"(code {process.exitcode}) without a result"
                )
            if deadline is not None and clock.monotonic() >= deadline:
                process.kill()
                process.join()
                raise WorkerCrashError(
                    f"worker for job {job.job_id} timed out "
                    f"after {timeout_s:g}s and was killed"
                )


# -- the orchestrator ------------------------------------------------------


class ExperimentService:
    """Fair-queued async job orchestrator over the result store.

    ``executor`` is injectable for tests: any object with
    ``async run(job) -> SimResult`` (raising
    :class:`~repro.sim.retry.WorkerCrashError` for retryable deaths)
    and an optional ``pids`` mapping.
    """

    def __init__(
        self,
        root: Any,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        executor: Optional[Any] = None,
    ):
        from pathlib import Path

        self.root = Path(root).expanduser()
        self.workers = workers if workers is not None else default_workers()
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self.timeout_s = (
            timeout_s if timeout_s is not None else default_timeout_s()
        )
        self.retry = (
            retry_policy if retry_policy is not None else RetryPolicy.from_env()
        )
        self.store = ResultStore(self.root / "store")
        self.queue = FairJobQueue()
        self.state = fleet.FleetState()
        self.registry = MetricsRegistry()
        self.jobs: Dict[int, Job] = {}
        self._manager: Any = None
        self._heartbeats: Optional[fleet.FleetMonitor] = None
        if executor is None:
            queue = self._make_heartbeat_queue()
            executor = ProcessJobExecutor(self.timeout_s, heartbeat_queue=queue)
        self.executor = executor
        self._running: Dict[int, "asyncio.Task[None]"] = {}
        self._outstanding = 0
        self._stopping = False
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._idle: Optional[asyncio.Event] = None
        #: Set when a slot frees or a job becomes ready: wakes the
        #: scheduler before its tick.
        self._wake: Optional[asyncio.Event] = None
        #: Terminal-state tallies (the manifest/status surface).
        self.counts: Dict[str, int] = {
            "submitted": 0, "cached": 0, "done": 0,
            "retried": 0, "lost": 0, "error": 0,
        }

    def _make_heartbeat_queue(self) -> Any:
        """A Manager queue for worker heartbeats, or None (degraded)."""
        try:
            from multiprocessing import Manager

            self._manager = Manager()
            queue = self._manager.Queue()
        except (OSError, PermissionError, NotImplementedError):
            return None
        self._heartbeats = fleet.FleetMonitor(queue, state=self.state)
        return queue

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._scheduler_task is not None:
            return
        self._idle = asyncio.Event()
        self._idle.set()
        self._wake = asyncio.Event()
        self._scheduler_task = asyncio.create_task(self._scheduler())

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: optionally drain, then stop the scheduler."""
        if drain:
            await self.drain()
        self._stopping = True
        task = self._scheduler_task
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        for running in list(self._running.values()):
            running.cancel()
        if self._running:
            await asyncio.gather(*self._running.values(), return_exceptions=True)
            self._running.clear()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    async def drain(self) -> None:
        """Wait until every submitted job has reached a terminal state."""
        idle = self._idle
        if idle is not None:
            await idle.wait()

    # -- submission --------------------------------------------------------

    def submit_sweep(
        self, tenant: str, sweep: SweepSpec, share: float = 1.0
    ) -> Dict[str, Any]:
        """Expand, dedupe, and enqueue one sweep; returns the ticket.

        ``sweep`` validated its whole grid when it was built, and a bad
        ``share`` raises before any run is queued, so a rejected
        submission leaves nothing behind.
        """
        specs = sweep.expand()
        self.queue.tenant(tenant, weight=share)
        queued: List[int] = []
        cached = 0
        for spec in specs:
            hit = runner.lookup(spec, self.store)
            if hit is not None:
                self.store.record(spec, hit, source="cache", tenant=tenant)
                self._observe(parallel.run_label(spec), "cached", spec)
                cached += 1
                continue
            job = self.queue.submit(tenant, spec, job_cost(spec))
            job.submitted_s = clock.monotonic()
            self.jobs[job.job_id] = job
            self.state.expect(self._run_id(job))
            self._outstanding += 1
            if self._idle is not None:
                self._idle.clear()
            queued.append(job.job_id)
        self.counts["submitted"] += len(specs)
        self.counts["cached"] += cached
        if queued:
            self._wake_scheduler()
        return {
            "tenant": tenant,
            "share": share,
            "runs": len(specs),
            "queued": len(queued),
            "cached": cached,
            "job_ids": queued,
        }

    # -- scheduling --------------------------------------------------------

    @staticmethod
    def _run_id(job: Job) -> str:
        return parallel.run_label(job.spec)

    def _observe(
        self, run_id: str, state: str, spec: parallel.RunSpec
    ) -> None:
        total = spec.warmup + spec.cycles
        cycle = total if state in ("done", "cached") else 0
        self.state.observe(fleet.heartbeat_event(run_id, state, cycle, total))

    def _wake_scheduler(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _scheduler(self) -> None:
        wake = self._wake
        assert wake is not None
        loop = asyncio.get_running_loop()
        while True:
            if self._heartbeats is not None:
                self._heartbeats.pump()
            while len(self._running) < self.workers:
                job = self.queue.pop()
                if job is None:
                    break
                task = asyncio.create_task(self._run_job(job))
                self._running[job.job_id] = task
            # No await since the dispatch pass: a wake set from here on
            # is one it has not seen.  (Not asyncio.wait_for: before
            # Python 3.12 it can swallow the cancel ``stop`` sends.)
            wake.clear()
            tick = loop.call_later(_TICK_S, wake.set)
            try:
                await wake.wait()
            finally:
                tick.cancel()

    async def _run_job(self, job: Job) -> None:
        try:
            await self._execute(job)
        finally:
            self._running.pop(job.job_id, None)
            self._wake_scheduler()

    async def _execute(self, job: Job) -> None:
        run_id = self._run_id(job)
        # Dispatch-time dedupe: a duplicate queued while its twin ran
        # is served from the caches the twin just filled.
        hit = runner.lookup(job.spec, self.store)
        if hit is not None:
            self.store.record(
                job.spec, hit, source="cache",
                tenant=job.tenant, attempts=job.attempts,
            )
            job.state = "cached"
            self.counts["cached"] += 1
            self._observe(run_id, "cached", job.spec)
            self._finish(job)
            return
        job.attempts += 1
        job.state = "running"
        job.started_s = clock.monotonic()
        self._observe(run_id, "running", job.spec)
        try:
            result = await self.executor.run(job)
        except WorkerCrashError as exc:
            self._crashed(job, exc)
            return
        except asyncio.CancelledError:
            job.state = "lost"
            job.error = "service shut down mid-run"
            self.counts["lost"] += 1
            self._observe(run_id, "lost", job.spec)
            self._finish(job)
            raise
        except Exception:
            job.state = "error"
            job.error = traceback.format_exc()
            self.counts["error"] += 1
            self._observe(run_id, "error", job.spec)
            self._finish(job)
            return
        finished_s = clock.monotonic()
        job.busy_s += finished_s - job.started_s
        self._record_success(job, result)
        self.queue.charge(job, job.busy_s, finished_s - job.submitted_s)
        job.state = "done"
        self.counts["done"] += 1
        self._observe(run_id, "done", job.spec)
        self._finish(job)

    def _crashed(self, job: Job, exc: WorkerCrashError) -> None:
        run_id = self._run_id(job)
        if self.retry.should_retry(job.attempts):
            job.state = "retried"
            self.counts["retried"] += 1
            self._observe(run_id, "retried", job.spec)
            delay = self.retry.delay_s(job.attempts)
            asyncio.get_running_loop().create_task(
                self._requeue_later(job, delay)
            )
        else:
            job.state = "lost"
            job.error = str(exc)
            self.counts["lost"] += 1
            self._observe(run_id, "lost", job.spec)
            self._finish(job)

    async def _requeue_later(self, job: Job, delay_s: float) -> None:
        if delay_s > 0:
            await asyncio.sleep(delay_s)
        self.queue.requeue(job)
        self._wake_scheduler()

    def _record_success(self, job: Job, result: SimResult) -> None:
        runner.remember(job.spec, result)
        self.store.record(
            job.spec, result, source="fresh",
            tenant=job.tenant, attempts=job.attempts - 1,
        )

    def _finish(self, job: Job) -> None:
        self._outstanding -= 1
        if self._outstanding <= 0 and self._idle is not None:
            self._idle.set()

    # -- introspection -----------------------------------------------------

    def worker_pids(self) -> Dict[int, int]:
        """Live job_id → pid (empty for inline/injected executors)."""
        return dict(getattr(self.executor, "pids", {}) or {})

    def fairness_metrics(self) -> Dict[str, float]:
        """Tenant fairness headline, mirrored into the obs registry."""
        metrics = self.queue.fairness()
        for name, value in metrics.items():
            self.registry.gauge(f"serve.{name}", value)
        return metrics

    def status(self) -> Dict[str, Any]:
        """The queryable service snapshot (the ``status`` op's payload)."""
        if self._heartbeats is not None:
            self._heartbeats.pump()
        tenants = {
            name: {
                "share": account.weight,
                "submitted": account.submitted,
                "finished": account.finished,
                "queued": account.queued,
                "busy_s": account.busy_s,
                "slowdown": account.slowdown,
            }
            for name, account in sorted(self.queue.tenants.items())
        }
        return {
            "workers": self.workers,
            "queued": len(self.queue),
            "running": sorted(self._running),
            "worker_pids": {
                str(job_id): pid
                for job_id, pid in sorted(self.worker_pids().items())
            },
            "counts": dict(self.counts),
            "outstanding": self._outstanding,
            "virtual_time": self.queue.virtual_time,
            "tenants": tenants,
            "fairness": self.fairness_metrics(),
            "store_runs": len(self.store),
            "store_problems": list(self.store.problems),
            "dashboard": self.state.render(),
        }

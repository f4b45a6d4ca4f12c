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

Live progress rides each job's result pipe: the worker samples its
simulated cycle (:func:`repro.sim.parallel.execute_spec`) and the
executor stores the latest sample on the :class:`~repro.serve.queue.
Job`.  :func:`dashboard` renders the job records, plus the runs served
from cache at submit time, as the ``repro-fqms status`` dashboard and
the ``repro-fqms sweep --progress`` view.  Per-tenant busy-seconds,
MISE-style slowdowns, and the unfairness headline come from
:meth:`FairJobQueue.fairness <repro.serve.queue.FairJobQueue.fairness>`
and ride ``status()`` as its ``fairness`` block.
"""

from __future__ import annotations

import asyncio
import traceback
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .. import env
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

#: Job states that end a run's dashboard row.
TERMINAL_STATES = ("done", "cached", "error", "lost")

#: Characters in a dashboard row's progress bar.
BAR_WIDTH = 16


def default_workers() -> int:
    return env.positive_int(WORKERS_ENV_VAR, DEFAULT_WORKERS)


def default_timeout_s() -> float:
    return env.positive_float(TIMEOUT_ENV_VAR, DEFAULT_TIMEOUT_S)


# -- the per-job worker subprocess ----------------------------------------


def _child_main(
    spec: parallel.RunSpec, images: Dict[Tuple, bytes], conn: Any
) -> None:
    """Worker entry: simulate one spec, send ('ok', (result, images)) | ('err', tb).

    ``images`` are the warm-L2 images the parent holds for the spec's
    cores; the ones this run builds go back with the result (see
    :func:`repro.sim.parallel.execute_exchanging`).  ``('progress',
    cycle)`` samples precede the result on the same pipe.  A worker
    that dies (or is killed) before sending a result is the crash
    signature the parent classifies as retryable; a simulation
    exception travels back as a deterministic ``err`` and is *not*
    retried.
    """
    try:
        result = parallel.execute_exchanging(spec, images, conn)
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

    def __init__(self, timeout_s: Optional[float] = None):
        self.timeout_s = timeout_s
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
            args=(job.spec, images, child_conn),
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
                if kind == "err":
                    raise RuntimeError(
                        f"job {job.job_id} ({parallel.run_label(job.spec)}) "
                        f"failed in its worker:\n{payload}"
                    )
                job.progress = payload
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
        self.jobs: Dict[int, Job] = {}
        #: Run labels served from cache at submit time: they never
        #: become jobs, but the dashboard shows them.
        self.cache_hits: Set[str] = set()
        if executor is None:
            executor = ProcessJobExecutor(self.timeout_s)
        self.executor = executor
        self._running: Dict[int, "asyncio.Task[None]"] = {}
        self._outstanding = 0
        self._stopping = False
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._idle: Optional[asyncio.Event] = None
        #: Set when a slot frees or a job becomes ready: wakes the
        #: scheduler.
        self._wake: Optional[asyncio.Event] = None
        #: Terminal-state tallies (the manifest/status surface).
        self.counts: Dict[str, int] = {
            "submitted": 0, "cached": 0, "done": 0,
            "retried": 0, "lost": 0, "error": 0,
        }

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
                self.cache_hits.add(parallel.run_label(spec))
                cached += 1
                continue
            job = self.queue.submit(tenant, spec, job_cost(spec))
            job.submitted_s = clock.monotonic()
            self.jobs[job.job_id] = job
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

    def _wake_scheduler(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _scheduler(self) -> None:
        wake = self._wake
        assert wake is not None
        while True:
            while len(self._running) < self.workers:
                job = self.queue.pop()
                if job is None:
                    break
                task = asyncio.create_task(self._run_job(job))
                self._running[job.job_id] = task
            # No await since the dispatch pass: a wake set from here on
            # is one it has not seen.
            wake.clear()
            await wake.wait()

    async def _run_job(self, job: Job) -> None:
        try:
            await self._execute(job)
        finally:
            self._running.pop(job.job_id, None)
            self._wake_scheduler()

    async def _execute(self, job: Job) -> None:
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
            self._finish(job)
            return
        job.attempts += 1
        job.state = "running"
        job.progress = 0
        job.started_s = clock.monotonic()
        try:
            result = await self.executor.run(job)
        except WorkerCrashError as exc:
            self._crashed(job, exc)
            return
        except asyncio.CancelledError:
            job.state = "lost"
            job.error = "service shut down mid-run"
            self.counts["lost"] += 1
            self._finish(job)
            raise
        except Exception:
            job.state = "error"
            job.error = traceback.format_exc()
            self.counts["error"] += 1
            self._finish(job)
            return
        finished_s = clock.monotonic()
        job.busy_s += finished_s - job.started_s
        self._record_success(job, result)
        self.queue.charge(job, job.busy_s, finished_s - job.submitted_s)
        job.state = "done"
        self.counts["done"] += 1
        self._finish(job)

    def _crashed(self, job: Job, exc: WorkerCrashError) -> None:
        if self.retry.should_retry(job.attempts):
            job.state = "retried"
            self.counts["retried"] += 1
            delay = self.retry.delay_s(job.attempts)
            asyncio.get_running_loop().create_task(
                self._requeue_later(job, delay)
            )
        else:
            job.state = "lost"
            job.error = str(exc)
            self.counts["lost"] += 1
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
        """Tenant fairness headline (:meth:`FairJobQueue.fairness`)."""
        return self.queue.fairness()

    def status(self) -> Dict[str, Any]:
        """The queryable service snapshot (the ``status`` op's payload)."""
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
            "dashboard": dashboard(self.jobs.values(), self.cache_hits),
        }


def _stage(state: str) -> int:
    """How far a run in ``state`` has got: queued 0, started 1, ended 2."""
    return (state != "queued") + (state in TERMINAL_STATES)


def dashboard(jobs: Iterable[Job], cache_hits: Iterable[str] = ()) -> str:
    """The fleet dashboard: one progress line per run, by run label.

    ``cache_hits`` are the labels of runs served from cache at submit
    time.  Jobs that share a label (a run submitted twice) share a row,
    which shows the one that got furthest, the earliest of equals.  A
    done or cached row reads 100%; any other shows the job's last
    progress sample.
    """
    rows: Dict[str, Tuple[str, float]] = {
        label: ("cached", 1.0) for label in sorted(cache_hits)
    }
    for job in jobs:
        label = parallel.run_label(job.spec)
        held = rows.get(label)
        if held is not None and _stage(held[0]) >= _stage(job.state):
            continue
        if job.state in ("done", "cached"):
            fraction = 1.0
        else:
            fraction = job.progress / (job.spec.warmup + job.spec.cycles)
        rows[label] = (job.state, fraction)
    finished = sum(state in TERMINAL_STATES for state, _ in rows.values())
    lines = [f"fleet: {finished}/{len(rows)} runs finished"]
    label_width = max((len(label) for label in rows), default=0)
    for label in sorted(rows):
        state, fraction = rows[label]
        bar = ("#" * round(fraction * BAR_WIDTH)).ljust(BAR_WIDTH)
        lines.append(
            f"  {label.ljust(label_width)}  [{bar}] {fraction * 100.0:5.1f}%  {state}"
        )
    return "\n".join(lines)

"""Parallel fan-out of independent simulation runs.

The evaluation sweeps are embarrassingly parallel: every (workload,
policy, window, seed) run is independent and deterministic, so the
only engineering is deduplicating identical run specs, skipping the
ones a cache already holds, and farming the misses out across cores.

:class:`RunSpec` is the declarative unit of work — it names *what* to
run (solo baseline or co-scheduled group) without holding any live
simulator state, so it is hashable (dedup), picklable (process pools)
and fingerprintable (the disk cache).  :func:`run_many` executes a
batch of specs with a ``ProcessPoolExecutor`` and feeds every result
back into both cache layers, so subsequent :func:`~repro.sim.runner.
run_solo` / :func:`~repro.sim.runner.run_group` calls are pure memo
hits.

Determinism: workload RNGs are seeded from (name, seed, base address)
only, so a child process simulates the exact same machine as the
parent would; ``run_many(jobs=4)`` returns bit-identical results to
``jobs=1``.  With ``jobs=1`` (the default) no pool is created and
everything runs in-process.

Warm L2 images cross the process boundary both ways: a worker is handed
the images the parent holds for its spec's cores and returns the ones it
built (:func:`execute_exchanging`), so only the first build of each core
image pays a cold warm-up.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import env
from ..obs import fleet, manifest_dir
from ..policy import BASELINE_POLICY, canonical
from ..workloads.spec2000 import profile as lookup_profile
from ..workloads.synthetic import BenchmarkProfile
from . import cache as result_cache
from .config import SystemConfig
from .retry import RetryPolicy, is_worker_crash
from .system import CmpSystem, SimResult


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, by value.

    ``kind`` is ``"solo"`` (one benchmark on a private, possibly
    time-scaled memory system under FR-FCFS — the paper's baseline) or
    ``"group"`` (the named benchmarks co-scheduled under ``policy``).
    Profiles are referenced by registered name so specs stay tiny and
    picklable; content enters through the fingerprint.
    """

    kind: str
    names: Tuple[str, ...]
    policy: str
    scale: float
    cycles: int
    warmup: int
    seed: int
    #: Per-thread service shares φᵢ for group runs (None = equal
    #: shares, the historical behaviour — and the historical
    #: fingerprint, since shares enter it through ``SystemConfig``).
    shares: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("solo", "group"):
            raise ValueError(f"kind must be 'solo' or 'group', got {self.kind!r}")
        if self.kind == "solo" and len(self.names) != 1:
            raise ValueError("solo specs take exactly one benchmark name")
        if self.shares is not None:
            if self.kind != "group":
                raise ValueError("shares only apply to group specs")
            if len(self.shares) != len(self.names):
                raise ValueError(
                    f"{len(self.shares)} shares for {len(self.names)} benchmarks"
                )
            for share in self.shares:
                if share <= 0:
                    raise ValueError(f"shares must be positive, got {share}")
            # Normalize arbitrary positive weights into φ fractions
            # summing to 1 (the controller's register convention), so
            # (4, 1) and (0.8, 0.2) describe — and fingerprint as —
            # the same run.
            total = float(sum(float(s) for s in self.shares))
            object.__setattr__(
                self, "shares", tuple(float(s) / total for s in self.shares)
            )
        # Canonicalize through the registry: a typo fails here with the
        # full list of registered names (not deep inside a worker), and
        # spelling variants ("fq_vftf" vs "FQ-VFTF") dedup to one run.
        object.__setattr__(self, "policy", canonical(self.policy))

    def build(self) -> Tuple[SystemConfig, List[BenchmarkProfile]]:
        """Materialize the (config, profiles) pair this spec describes."""
        profiles = [lookup_profile(name) for name in self.names]
        if self.kind == "solo":
            config = SystemConfig(
                num_cores=1, policy=BASELINE_POLICY, seed=self.seed
            )
            if self.scale != 1.0:
                config = config.scaled_baseline(self.scale)
        else:
            config = SystemConfig(
                num_cores=len(profiles),
                policy=self.policy,
                shares=list(self.shares) if self.shares is not None else None,
                seed=self.seed,
            )
        return config, profiles

    def fingerprint(self) -> str:
        """Disk-cache key (config + profile content + window + seed + salt)."""
        config, profiles = self.build()
        return result_cache.fingerprint(
            config, profiles, self.cycles, self.warmup, self.seed
        )


def solo_spec(
    name: str, scale: float, cycles: int, warmup: int, seed: int
) -> RunSpec:
    return RunSpec("solo", (name,), BASELINE_POLICY, scale, cycles, warmup, seed)


def group_spec(
    names: Sequence[str],
    policy: str,
    cycles: int,
    warmup: int,
    seed: int,
    shares: Optional[Sequence[float]] = None,
) -> RunSpec:
    return RunSpec(
        "group",
        tuple(names),
        policy,
        1.0,
        cycles,
        warmup,
        seed,
        shares=tuple(shares) if shares is not None else None,
    )


def run_label(spec: RunSpec) -> str:
    """Human-readable fleet-dashboard id for ``spec``."""
    label = f"{'+'.join(spec.names)}:{spec.policy}@s{spec.seed}"
    if spec.shares is not None:
        label += "/phi" + ",".join(f"{s:g}" for s in spec.shares)
    return label


def execute_spec(spec: RunSpec) -> SimResult:
    """Simulate ``spec`` from scratch (no cache layers consulted)."""
    config, profiles = spec.build()
    system = CmpSystem(config, profiles)
    # Progress heartbeats ride a side thread sampling ``system.now``;
    # the simulation itself is untouched (chunking the run to emit
    # between chunks would change the engine_* extras and fork cached
    # results — see repro.obs.fleet).
    queue = fleet.worker_queue()
    heartbeat = None
    if queue is not None:
        heartbeat = fleet.WorkerHeartbeat(
            queue, run_label(spec), spec.warmup + spec.cycles
        )
        heartbeat.start(system)
    try:
        result = system.run(spec.cycles, warmup=spec.warmup)
    except BaseException:
        if heartbeat is not None:
            heartbeat.finish("error")
        raise
    if heartbeat is not None:
        heartbeat.finish("done")
    out_dir = manifest_dir()
    if out_dir:
        _write_run_manifest(out_dir, spec, result)
    return result


def spec_images(spec: RunSpec) -> Dict[Tuple, bytes]:
    """The warm-L2 images this process holds for ``spec``'s cores."""
    return CmpSystem.prewarm_images(CmpSystem.prewarm_keys(*spec.build()))


def execute_exchanging(
    spec: RunSpec, images: Dict[Tuple, bytes]
) -> Tuple[SimResult, Dict[Tuple, bytes]]:
    """Worker side of the warm-L2 image exchange: simulate ``spec``.

    ``images`` (the parent's :func:`spec_images`) are adopted into this
    process's memo first, so their cores restore instead of warming.
    Returns the result and the images this run built — ``spec``'s keys
    that this process did not hold before — for the parent to adopt and
    hand to later workers.  Images are pickled bytes and travel as
    arguments and results, never through fork inheritance.
    """
    CmpSystem.adopt_images(images)
    keys = CmpSystem.prewarm_keys(*spec.build())
    held = CmpSystem.prewarm_images(keys)
    result = execute_spec(spec)
    built = [key for key in keys if key not in held]
    return result, CmpSystem.prewarm_images(built)


def _write_run_manifest(out_dir: str, spec: RunSpec, result) -> None:
    """Best-effort per-run manifest (REPRO_OBS_MANIFEST): never fatal."""
    from ..obs.manifest import emit_run_manifest

    try:
        emit_run_manifest(
            out_dir,
            fingerprint=spec.fingerprint(),
            policy=spec.policy,
            workload=spec.names,
            cycles=spec.cycles,
            warmup=spec.warmup,
            seed=spec.seed,
            result=result,
            source="fresh",
        )
    except OSError:
        pass


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified (``REPRO_JOBS``, else 1)."""
    try:
        jobs = int(env.text("REPRO_JOBS", "1"))
    except ValueError:
        return 1
    return max(1, jobs)


def resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return default_jobs()
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def run_many(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    monitor: Optional["fleet.FleetMonitor"] = None,
    store: Optional[Any] = None,
) -> Dict[RunSpec, SimResult]:
    """Execute ``specs`` (deduplicated), returning spec → result.

    Cache discipline: the in-process memo is consulted first, then the
    disk cache, then ``store`` (a :class:`repro.serve.store.ResultStore`
    or anything with its ``get_result``/``record`` surface); only
    genuine misses are simulated — in this process when ``jobs``
    resolves to 1, otherwise fanned out across a process pool.  Every
    result (loaded or fresh) is written back to the memo, fresh results
    to the disk cache, and — when a store is given — every spec's
    result is recorded into the store, by the parent process.

    ``monitor`` (a :class:`repro.obs.fleet.FleetMonitor`) streams live
    progress: cache-served specs report ``cached`` immediately, and
    simulated specs heartbeat from their workers through the monitor's
    queue.  Purely observational — results are identical with or
    without it.

    Robustness: a worker process that dies mid-run (the stdlib pool
    signals ``BrokenProcessPool``) does not lose its specs — the
    unfinished remainder is resubmitted to a fresh pool with backoff,
    up to :class:`~repro.sim.retry.RetryPolicy`'s budget
    (``REPRO_SERVE_RETRIES``), and runs inline as a last resort so a
    batch always completes with every result present.
    """
    from . import runner  # runner imports this module; bind lazily

    jobs = resolve_jobs(jobs)
    ordered = list(dict.fromkeys(specs))
    disk = result_cache.active_cache()
    results: Dict[RunSpec, SimResult] = {}
    misses: List[RunSpec] = []
    for spec in ordered:
        source = "memo"
        hit = runner.memo_get(spec)
        if hit is None and disk is not None:
            hit = disk.get(spec.fingerprint())
            source = "disk"
        if hit is None and store is not None:
            hit = store.get_result(spec)
            source = "store"
        if hit is not None:
            runner.memo_put(spec, hit)
            if source == "store" and disk is not None:
                disk.put(spec.fingerprint(), hit)
            results[spec] = hit
            if monitor is not None:
                # Through the queue (not the state directly) so the
                # monitor's update callback fires on the next pump.
                total = spec.warmup + spec.cycles
                fleet.post(
                    monitor.queue,
                    fleet.heartbeat_event(run_label(spec), "cached", total, total),
                )
        else:
            misses.append(spec)
    if monitor is not None:
        monitor.pump()

    if misses:
        if jobs == 1 or len(misses) == 1:
            fresh = _inline_execute(misses, monitor)
        else:
            fresh = _pool_execute(misses, jobs, monitor)

        for spec, result in fresh:
            runner.memo_put(spec, result)
            if disk is not None:
                disk.put(spec.fingerprint(), result)
            results[spec] = result

    if store is not None:
        fresh_specs = set(misses)
        for spec in ordered:
            store.record(
                spec,
                results[spec],
                source="fresh" if spec in fresh_specs else "cache",
            )
    return results


def _inline_execute(
    specs: Sequence[RunSpec], monitor: Optional["fleet.FleetMonitor"]
) -> List[Tuple[RunSpec, SimResult]]:
    """Execute ``specs`` in this process, heartbeating when monitored."""
    if monitor is None:
        return [(spec, execute_spec(spec)) for spec in specs]
    fleet.init_worker(monitor.queue)
    try:
        done = []
        for spec in specs:
            done.append((spec, execute_spec(spec)))
            monitor.pump()
        return done
    finally:
        fleet.init_worker(None)


def _pool_execute(
    specs: Sequence[RunSpec],
    jobs: int,
    monitor: Optional["fleet.FleetMonitor"] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> List[Tuple[RunSpec, SimResult]]:
    """Fan ``specs`` out over a process pool; survive crashed workers.

    A worker killed mid-run breaks the whole stdlib pool: its own spec
    and every still-pending spec surface as ``BrokenProcessPool``.  The
    completed results of the round are kept, the unfinished remainder
    is resubmitted to a *fresh* pool after a deterministic backoff
    (``retried`` heartbeats let dashboards show the resubmission), and
    once the :class:`~repro.sim.retry.RetryPolicy` budget is exhausted
    the stragglers run inline — so a deterministic crasher fails in the
    parent with the real error instead of looping, and a transient
    kill can never lose a run.

    Pool *construction* failures (no ``fork``, no semaphores — some CI
    sandboxes) fall back in-process at ``jobs=1`` speed, as before.
    """
    if retry_policy is None:
        retry_policy = RetryPolicy.from_env()
    done: List[Tuple[RunSpec, SimResult]] = []
    remaining: List[RunSpec] = list(specs)
    attempts = 0
    while remaining:
        try:
            finished, crashed = _pool_round(remaining, jobs, monitor)
        except (OSError, PermissionError, NotImplementedError):
            done.extend(_inline_execute(remaining, monitor))
            break
        done.extend(finished)
        if not crashed:
            break
        attempts += 1
        if not retry_policy.should_retry(attempts):
            # Budget exhausted: last resort is the parent's own process,
            # where a genuine per-spec fault raises the real exception.
            done.extend(_inline_execute(crashed, monitor))
            break
        if monitor is not None:
            for spec in crashed:
                total = spec.warmup + spec.cycles
                fleet.post(
                    monitor.queue,
                    fleet.heartbeat_event(run_label(spec), "retried", 0, total),
                )
            monitor.pump()
        time.sleep(retry_policy.delay_s(attempts))
        remaining = crashed
    # Report in submission order so downstream writes are deterministic
    # regardless of completion (and retry) order.
    order = {spec: i for i, spec in enumerate(specs)}
    done.sort(key=lambda pair: order[pair[0]])
    return done


def _pool_round(
    specs: Sequence[RunSpec],
    jobs: int,
    monitor: Optional["fleet.FleetMonitor"],
) -> Tuple[List[Tuple[RunSpec, SimResult]], List[RunSpec]]:
    """One pool generation: (completed results, crash-orphaned specs).

    Each spec is submitted with the warm-L2 images this process holds
    for it, and the images a finished worker built are adopted here, so
    later rounds and batches start warm.  Raises pool-construction
    errors (handled by the caller's inline fallback) and any genuine
    exception a simulation itself raised.
    """
    initializer = fleet.init_worker if monitor is not None else None
    initargs = (monitor.queue,) if monitor is not None else ()
    timeout = fleet.HEARTBEAT_INTERVAL_S if monitor is not None else None
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        futures = {
            pool.submit(execute_exchanging, spec, spec_images(spec)): spec
            for spec in specs
        }
        finished: List[Tuple[RunSpec, SimResult]] = []
        crashed: List[RunSpec] = []
        pending = set(futures)
        broken = False
        while pending and not broken:
            ready, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if monitor is not None:
                monitor.pump()
            for future in ready:
                exc = future.exception()
                if exc is None:
                    result, images = future.result()
                    CmpSystem.adopt_images(images)
                    finished.append((futures[future], result))
                elif is_worker_crash(exc):
                    crashed.append(futures[future])
                    broken = True
                else:
                    raise exc
        if broken:
            # The pool is dead: every still-pending future is doomed to
            # the same BrokenProcessPool; reclaim the specs directly
            # (walking the insertion-ordered dict keeps resubmission
            # order deterministic).
            crashed.extend(
                spec for future, spec in futures.items() if future in pending
            )
        return finished, crashed

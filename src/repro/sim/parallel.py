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
back through :func:`repro.sim.runner.remember`, so subsequent
:func:`~repro.sim.runner.run_solo` / :func:`~repro.sim.runner.run_group`
calls are pure memo hits.

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

import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import env
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
                # NaN fails every comparison, so test for it explicitly.
                if not (math.isfinite(share) and share > 0):
                    raise ValueError(
                        f"shares must be positive and finite, got {share}"
                    )
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
        # Benchmark names fail here for the same reason.
        object.__setattr__(self, "policy", canonical(self.policy))
        if not self.names:
            raise ValueError("a run needs at least one benchmark")
        for name in self.names:
            try:
                lookup_profile(name)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None

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
    """Human-readable fleet-dashboard id for ``spec``.

    Every field that changes the run is in it, the window (``c``
    cycles, ``w`` warmup) included, so the dashboard never folds two
    runs into one row.  Scale and shares print to six significant
    digits.
    """
    label = (
        f"{'+'.join(spec.names)}:{spec.policy}@s{spec.seed}"
        f"/c{spec.cycles}w{spec.warmup}"
    )
    if spec.kind == "solo":
        label += f"/solo{spec.scale:g}x"
    if spec.shares is not None:
        label += "/phi" + ",".join(f"{s:g}" for s in spec.shares)
    return label


#: Seconds between a worker's progress samples.
PROGRESS_INTERVAL_S = 0.2


def execute_spec(spec: RunSpec, progress: Any = None) -> SimResult:
    """Simulate ``spec`` afresh (no cache layers consulted).

    ``progress`` is the worker's result pipe, or None.  While the run
    lasts, a daemon thread sends ``("progress", system.now)`` on it
    every :data:`PROGRESS_INTERVAL_S` seconds; the simulation itself is
    untouched (chunking the run to report between chunks would change
    the engine_* extras and fork cached results).  The thread is joined
    before this returns, so the caller's result send is the pipe's only
    writer from then on, and a failed send ends the thread quietly.
    """
    config, profiles = spec.build()
    system = CmpSystem(config, profiles)
    if progress is None:
        return system.run(spec.cycles, warmup=spec.warmup)
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(PROGRESS_INTERVAL_S):
            try:
                progress.send(("progress", system.now))
            except OSError:
                return

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        return system.run(spec.cycles, warmup=spec.warmup)
    finally:
        stop.set()
        sampler.join()


def spec_images(spec: RunSpec) -> Dict[Tuple, bytes]:
    """The warm-L2 images this process holds for ``spec``'s cores."""
    return CmpSystem.prewarm_images(CmpSystem.prewarm_keys(*spec.build()))


def execute_exchanging(
    spec: RunSpec, images: Dict[Tuple, bytes], progress: Any = None
) -> Tuple[SimResult, Dict[Tuple, bytes]]:
    """Worker side of the warm-L2 image exchange: simulate ``spec``.

    ``images`` (the parent's :func:`spec_images`) are adopted into this
    process's memo first, so their cores restore instead of warming.
    Returns the result and the images this run built — ``spec``'s keys
    that this process did not hold before — for the parent to adopt and
    hand to later workers.  Images are pickled bytes and travel as
    arguments and results, never through fork inheritance.
    ``progress`` goes to :func:`execute_spec`.
    """
    CmpSystem.adopt_images(images)
    keys = CmpSystem.prewarm_keys(*spec.build())
    held = CmpSystem.prewarm_images(keys)
    result = execute_spec(spec, progress)
    built = [key for key in keys if key not in held]
    return result, CmpSystem.prewarm_images(built)


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified (``REPRO_JOBS``, else 1).

    A non-integer or non-positive ``REPRO_JOBS`` raises ``ValueError``.
    """
    return env.positive_int("REPRO_JOBS", 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return default_jobs()
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def run_many(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    store: Optional[Any] = None,
) -> Dict[RunSpec, SimResult]:
    """Execute ``specs`` (deduplicated), returning spec → result.

    Cache discipline: each spec is looked up through
    :func:`repro.sim.runner.lookup` (memo → disk cache → ``store``, a
    :class:`repro.serve.store.ResultStore` or anything with its
    ``get_result``/``record`` surface); only genuine misses are
    simulated — in this process when ``jobs`` resolves to 1, otherwise
    fanned out across a process pool — and written back through
    :func:`repro.sim.runner.remember`.  When a store is given, every
    spec's result is recorded into it, by the parent process.

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
    results: Dict[RunSpec, SimResult] = {}
    misses: List[RunSpec] = []
    for spec in ordered:
        hit = runner.lookup(spec, store)
        if hit is None:
            misses.append(spec)
        else:
            results[spec] = hit

    if misses:
        if jobs == 1 or len(misses) == 1:
            fresh = _inline_execute(misses)
        else:
            fresh = _pool_execute(misses, jobs)

        for spec, result in fresh:
            runner.remember(spec, result)
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


def _inline_execute(specs: Sequence[RunSpec]) -> List[Tuple[RunSpec, SimResult]]:
    """Execute ``specs`` in this process."""
    return [(spec, execute_spec(spec)) for spec in specs]


def _pool_execute(
    specs: Sequence[RunSpec],
    jobs: int,
    retry_policy: Optional[RetryPolicy] = None,
) -> List[Tuple[RunSpec, SimResult]]:
    """Fan ``specs`` out over a process pool; survive crashed workers.

    A worker killed mid-run breaks the whole stdlib pool: its own spec
    and every still-pending spec surface as ``BrokenProcessPool``.  The
    completed results of the round are kept, the unfinished remainder
    is resubmitted to a *fresh* pool after a deterministic backoff, and
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
            finished, crashed = _pool_round(remaining, jobs)
        except (OSError, PermissionError, NotImplementedError):
            done.extend(_inline_execute(remaining))
            break
        done.extend(finished)
        if not crashed:
            break
        attempts += 1
        if not retry_policy.should_retry(attempts):
            # Budget exhausted: last resort is the parent's own process,
            # where a genuine per-spec fault raises the real exception.
            done.extend(_inline_execute(crashed))
            break
        time.sleep(retry_policy.delay_s(attempts))
        remaining = crashed
    # Report in submission order so downstream writes are deterministic
    # regardless of completion (and retry) order.
    order = {spec: i for i, spec in enumerate(specs)}
    done.sort(key=lambda pair: order[pair[0]])
    return done


def _pool_round(
    specs: Sequence[RunSpec], jobs: int
) -> Tuple[List[Tuple[RunSpec, SimResult]], List[RunSpec]]:
    """One pool generation: (completed results, crash-orphaned specs).

    Each spec is submitted with the warm-L2 images this process holds
    for it, and the images a finished worker built are adopted here, so
    later rounds and batches start warm.  Raises pool-construction
    errors (handled by the caller's inline fallback) and any genuine
    exception a simulation itself raised.
    """
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = {
            pool.submit(execute_exchanging, spec, spec_images(spec)): spec
            for spec in specs
        }
        finished: List[Tuple[RunSpec, SimResult]] = []
        crashed: List[RunSpec] = []
        pending = set(futures)
        broken = False
        while pending and not broken:
            ready, pending = wait(pending, return_when=FIRST_COMPLETED)
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

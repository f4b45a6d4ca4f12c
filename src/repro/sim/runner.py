"""High-level run helpers: solo runs, co-scheduled runs, baselines.

The paper's experiments repeatedly need (a) each benchmark run alone
on a private memory system — possibly time-scaled — and (b) the same
benchmark co-scheduled under each scheduling policy.  Both are
memoized through two transparent layers: a per-process memo (same
object back, as the figure drivers expect) and the persistent disk
cache of :mod:`repro.sim.cache`, so repeated figure regenerations and
``pytest benchmarks/`` invocations stop re-simulating the world.
Batch sweeps go through :func:`repro.sim.parallel.run_many`, which
fans cache misses out across cores and seeds the same memo.

:func:`lookup` and :func:`remember` are the one read and write path
over those layers (plus an optional result store); ``run_many`` and
the experiment service use them too.

Run lengths default to a statistically stable but laptop-friendly
window; set ``REPRO_SIM_CYCLES`` to lengthen every run proportionally
for a higher-fidelity regeneration.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

from .. import env
from ..core.shares import equal_shares
from ..policy import BASELINE_POLICY
from ..workloads.spec2000 import profile as lookup_profile
from ..workloads.synthetic import BenchmarkProfile
from . import cache as result_cache
from .config import SystemConfig
from .parallel import RunSpec, execute_spec, group_spec, solo_spec
from .system import CmpSystem, SimResult

#: Default measurement window in cycles (override via REPRO_SIM_CYCLES).
DEFAULT_CYCLES = int(env.text("REPRO_SIM_CYCLES", "60000"))
#: Warmup fraction applied before the measurement window opens.
WARMUP_FRACTION = 0.25


def default_warmup(cycles: int) -> int:
    """Warmup cycles preceding a measurement window of ``cycles``."""
    return int(cycles * WARMUP_FRACTION)


#: Upper bound on memoized results (override via REPRO_MEMO_CAP).  The
#: default comfortably holds a full figure regeneration (hundreds of
#: runs) while bounding long-lived processes that sweep thousands of
#: configurations; eviction is least-recently-used.
MEMO_CAP_ENV_VAR = "REPRO_MEMO_CAP"
DEFAULT_MEMO_CAP = 4096


def _memo_cap() -> int:
    return env.positive_int(MEMO_CAP_ENV_VAR, DEFAULT_MEMO_CAP)


#: In-process memo: spec → result object (identity-stable per process
#: while resident; bounded LRU, see ``REPRO_MEMO_CAP``).
_memo: "OrderedDict[RunSpec, SimResult]" = OrderedDict()


def memo_get(spec: RunSpec) -> Optional[SimResult]:
    """The memoized result for ``spec``, if this process has one."""
    result = _memo.get(spec)
    if result is not None:
        _memo.move_to_end(spec)
    return result


def memo_put(spec: RunSpec, result: SimResult) -> None:
    """Install ``result`` as the canonical in-process result for ``spec``."""
    _memo[spec] = result
    _memo.move_to_end(spec)
    cap = _memo_cap()
    while len(_memo) > cap:
        _memo.popitem(last=False)


def clear_solo_cache() -> None:
    """Drop memoized runs (tests that vary global state use this).

    Clears the in-process layer only; the disk cache is content-keyed
    (config + profile content + code salt) so it never needs flushing
    for correctness.
    """
    _memo.clear()


def lookup(spec: RunSpec, store: Optional[Any] = None) -> Optional[SimResult]:
    """The known result for ``spec``: memo → disk cache → ``store``.

    ``store`` is anything with :class:`repro.serve.store.ResultStore`'s
    ``get_result``.  A hit in a colder layer is written back to every
    faster one; a miss in all of them returns None.
    """
    result = memo_get(spec)
    if result is not None:
        return result
    disk = result_cache.active_cache()
    if disk is not None:
        result = disk.get(spec.fingerprint())
    if result is None and store is not None:
        result = store.get_result(spec)
        if result is not None and disk is not None:
            disk.put(spec.fingerprint(), result)
    if result is not None:
        memo_put(spec, result)
    return result


def remember(spec: RunSpec, result: SimResult) -> None:
    """Write a freshly simulated ``result`` to the memo and the disk cache."""
    memo_put(spec, result)
    disk = result_cache.active_cache()
    if disk is not None:
        disk.put(spec.fingerprint(), result)


def _fetch(spec: RunSpec) -> SimResult:
    """Resolve ``spec`` through :func:`lookup`, else simulate it fresh."""
    result = lookup(spec)
    if result is None:
        result = execute_spec(spec)
        remember(spec, result)
    return result


def run_workload(
    profiles: Sequence[BenchmarkProfile],
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    shares: Optional[List[float]] = None,
    seed: int = 0,
    inversion_bound: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimResult:
    """Co-schedule ``profiles`` (one per core) under ``policy`` (uncached).

    ``engine`` overrides the simulation engine ("event" or "cycle");
    None defers to ``REPRO_ENGINE`` / the event default.  Use
    :func:`repro.telemetry.driver.run_traced` for a traced run.
    """
    kwargs = {} if engine is None else {"engine": engine}
    config = SystemConfig(
        num_cores=len(profiles),
        policy=policy,
        shares=shares,
        seed=seed,
        inversion_bound=inversion_bound,
        **kwargs,
    )
    if warmup is None:
        warmup = default_warmup(cycles)
    return CmpSystem(config, profiles).run(cycles, warmup=warmup)


def _registered(profile: BenchmarkProfile) -> bool:
    """True when ``profile`` is exactly the registered profile of its name."""
    try:
        return lookup_profile(profile.name) == profile
    except KeyError:
        return False


def run_solo(
    profile: BenchmarkProfile,
    scale: float = 1.0,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> SimResult:
    """Run one benchmark alone on a (possibly time-scaled) private system.

    ``scale`` > 1 slows the memory system down, e.g. ``scale=2`` is the
    paper's two-processor QoS baseline (a private memory system at half
    frequency, i.e. 1/φ with φ = ½).  Cached through both layers for
    registered profiles.
    """
    if warmup is None:
        warmup = default_warmup(cycles)
    if not _registered(profile):
        config = SystemConfig(num_cores=1, policy=BASELINE_POLICY, seed=seed)
        if scale != 1.0:
            config = config.scaled_baseline(scale)
        return CmpSystem(config, [profile]).run(cycles, warmup=warmup)
    return _fetch(solo_spec(profile.name, scale, cycles, warmup, seed))


def run_group(
    profiles: Sequence[BenchmarkProfile],
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> SimResult:
    """Memoized co-scheduled run of named benchmark profiles.

    Figures 5, 6, and 7 share the same two-processor runs and Figures 8
    and 9 share the four-processor runs; the memo avoids re-simulating.
    Profiles not registered in :mod:`repro.workloads.spec2000` fall
    back to a direct (uncached) simulation.
    """
    if warmup is None:
        warmup = default_warmup(cycles)
    if not all(_registered(p) for p in profiles):
        return run_workload(profiles, policy, cycles=cycles, warmup=warmup, seed=seed)
    names = tuple(p.name for p in profiles)
    return _fetch(group_spec(names, policy, cycles, warmup, seed))


def coscheduled_pair(
    subject: BenchmarkProfile,
    background: BenchmarkProfile,
    policy: str,
    cycles: int = DEFAULT_CYCLES,
    warmup: Optional[int] = None,
    seed: int = 0,
) -> Tuple[SimResult, float, float]:
    """Run subject+background on a 2-CPU CMP; return (result, nIPC_s, nIPC_b).

    Normalized IPC is measured against each benchmark running alone on
    the paper's baseline: a private memory system time-scaled by 1/φ = 2.
    The co-run goes through the memoized :func:`run_group`, so pair
    figures reuse runs the group cache already holds.
    """
    result = run_group(
        [subject, background], policy, cycles=cycles, warmup=warmup, seed=seed
    )
    base_s = run_solo(subject, scale=2.0, cycles=cycles, warmup=warmup, seed=seed)
    base_b = run_solo(background, scale=2.0, cycles=cycles, warmup=warmup, seed=seed)
    n_subject = result.threads[0].ipc / base_s.threads[0].ipc
    n_background = result.threads[1].ipc / base_b.threads[0].ipc
    return result, n_subject, n_background


def equal_share_list(num_threads: int) -> List[float]:
    """Convenience re-export for experiment drivers."""
    return equal_shares(num_threads)

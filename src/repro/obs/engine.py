"""Engine-internals harvesting: extras keys and canonical metrics.

Two jobs, both about keeping the engine's free-running counters in one
place instead of scattered across ``CmpSystem._result`` and ad-hoc
bench scripts:

* :func:`engine_extras` builds the back-compat ``SimResult.extras``
  block (``engine_*`` keys) exactly as PR 8 shipped it — these keys
  are part of the cached-result payload, so their names and values are
  frozen here and stripped by ``comparable_result`` via the shared
  :data:`ENGINE_EXTRA_PREFIX`.
* :func:`harvest` translates the same counters — plus the obs-only
  ones (legality kernel, policy-key memo, phase timer) — into the
  canonical dotted registry names that manifests and ``repro-fqms
  perf`` speak.  :data:`EXTRA_ALIASES` records the mapping from
  canonical name to legacy extras key so the two vocabularies can
  never silently drift.

``engine_extras`` is computed from engine counters alone and is
identical whether obs is attached or not — the obs-on/off bit-identity
differentials depend on that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..sim.system import CmpSystem
    from . import RunObs

#: Extras keys carrying execution (not simulation) facts; stripped by
#: ``comparable_result`` so results compare across engines.
ENGINE_EXTRA_PREFIX = "engine_"

#: Canonical registry name → legacy ``SimResult.extras`` key, for every
#: engine counter that predates the registry.  ``perf`` uses this to
#: line historical cache entries up against manifest metrics.
EXTRA_ALIASES = {
    "engine.steps": "engine_steps",
    "engine.cycles_skipped": "engine_cycles_skipped",
    "engine.skip_ratio": "engine_skip_ratio",
    "engine.event_target_calls": "engine_event_target_calls",
    "engine.wake_index": "engine_wake_index",
    "wakeindex.stale_pops": "engine_stale_pops",
    "wakeindex.publishes": "engine_wake_publishes",
    "engine.component_ticks": "engine_component_ticks",
    "engine.sparse_tick_fraction": "engine_sparse_tick_fraction",
}


def engine_extras(system: "CmpSystem") -> Dict[str, float]:
    """The ``engine_*`` extras block for one finished run.

    Byte-for-byte the block ``CmpSystem._result`` used to assemble
    inline: empty for per-cycle runs (no steps, no skips), engine
    counters for event runs, wake-index internals only when the sharded
    index drove the run.
    """
    extras: Dict[str, float] = {}
    total = system.engine_steps + system.engine_cycles_skipped
    if total:
        extras["engine_steps"] = float(system.engine_steps)
        extras["engine_cycles_skipped"] = float(system.engine_cycles_skipped)
        extras["engine_skip_ratio"] = system.engine_cycles_skipped / total
        extras["engine_event_target_calls"] = float(
            system.engine_event_target_calls
        )
        windex = system._windex
        if windex is not None:
            # Wake-index internals: stale-entry collection rate and the
            # fraction of component-ticks the sparse stepper actually
            # executed (1.0 would be the broadcast engine).
            extras["engine_wake_index"] = 1.0
            extras["engine_stale_pops"] = float(windex.stale_pops)
            extras["engine_wake_publishes"] = float(windex.publishes)
            extras["engine_component_ticks"] = float(
                system.engine_component_ticks
            )
            possible = system.engine_steps * system._num_slots
            extras["engine_sparse_tick_fraction"] = (
                system.engine_component_ticks / possible if possible else 0.0
            )
    return extras


def harvest(system: "CmpSystem", obs: "RunObs") -> None:
    """Fold a finished system's counters into ``obs.registry``.

    Canonical names only; the legacy extras block stays the province of
    :func:`engine_extras`.  Safe to call once per run, at finalize.
    """
    registry = obs.registry
    registry.gauge("engine.steps", system.engine_steps)
    registry.gauge("engine.cycles_skipped", system.engine_cycles_skipped)
    total = system.engine_steps + system.engine_cycles_skipped
    registry.gauge(
        "engine.skip_ratio",
        system.engine_cycles_skipped / total if total else 0.0,
    )
    registry.gauge("engine.event_target_calls", system.engine_event_target_calls)
    registry.gauge("engine.component_ticks", system.engine_component_ticks)
    windex = system._windex
    registry.gauge("engine.wake_index", 1.0 if windex is not None else 0.0)
    if windex is not None:
        registry.gauge("wakeindex.stale_pops", windex.stale_pops)
        registry.gauge("wakeindex.publishes", windex.publishes)
        possible = system.engine_steps * system._num_slots
        registry.gauge(
            "engine.sparse_tick_fraction",
            system.engine_component_ticks / possible if possible else 0.0,
        )
    kernel = obs.legality
    registry.gauge("legality.queries", kernel.queries)
    registry.gauge("legality.syncs", kernel.syncs)
    keys = obs.keys
    registry.gauge("policy_keys.hits", keys.hits)
    registry.gauge("policy_keys.misses", keys.misses)
    registry.gauge("policy_keys.uncached", keys.uncached)
    registry.gauge("policy_keys.hit_ratio", keys.hit_ratio)
    if obs.phases is not None:
        obs.phases.end()
        for phase, seconds in obs.phases.totals().items():
            registry.timer(f"phase.{phase}_s", seconds)
        registry.timer("phase.total_s", obs.phases.total_seconds())

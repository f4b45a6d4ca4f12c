"""Engine-internals extras: the ``engine_*`` block of every result.

:func:`engine_extras` builds the ``SimResult.extras`` block
(``engine_*`` keys) from the engine's free-running counters.  These
keys are part of the cached-result payload, so their names and values
are frozen here and stripped by ``comparable_result`` via the shared
:data:`ENGINE_EXTRA_PREFIX`; run manifests carry them as
``extras.engine_*`` metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..sim.system import CmpSystem

#: Extras keys carrying execution (not simulation) facts; stripped by
#: ``comparable_result`` so results compare across engines.
ENGINE_EXTRA_PREFIX = "engine_"


def engine_extras(system: "CmpSystem") -> Dict[str, float]:
    """The ``engine_*`` extras block for one finished run.

    Empty for per-cycle runs (no steps, no skips), engine
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


"""Sharded lazy min-heap over component wake times (the wake index).

The event engine needs, on every iteration, the earliest cycle at which
any component's tick could do unskippable work.  A linear scan over
every controller and core costs O(n) per event; the wake index answers
from per-shard min-heaps of ``(wake_time, epoch, slot)`` entries:

* **Slots** are stable small integers assigned by the system — one per
  controller and one per core.  The system publishes a slot's wake only
  when the component's externally visible state changed (it was ticked,
  or it accepted a request/fill).
* **Epoch invalidation**: each publish bumps the slot's epoch and
  pushes a fresh entry; entries whose epoch no longer matches are stale
  and are popped and discarded on first contact (``stale_pops`` counts
  them).  At most one entry per slot is live at any time, so heap size
  is bounded by slots plus not-yet-collected garbage.
* **Sharding**: each controller lives in its own shard and all cores
  share one, so a channel's bank/refresh/legality wake churn touches
  only that channel's heap.  The global minimum is the min over shard
  tops — O(shards) peeks plus amortized stale-entry collection.

Correctness leans on the wake-time contracts: published wakes are
conservative (early answers are safe — the engine just steps a no-op
cycle) and a component's wake bound cannot move *earlier* while the
component is untouched, so retained entries never cause a late wake.
The differential suites (golden matrix, ``repro-fqms check``,
``tests/sim/test_engine_differential.py``,
``tests/policy/test_differential.py``) prove the event engine
bit-identical to the per-cycle oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

#: Published wake meaning "no self-generated event".  Slots at NO_EVENT
#: hold no live heap entry at all: an idle component costs nothing.
NO_EVENT = 1 << 62


class WakeIndex:
    """Lazy sharded min-heap of component wake times."""

    __slots__ = ("_shard_of", "_heaps", "_wakes", "_epochs",
                 "stale_pops", "publishes")

    def __init__(self, shard_of: List[int]):
        """Build an index over ``len(shard_of)`` slots.

        ``shard_of[slot]`` names the shard (a dense small integer) whose
        heap carries that slot's entries.
        """
        if not shard_of:
            raise ValueError("wake index needs at least one slot")
        num_shards = max(shard_of) + 1
        if min(shard_of) < 0:
            raise ValueError(f"negative shard id in {shard_of!r}")
        self._shard_of = list(shard_of)
        self._heaps: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(num_shards)
        ]
        self._wakes: List[int] = [NO_EVENT] * len(shard_of)
        self._epochs: List[int] = [0] * len(shard_of)
        #: Stale entries discarded during peeks/pops (instrumentation).
        self.stale_pops = 0
        #: Wake changes actually recorded (no-op republishes excluded).
        self.publishes = 0

    def wake_of(self, slot: int) -> int:
        """The slot's currently published wake (NO_EVENT when idle)."""
        return self._wakes[slot]

    def publish(self, slot: int, wake: Optional[int]) -> None:
        """Record ``slot``'s new wake bound, invalidating the old entry.

        ``None`` (and anything at or past NO_EVENT) means "no
        self-generated event".  Republishing an unchanged wake is a
        no-op — the live entry already says exactly this — which is
        what keeps heap garbage proportional to real wake *changes*.
        """
        if wake is None or wake >= NO_EVENT:
            wake = NO_EVENT
        wakes = self._wakes
        if wake == wakes[slot]:
            return
        wakes[slot] = wake
        epoch = self._epochs[slot] + 1
        self._epochs[slot] = epoch
        self.publishes += 1
        if wake < NO_EVENT:
            heappush(self._heaps[self._shard_of[slot]], (wake, epoch, slot))

    def min_wake(self) -> int:
        """The earliest live published wake (NO_EVENT when all idle).

        Peeks each shard's top, popping stale entries until a live one
        (or an empty heap) surfaces.  Does not consume live entries.
        """
        best = NO_EVENT
        epochs = self._epochs
        for heap in self._heaps:
            while heap:
                wake, epoch, slot = heap[0]
                if epoch != epochs[slot]:
                    heappop(heap)
                    self.stale_pops += 1
                    continue
                if wake < best:
                    best = wake
                break
        return best

    def pop_due(self, now: int, due: List[bool]) -> int:
        """Consume every live entry with ``wake <= now``.

        Sets ``due[slot] = True`` for each and resets the slot's
        published wake to NO_EVENT (the component is about to be ticked
        and must republish), so an identical post-tick wake still lands
        back in the heap.  Returns the number of due slots found.
        """
        count = 0
        epochs = self._epochs
        wakes = self._wakes
        for heap in self._heaps:
            while heap:
                wake, epoch, slot = heap[0]
                if wake > now:
                    break
                heappop(heap)
                if epoch != epochs[slot]:
                    self.stale_pops += 1
                    continue
                wakes[slot] = NO_EVENT
                due[slot] = True
                count += 1
        return count

"""MISE-style slowdown estimation and the slowdown-aware scheduler.

MISE (Subramanian et al.) observes that a memory-bound thread's
performance is proportional to the rate at which its requests are
served, so its *slowdown* — alone-run time over shared-run time — can
be estimated online from per-request service: accumulate the cycles
each completed request actually waited in the shared system against
the cycles it would have taken with the memory system to itself (an
unloaded closed-bank access), and the ratio of the two sums is the
thread's slowdown estimate.

:class:`SlowdownEstimator` keeps those two ledgers per thread;
:class:`SlowdownPolicy` snapshots the estimates every ``interval``
cycles and prioritizes the highest-estimated-slowdown thread first
(the MISE-QoS idea of helping whoever is furthest behind), breaking
ties oldest-first.  The interval boundary is published through
:meth:`~SlowdownPolicy.next_event_time`, keeping the event engine
bit-identical to the per-cycle oracle.

The same estimator feeds the offline fairness metrics in
:mod:`repro.stats.fairness` (there the alone-run IPC is *measured*
from a solo simulation rather than estimated, which is what MISE's
hardware cannot do).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .base import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.request import MemoryRequest
    from ..dram.timing import DDR2Timing

#: Slowdown estimates are refreshed every this-many cycles.
DEFAULT_INTERVAL = 5_000


class SlowdownEstimator:
    """Per-thread online slowdown estimation from request service.

    ``observe`` one completed request at a time; ``slowdown`` is the
    ratio of accumulated shared-system service to the accumulated
    alone-run estimate, floored at 1.0 (a thread cannot run faster
    shared than alone).  Threads with no completions report 1.0.
    """

    def __init__(self, num_threads: int, alone_service_cycles: int):
        if num_threads <= 0:
            raise ValueError(f"need at least one thread, got {num_threads}")
        if alone_service_cycles < 1:
            raise ValueError(
                "alone service estimate must be >= 1 cycle, got "
                f"{alone_service_cycles}"
            )
        self.num_threads = num_threads
        self.alone_service_cycles = alone_service_cycles
        #: Cycles requests actually spent arrival → data-done, shared.
        self.shared_cycles: List[int] = [0] * num_threads
        #: Cycles the same requests would have taken alone.
        self.alone_cycles: List[int] = [0] * num_threads
        self.completed: List[int] = [0] * num_threads

    def observe(self, thread: int, waited_cycles: int) -> None:
        """Account one completed request that waited ``waited_cycles``."""
        self.shared_cycles[thread] += max(int(waited_cycles), 1)
        self.alone_cycles[thread] += self.alone_service_cycles
        self.completed[thread] += 1

    def slowdown(self, thread: int) -> float:
        if self.completed[thread] == 0:
            return 1.0
        estimate = self.shared_cycles[thread] / self.alone_cycles[thread]
        return estimate if estimate > 1.0 else 1.0

    def slowdowns(self) -> List[float]:
        return [self.slowdown(t) for t in range(self.num_threads)]


class SlowdownPolicy(SchedulingPolicy):
    """Highest-estimated-slowdown-first scheduling (MISE-QoS style)."""

    name = "MISE"
    has_hooks = True

    def __init__(
        self,
        num_threads: int,
        timing: "DDR2Timing",
        interval: int = DEFAULT_INTERVAL,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.num_threads = num_threads
        self.interval = interval
        # The alone-run service estimate: an unloaded closed-bank
        # access (activate + CAS latency + data burst), the same
        # figure the paper's unloaded-latency calibration uses.
        self.estimator = SlowdownEstimator(
            num_threads, timing.t_rcd + timing.t_cl + timing.burst
        )
        #: The snapshot keys read; refreshed at interval boundaries so
        #: priorities are stable within an interval.
        self._slowdown: List[float] = [1.0] * num_threads
        self._next_epoch = interval

    def key_field_names(self) -> Tuple[str, ...]:
        return ("neg_slowdown", "arrival_time", "seq")

    def request_key(self, request: "MemoryRequest") -> Tuple:
        return (
            -self._slowdown[request.thread_id],
            request.arrival_time,
            request.seq,
        )

    def slowdown_estimates(self) -> List[float]:
        """The snapshot currently driving priorities (one per thread)."""
        return list(self._slowdown)

    # -- hooks -------------------------------------------------------------

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        self.estimator.observe(
            request.thread_id, now - request.arrival_time
        )

    def on_cycle(self, now: int) -> None:
        if now < self._next_epoch:
            return
        self._slowdown = self.estimator.slowdowns()
        self._next_epoch = (now // self.interval + 1) * self.interval

    def next_event_time(self, now: int) -> Optional[int]:
        return self._next_epoch

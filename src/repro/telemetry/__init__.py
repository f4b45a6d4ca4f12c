"""repro.telemetry — zero-cost-when-disabled run observability.

Three layers over one :class:`RunTelemetry` object per system:

* :mod:`repro.telemetry.lifecycle` — per-request milestone tracing
  (core submit → interface-queue accept → VTMS stamp → RAS/CAS issue →
  data return → core retire-unblock) into bounded per-thread rings.
* :mod:`repro.telemetry.sampler` — fixed-period interval metrics
  (per-thread bandwidth, queue occupancy, row-hit rate, VFT lag,
  priority inversions) whose deadlines participate in the event
  engine's target computation so bulk skips land exactly on sample
  boundaries.
* :mod:`repro.telemetry.export` / :mod:`repro.telemetry.report` —
  Chrome/Perfetto ``trace_event`` JSON, CSV/JSONL interval dumps, and
  the ``repro-fqms report`` textual dashboard.

Tracing is opt-in: ``repro-fqms trace``/``report`` and
:func:`repro.telemetry.driver.run_traced` build a :class:`RunTelemetry`
and subscribe it through :meth:`~repro.sim.system.CmpSystem.attach`,
the one observer attach point (:mod:`repro.observer`).  Traced and
untraced runs are bit-identical because every hook only observes,
never steers; an untraced run pays one ``observer is None`` test per
event site.

All timestamps are simulated cycles — wall-clock or RNG use inside
this package is a DET006 determinism-lint error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..observer import Observer
from .lifecycle import (
    DEFAULT_RING_CAPACITY,
    BankCommandLog,
    LifecycleTracer,
    RequestLifecycle,
)
from .sampler import DEFAULT_SAMPLE_PERIOD, IntervalSample, IntervalSampler

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.bank_scheduler import BankScheduler, CandidateCommand
    from ..controller.request import MemoryRequest
    from ..sim.system import CmpSystem

__all__ = [
    "BankCommandLog",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_SAMPLE_PERIOD",
    "IntervalSample",
    "IntervalSampler",
    "LifecycleTracer",
    "RequestLifecycle",
    "RunTelemetry",
]

#: Command durations drawn on the Perfetto bank tracks, by kind name;
#: resolved against the run's DDR2 timing at record time.
_COMMAND_SPANS = {
    "ACTIVATE": "t_rcd",
    "PRECHARGE": "t_rp",
    "READ": "burst",
    "WRITE": "burst",
}


class RunTelemetry(Observer):
    """Observability state for one :class:`~repro.sim.system.CmpSystem`.

    Subscribe it with ``system.attach(RunTelemetry(system))``: it hears
    every station of every request.  Every hook is a pure observer: it
    reads simulator state and writes only telemetry-owned buffers,
    which is what keeps traced runs bit-identical to untraced runs.
    Lifecycle and bank-log rings keep :data:`DEFAULT_RING_CAPACITY`
    entries; ``sample_period`` (cycles) must be positive.
    """

    def __init__(
        self, system: "CmpSystem", sample_period: int = DEFAULT_SAMPLE_PERIOD
    ):
        self.system = system
        num_threads = system.config.num_cores
        self.tracer = LifecycleTracer(num_threads)
        self.sampler = IntervalSampler(self, sample_period)
        self.bank_log = BankCommandLog()
        #: Cache-line offset bits, to name a submitted request's line.
        self._offset_bits = system.address_map.offset_bits
        #: Each channel's DRAM (by identity) → channel index, so a
        #: command without a request (auto-precharge) lands on the
        #: issuing channel's bank track.
        self._channel_of: Dict[int, int] = {
            id(dram): channel for channel, dram in enumerate(system.drams)
        }
        #: Per-thread monotonic counters (the sampler takes deltas).
        self.first_commands: List[int] = [0] * num_threads
        self.row_hits: List[int] = [0] * num_threads
        self.row_conflicts: List[int] = [0] * num_threads
        self.inversions: List[int] = [0] * num_threads
        #: Channel-arbitration contention counters.
        self.arbitration_rounds = 0
        self.contended_arbitrations = 0
        #: What the scheduling policy's priority-key components mean,
        #: in comparison order — labels exported trace viewers show
        #: next to per-request keys ("virtual_finish_time" vs
        #: "blacklisted" vs "neg_slowdown", ...).
        self.policy_name: str = system.controller.policy.name
        self.policy_key_fields: Tuple[str, ...] = tuple(
            system.controller.policy.key_field_names()
        )

    # -- engine integration ------------------------------------------------

    @property
    def next_sample(self) -> int:
        """Next sampling deadline; folded into the event target."""
        return self.sampler.next_sample

    def on_sample(self, now: int) -> None:
        self.sampler.maybe_sample(now)

    def finalize(self, now: int) -> None:
        """Flush the trailing partial interval at end of run."""
        self.sampler.finalize(now)

    # -- system-side hooks -------------------------------------------------

    def on_submit(self, request: "MemoryRequest", now: int) -> None:
        """An accepted submit left the core (lifecycle station 1)."""
        self.tracer.on_submit(request, request.address >> self._offset_bits, now)

    def on_fill(self, thread: int, line: int, now: int) -> None:
        """A fill reached its core (terminal station for reads)."""
        self.tracer.on_fill(thread, line, now)

    # -- controller-side hooks ---------------------------------------------

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        """The controller admitted a request (station 2, VTMS arrival)."""
        self.tracer.on_accept(request, now)

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        """The request's data finished on the bus (station 5)."""
        self.tracer.on_complete(request, now)

    def on_command(
        self, scheduler: "BankScheduler", cand: "CandidateCommand", now: int
    ) -> None:
        """A command issued from one bank queue (stations 3 and 4).

        The controller emits it *before* the bank scheduler mutates
        queue or row state, so the inversion check sees exactly the
        queue the selection saw.  Key recomputation goes through the
        policy directly (not the per-request memo) so tracing leaves
        the scheduler's caches byte-for-byte untouched.
        """
        request = cand.request
        timing = scheduler.dram.timing
        kind_name = cand.kind.name
        duration = getattr(timing, _COMMAND_SPANS.get(kind_name, "burst"))
        channel = self._channel_of[id(scheduler.dram)]
        self.bank_log.record(
            channel,
            cand.rank,
            cand.bank,
            now,
            kind_name,
            cand.row,
            cand.charge_thread,
            duration,
        )
        if request is None:
            return  # auto-precharge: no request lifecycle to annotate
        inverted = False
        if len(scheduler.queue) > 1:
            policy_key = scheduler.policy.request_key
            key = policy_key(request)
            for other in scheduler.queue:
                if other is not request and policy_key(other) < key:
                    inverted = True
                    break
        thread = request.thread_id
        tracer = self.tracer
        record = tracer._open.get(request.seq)
        first = record is not None and record.first_command_cycle is None
        tracer.on_command(request, kind_name, cand.kind.is_cas, inverted, now)
        if first:
            self.first_commands[thread] += 1
            if record.row_outcome == "hit":
                self.row_hits[thread] += 1
            elif record.row_outcome == "conflict":
                self.row_conflicts[thread] += 1
        if inverted:
            self.inversions[thread] += 1
        if cand.kind.is_cas:
            # Recompute the ordering tuple; called before any issue
            # mutation, so it matches the key the selection compared.
            tracer.on_command_key(
                request, scheduler.policy.request_key(request)
            )

    def on_arbitration(self, now: int, ready: int) -> None:
        """The channel scheduler issued with ``ready`` banks ready."""
        self.arbitration_rounds += 1
        if ready > 1:
            self.contended_arbitrations += 1

    # -- reporting ---------------------------------------------------------

    def samples(self) -> List[IntervalSample]:
        return self.sampler.samples

    def lifecycles(self, thread: int) -> List[RequestLifecycle]:
        """Retained completed lifecycles for one thread, oldest first."""
        return list(self.tracer.completed[thread])

    def summary(self) -> Dict[str, int]:
        """Counters proving the tracer saw traffic, plus truncation."""
        totals = dict(self.tracer.summary())
        totals["bank_events_dropped"] = self.bank_log.dropped
        totals["samples"] = len(self.sampler.samples)
        totals["inversions"] = sum(self.inversions)
        totals["arbitration_rounds"] = self.arbitration_rounds
        totals["contended_arbitrations"] = self.contended_arbitrations
        return totals

    def thread_names(self) -> List[str]:
        return [p.name for p in self.system.profiles]

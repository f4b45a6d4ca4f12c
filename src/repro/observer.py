"""One observer interface for every simulator event site.

The runtime checker (:mod:`repro.check`), the run tracer
(:mod:`repro.telemetry`) and the controller's command log all watch a
run through this interface.  Each emitting component — the system,
every memory controller and its channel scheduler — holds one
``observer`` attribute, ``None`` in a plain run, and tests it once per
event site.  :meth:`repro.sim.system.CmpSystem.attach` is the one
place observers are wired in; a component with two subscribers gets a
:class:`Fanout`.

Observers only read simulator state and write their own buffers, so an
observed run is bit-identical to a plain one.  (Keying a request through
``BankScheduler.key`` rewrites its VTMS stamps, which the scheduler
recomputes before every read.)  Scheduling policies'
lifecycle hooks (``SchedulingPolicy.on_arrival`` and friends) are not
observers: they steer.

This module is a leaf — it imports nothing from the simulator — so the
checker and telemetry packages can subclass :class:`Observer` without
an import cycle.
"""

from __future__ import annotations

import sys
from typing import Any, Optional, Tuple

#: The sampling deadline of an observer that never samples.
NEVER = sys.maxsize


class Observer:
    """No-op subscriber to every simulator event; override what you need.

    Emitters and the events they raise:

    * the system — :meth:`on_submit` when a core's request leaves for
      the controller, :meth:`on_fill` when a read's data reaches its
      core, :meth:`on_sample` at sampling deadlines, :meth:`finalize`
      at the end of :meth:`~repro.sim.system.CmpSystem.run`;
    * a memory controller — :meth:`on_accept` when a request enters
      its buffers, :meth:`on_command` for each issued SDRAM command
      (before the DRAM, queue and VTMS register updates, so the state
      is the one the selection saw),
      :meth:`on_refresh` when a refresh starts, :meth:`on_complete`
      when a request's data finishes on the bus;
    * a channel scheduler — :meth:`on_arbitration` for each
      arbitration that chose a command, with the count of ready banks.
    """

    @property
    def next_sample(self) -> int:
        """Next cycle at which :meth:`on_sample` falls due.

        The engines never skip across it: the deadline cycle is stepped
        and :meth:`on_sample` runs at its top, before any component
        moves.
        """
        return NEVER

    def on_submit(self, request: Any, now: int) -> None:
        """A core's request was accepted onto the interconnect."""

    def on_accept(self, request: Any, now: int) -> None:
        """A controller admitted ``request`` into its buffers."""

    def on_command(self, scheduler: Any, cand: Any, now: int) -> None:
        """``cand`` issued from ``scheduler``'s bank queue."""

    def on_arbitration(self, now: int, ready: int) -> None:
        """Channel arbitration chose among ``ready`` ready banks."""

    def on_refresh(self, now: int) -> None:
        """A refresh started."""

    def on_complete(self, request: Any, now: int) -> None:
        """``request``'s data finished on the bus."""

    def on_fill(self, thread: int, line: int, now: int) -> None:
        """A read's fill of ``line`` reached core ``thread``."""

    def on_sample(self, now: int) -> None:
        """A sampling deadline at or before ``now`` was reached."""

    def finalize(self, now: int) -> None:
        """The run ended at ``now``."""


class Fanout(Observer):
    """Serves one emitter's events to several subscribers, in order."""

    def __init__(self, *observers: Observer):
        self.observers: Tuple[Observer, ...] = observers

    @property
    def next_sample(self) -> int:
        return min(observer.next_sample for observer in self.observers)

    def on_submit(self, request: Any, now: int) -> None:
        for observer in self.observers:
            observer.on_submit(request, now)

    def on_accept(self, request: Any, now: int) -> None:
        for observer in self.observers:
            observer.on_accept(request, now)

    def on_command(self, scheduler: Any, cand: Any, now: int) -> None:
        for observer in self.observers:
            observer.on_command(scheduler, cand, now)

    def on_arbitration(self, now: int, ready: int) -> None:
        for observer in self.observers:
            observer.on_arbitration(now, ready)

    def on_refresh(self, now: int) -> None:
        for observer in self.observers:
            observer.on_refresh(now)

    def on_complete(self, request: Any, now: int) -> None:
        for observer in self.observers:
            observer.on_complete(request, now)

    def on_fill(self, thread: int, line: int, now: int) -> None:
        for observer in self.observers:
            observer.on_fill(thread, line, now)

    def on_sample(self, now: int) -> None:
        for observer in self.observers:
            if observer.next_sample <= now:
                observer.on_sample(now)

    def finalize(self, now: int) -> None:
        for observer in self.observers:
            observer.finalize(now)


def subscribe(current: Optional[Observer], observer: Observer) -> Observer:
    """``current`` with ``observer`` added after its subscribers."""
    if current is None:
        return observer
    if isinstance(current, Fanout):
        return Fanout(*current.observers, observer)
    return Fanout(current, observer)

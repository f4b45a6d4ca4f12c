"""BLISS: the Blacklisting memory scheduler (Subramanian et al.).

The observation behind BLISS is that application-aware rank-ordering
schedulers buy their fairness with hardware-expensive full ranking;
nearly all of the benefit comes from a single bit per thread.  A
thread that wins ``threshold`` *consecutive* served requests is
interference-prone (streaming row-hit traffic) and gets
**blacklisted**; requests of non-blacklisted threads take priority
over requests of blacklisted threads — even over their ready row hits
(``key_over_cas``).  Within a priority level, threads are served
round-robin by least-recently-served, then oldest-first.  The
blacklist is cleared every ``clearing_interval`` cycles, so a
penalized thread's priority recovers quickly once it stops streaming.

All state lives in the policy instance (one per controller); the
clearing boundary is published through :meth:`next_event_time`, which
is what keeps the event engine bit-identical to the per-cycle oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .base import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.bank_scheduler import CandidateCommand
    from ..controller.request import MemoryRequest

#: A thread is blacklisted after winning this many consecutive
#: served (CAS-issued) requests.
DEFAULT_THRESHOLD = 4
#: The blacklist is cleared every this-many cycles.
DEFAULT_CLEARING_INTERVAL = 10_000


class BlissPolicy(SchedulingPolicy):
    """Interval-based blacklisting with round-robin service."""

    name = "BLISS"
    #: The blacklist bit outranks the CAS-over-RAS preference: a
    #: non-blacklisted thread's activate beats a blacklisted thread's
    #: ready row hit, which is the BLISS interference-breaking move.
    key_over_cas = True
    has_hooks = True

    def __init__(
        self,
        num_threads: int,
        threshold: int = DEFAULT_THRESHOLD,
        clearing_interval: int = DEFAULT_CLEARING_INTERVAL,
    ):
        if num_threads <= 0:
            raise ValueError(f"need at least one thread, got {num_threads}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if clearing_interval < 1:
            raise ValueError(
                f"clearing interval must be >= 1, got {clearing_interval}"
            )
        self.num_threads = num_threads
        self.threshold = threshold
        self.clearing_interval = clearing_interval
        #: One bit per thread: True = deprioritized this interval.
        self.blacklisted: List[bool] = [False] * num_threads
        #: Consecutive-win streak tracking (the thread of the last
        #: served request and its current run length).
        self._streak_thread = -1
        self._streak = 0
        #: Round-robin state: a monotone service counter and, per
        #: thread, the counter value at its last served request —
        #: least-recently-served compares lowest.
        self._serve_counter = 0
        self._last_served: List[int] = [0] * num_threads
        self._next_clear = clearing_interval

    def key_field_names(self) -> Tuple[str, ...]:
        return ("blacklisted", "last_served", "arrival_time", "seq")

    def request_key(self, request: "MemoryRequest") -> Tuple:
        thread = request.thread_id
        return (
            1 if self.blacklisted[thread] else 0,
            self._last_served[thread],
            request.arrival_time,
            request.seq,
        )

    # -- hooks -------------------------------------------------------------

    def on_issue(self, cand: "CandidateCommand", now: int) -> None:
        request = cand.request
        if request is None or not cand.kind.is_cas:
            return  # only served (CAS-issued) requests count as wins
        thread = request.thread_id
        self._serve_counter += 1
        self._last_served[thread] = self._serve_counter
        if thread == self._streak_thread:
            self._streak += 1
        else:
            self._streak_thread = thread
            self._streak = 1
        if self._streak >= self.threshold:
            self.blacklisted[thread] = True

    def on_cycle(self, now: int) -> None:
        if now < self._next_clear:
            return
        for thread in range(self.num_threads):
            self.blacklisted[thread] = False
        self._streak_thread = -1
        self._streak = 0
        self._next_clear = (
            now // self.clearing_interval + 1
        ) * self.clearing_interval

    def next_event_time(self, now: int) -> Optional[int]:
        return self._next_clear

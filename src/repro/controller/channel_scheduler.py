"""Channel scheduler: arbitration across banks' candidate commands.

The channel scheduler scans the banks' nominated commands each cycle
and issues the ready command with the highest priority (paper §2.2).
It uses the same priority levels as the bank schedulers: CAS commands
before RAS commands, then the policy's ordering key.  Channel-level
timing (address bus, data bus, t_ccd, t_wtr, t_rrd) has already been
folded into each candidate's readiness by the DRAM model.

To keep the scan cheap, the scheduler caches a per-bank lower bound on
the next cycle that bank could nominate a *ready* command
(:meth:`BankScheduler.poll_bound`, or :meth:`BankScheduler.cacheable_wake`
after a fruitless :meth:`BankScheduler.candidate`) and skips banks
whose bound has not elapsed.  Each bound is stamped with the channel's
issue count when it was computed:

* An issue on another bank only moves channel and rank timing later,
  so a bound with an old stamp stays a sound lower bound, merely
  possibly early.  A stale bound is therefore still trusted for
  skipping, but is re-polled (one legality-kernel query) before it
  admits a :meth:`~BankScheduler.candidate` call or sets the
  controller's sleep (:meth:`min_wake`).
* Every event that could pull a bound *earlier* drops it instead: an
  arrival for the bank or an issue on it (:meth:`invalidate`,
  :meth:`on_issue`), a refresh or a write-drain flip
  (:meth:`invalidate_all`), and a VTMS register change for the banks
  whose bound reads VTMS — committed-FQ banks whose queued requests
  need different commands, so that the VFT-chosen request decides
  which one the bound waits for (:meth:`invalidate_vtms_bounds`).

Selection is therefore bit-identical to scanning every bank: skipped
banks could only have contributed non-ready candidates, which the scan
discards anyway.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ..observer import Observer
from .bank_scheduler import BankScheduler, CandidateCommand, IDLE_BOUND


class ChannelScheduler:
    """Selects one ready command per cycle from the bank schedulers."""

    def __init__(self, bank_schedulers: Iterable[BankScheduler]):
        self.bank_schedulers = list(bank_schedulers)
        self._index = {
            (s.rank, s.bank): i for i, s in enumerate(self.bank_schedulers)
        }
        #: Per-bank wake bound; None = must poll (never computed or
        #: just dropped).
        self._bounds: List[Optional[int]] = [None] * len(self.bank_schedulers)
        #: Issue count at which each cached bound was computed; a bound
        #: whose stamp differs from :attr:`_issues` is stale (early).
        self._stamps: List[int] = [0] * len(self.bank_schedulers)
        #: Commands issued on this channel (see :meth:`on_issue`).
        self._issues = 0
        #: Whether channel arbitration keeps the CAS-over-RAS level
        #: above the policy key; key-over-CAS policies (e.g. BLISS)
        #: rank the key first.
        self._cas_first = (
            not self.bank_schedulers[0].policy.key_over_cas
            if self.bank_schedulers
            else True
        )
        #: The owning controller's observer (repro.observer), set with
        #: it by ``CmpSystem.attach``; None in plain runs, so
        #: arbitration accounting costs one attribute test.
        self.observer: Optional[Observer] = None

    def invalidate(self, rank: int, bank: int) -> None:
        """Drop the cached bound for one bank (its state changed)."""
        self._bounds[self._index[(rank, bank)]] = None

    def on_issue(self, rank: int, bank: int) -> None:
        """A command issued to (rank, bank): drop its bound, age the rest."""
        self._issues += 1
        self._bounds[self._index[(rank, bank)]] = None

    def invalidate_all(self) -> None:
        """Drop every cached bound (refresh, write-drain flip)."""
        bounds = self._bounds
        for i in range(len(bounds)):
            bounds[i] = None

    def invalidate_vtms_bounds(self, now: int) -> None:
        """Drop the bounds that read VTMS registers (a register moved).

        ``now`` is the latest cycle any cached bound was computed for.
        A bound that read VTMS (:meth:`BankScheduler.reads_vtms`) keeps
        reading it until its bank's row, queue or drain gate changes,
        each of which drops the bound itself, so testing the banks'
        state at ``now`` finds every such bound.
        """
        bounds = self._bounds
        for i, scheduler in enumerate(self.bank_schedulers):
            if bounds[i] is not None and scheduler.reads_vtms(now):
                bounds[i] = None

    def select(
        self, now: int, draining_for_refresh: bool = False
    ) -> Optional[CandidateCommand]:
        """The highest-priority ready candidate at cycle ``now``, if any."""
        best: Optional[CandidateCommand] = None
        best_level = 2
        best_key: Any = None
        bounds = self._bounds
        stamps = self._stamps
        issues = self._issues
        observer = self.observer
        cas_first = self._cas_first
        ready_seen = 0
        for i, scheduler in enumerate(self.bank_schedulers):
            bound = bounds[i]
            if bound is not None and bound > now:
                continue
            if bound is None or stamps[i] != issues:
                # Pre-candidate gate: one legality-kernel query proves
                # most dropped or stale-early banks have nothing ready,
                # so the full candidate selection never runs for them.
                bound = scheduler.poll_bound(now)
                bounds[i] = bound
                stamps[i] = issues
                if bound > now:
                    continue
            cand = scheduler.candidate(now, draining_for_refresh)
            if cand is None or not cand.ready:
                bounds[i] = scheduler.cacheable_wake(now)
                continue
            if observer is not None:
                # Exact ready count: skipped banks can only have held
                # non-ready candidates (see the skip-soundness note in
                # the module docstring).
                ready_seen += 1
            # Sort by (RAS penalty, key); the penalty is held at zero
            # for key-over-CAS policies.
            level = 1 if cas_first and not cand.kind.is_cas else 0
            if level < best_level or (level == best_level and cand.key < best_key):
                best, best_level, best_key = cand, level, cand.key
        if observer is not None and best is not None:
            observer.on_arbitration(now, ready_seen)
        return best

    def min_wake(self, now: int) -> Optional[int]:
        """First cycle ≥ ``now`` at which some bank may have a ready command.

        The controller's sleep target, absent arrivals and other
        bound-dropping events.  Dropped bounds are polled; stale ones
        are refreshed lazily, smallest first.  A refresh can only move
        a stale bound later, so once the smallest bound is fresh it is
        the exact minimum and the remaining stale bounds need no query.
        Returns ``now`` when a bank may be ready at once and ``None``
        when no bank has anything to nominate.
        """
        bounds = self._bounds
        stamps = self._stamps
        issues = self._issues
        schedulers = self.bank_schedulers
        while True:
            wake = IDLE_BOUND
            pick = -1
            for i, bound in enumerate(bounds):
                if bound is None:
                    bound = schedulers[i].poll_bound(now)
                    bounds[i] = bound
                    stamps[i] = issues
                if bound < wake:
                    wake = bound
                    pick = i
            if pick < 0:
                return None
            if stamps[pick] == issues:
                return wake if wake > now else now
            bounds[pick] = schedulers[pick].poll_bound(now)
            stamps[pick] = issues

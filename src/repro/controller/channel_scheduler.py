"""Channel scheduler: arbitration across banks' candidate commands.

The channel scheduler scans the banks' nominated commands each cycle
and issues the ready command with the highest priority (paper §2.2).
It uses the same priority levels as the bank schedulers: CAS commands
before RAS commands, then the policy's ordering key.  Channel-level
timing (address bus, data bus, t_ccd, t_wtr, t_rrd) has already been
folded into each candidate's readiness by the DRAM model.

To keep the scan cheap, the scheduler caches a per-bank lower bound on
the next cycle that bank could nominate a *ready* command
(:meth:`BankScheduler.cacheable_wake`) and skips banks whose bound has
not elapsed.  Skipping is sound because issues elsewhere only push
DRAM timing later, and every event that could pull a bound earlier —
an arrival for the bank, an issue on the bank, a refresh, a
write-drain eligibility flip, any VTMS register change — invalidates
the cache via :meth:`invalidate` / :meth:`invalidate_all`.  Selection
is therefore bit-identical to scanning every bank: skipped banks could
only have contributed non-ready candidates, which the scan discards
anyway.
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
        #: Per-bank wake bound; None = must poll (never computed, just
        #: invalidated, or the bank is in a state where no bound may be
        #: cached).
        self._bounds: List[Optional[int]] = [None] * len(self.bank_schedulers)
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

    def invalidate_all(self) -> None:
        """Drop every cached bound (refresh, drain flip, VTMS change)."""
        bounds = self._bounds
        for i in range(len(bounds)):
            bounds[i] = None

    def select(
        self, now: int, draining_for_refresh: bool = False
    ) -> Optional[CandidateCommand]:
        """The highest-priority ready candidate at cycle ``now``, if any."""
        best: Optional[CandidateCommand] = None
        best_level = 2
        best_key: Any = None
        bounds = self._bounds
        observer = self.observer
        cas_first = self._cas_first
        ready_seen = 0
        for i, scheduler in enumerate(self.bank_schedulers):
            bound = bounds[i]
            if bound is None:
                # Pre-candidate gate: one legality-kernel query proves
                # most just-invalidated banks have nothing ready, so
                # the full candidate selection never runs for them.
                bound = scheduler.poll_bound(now)
                bounds[i] = bound
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
        """Earliest cached (or computed) wake bound across all banks.

        Used by the controller's sleep logic right after a fruitless
        :meth:`select`, when every pollable bank's bound is fresh.  A
        cached bound can only be conservative (early), which at worst
        wakes the controller for a no-op scan.  A bank left without a
        cached bound (the write-gated committed-FQ state, the only one
        whose :meth:`BankScheduler.cacheable_wake` is ``None``) has its
        bound computed here.
        """
        wake: Optional[int] = None
        bounds = self._bounds
        for i, scheduler in enumerate(self.bank_schedulers):
            bound = bounds[i]
            if bound is None:
                bound = scheduler.earliest_possible_issue(now)
                if bound is None:
                    continue
            elif bound >= IDLE_BOUND:
                continue
            if wake is None or bound < wake:
                wake = bound
        return wake

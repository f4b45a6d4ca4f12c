"""The assembled SDRAM memory system: ranks + channel + refresh.

This is the device-side model the memory controller talks to.  It
answers earliest-legal-issue queries (combining bank, rank, and
channel constraints), applies issued commands, and runs the refresh
engine.  It never chooses *which* command to issue — scheduling policy
lives in :mod:`repro.controller`.
"""

from __future__ import annotations

from typing import List, Optional

from .bank import Bank
from .commands import CommandType
from .legality import LegalityKernel
from .rank import Rank
from .timing import DDR2Timing


class DramSystem:
    """A single-channel SDRAM memory system (paper Table 5: 1 rank, 8 banks)."""

    def __init__(
        self,
        timing: DDR2Timing,
        num_ranks: int = 1,
        num_banks: int = 8,
        enable_refresh: bool = True,
    ):
        if num_ranks <= 0:
            raise ValueError(f"need at least one rank, got {num_ranks}")
        from .channel import Channel  # local import to avoid cycle in docs

        self.timing = timing
        self.ranks: List[Rank] = [Rank(r, timing, num_banks) for r in range(num_ranks)]
        self.channel = Channel(timing)
        self.enable_refresh = enable_refresh
        #: Absolute cycle of the next mandatory refresh.  Together with
        #: :attr:`refresh_end` this is part of the event-engine wake
        #: contract: the controller folds both boundaries into the wake
        #: time it publishes to the sharded wake index, so they may
        #: only move inside :meth:`try_start_refresh` — a tick the
        #: controller by construction observes and republishes after.
        self.next_refresh_due = timing.t_refi if enable_refresh else None
        #: End cycle of an in-progress refresh, or None.
        self.refresh_end: Optional[int] = None
        self.refresh_count = 0
        #: Total cycles spent refreshing (for the FQ real clock).
        self.refresh_cycles = 0
        #: Number of banks with an open row; maintained by :meth:`issue`
        #: so the controller's busy probe is O(1).
        self.open_banks = 0
        #: Legality kernel: mirrors the bank/rank/channel timing state
        #: as flat lists and answers every earliest-issue query.
        #: Valid only while mutations flow through :meth:`issue` and
        #: :meth:`try_start_refresh` (see its invalidation rules).
        self.kernel = LegalityKernel(self)

    # -- topology helpers --------------------------------------------------

    @property
    def num_banks(self) -> int:
        return len(self.ranks[0])

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    def bank(self, rank: int, bank: int) -> Bank:
        return self.ranks[rank].banks[bank]

    def iter_banks(self):
        for rank in self.ranks:
            for bank in rank.banks:
                yield rank.index, bank

    # -- refresh engine ----------------------------------------------------

    def in_refresh(self, now: int) -> bool:
        """True while an all-bank refresh is in progress."""
        return self.refresh_end is not None and now < self.refresh_end

    def refresh_due(self, now: int) -> bool:
        """True when a refresh must be started as soon as banks close."""
        return (
            self.enable_refresh
            and self.next_refresh_due is not None
            and now >= self.next_refresh_due
            and not self.in_refresh(now)
        )

    def try_start_refresh(self, now: int) -> bool:
        """Start a refresh at ``now`` if one is due and all banks are closed.

        "Closed" means fully precharged: a bank whose closing precharge
        issued less than ``t_rp`` ago is still mid-precharge, and a
        refresh command before the precharge completes violates the
        DDR2 protocol (all banks must be idle when REF issues).

        Returns True if a refresh started.  The controller is expected
        to stop opening rows while :meth:`refresh_due` holds so this
        eventually succeeds.
        """
        if not self.refresh_due(now):
            return False
        if not all(rank.all_closed() for rank in self.ranks):
            return False
        if any(
            now < bank.precharge_done for _, bank in self.iter_banks()
        ):
            return False
        for rank in self.ranks:
            rank.refresh(now)
        self.kernel.on_refresh()
        self.refresh_end = now + self.timing.t_rfc
        self.refresh_cycles += self.timing.t_rfc
        self.refresh_count += 1
        self.next_refresh_due = now + self.timing.t_refi
        return True

    # -- command legality / issue ------------------------------------------

    def earliest_issue(self, kind: CommandType, rank: int, bank: int) -> Optional[int]:
        """Earliest cycle ``kind`` may issue to (rank, bank), or None.

        Combines bank-state legality with bank, rank, and channel
        timing via the :class:`~repro.dram.legality.LegalityKernel`
        mirrors.  Refresh blackouts are handled by the
        caller via :meth:`in_refresh`, since their start time is not
        yet known.
        """
        earliest = self.kernel.earliest_issue(kind, rank, bank)
        if earliest is None:
            return None
        refresh_end = self.refresh_end
        if refresh_end is not None and refresh_end > earliest:
            return refresh_end
        return earliest

    def earliest_issue_reference(
        self, kind: CommandType, rank: int, bank: int
    ) -> Optional[int]:
        """The original object-walking combine; the kernel's oracle.

        Kept for the legality differential tests: walks the live bank,
        rank, and channel objects per query, so it is correct even when
        those objects were mutated behind the kernel's back.
        """
        bank_earliest = self.ranks[rank].banks[bank].earliest_issue(kind)
        if bank_earliest is None:
            return None
        earliest = max(
            bank_earliest,
            self.ranks[rank].earliest_issue(kind, bank),
            self.channel.earliest_issue(kind),
        )
        if self.refresh_end is not None:
            earliest = max(earliest, self.refresh_end)
        return earliest

    def can_issue(self, kind: CommandType, rank: int, bank: int, now: int) -> bool:
        """True when ``kind`` may legally issue to (rank, bank) at ``now``."""
        refresh_end = self.refresh_end
        if refresh_end is not None and now < refresh_end:
            return False
        earliest = self.kernel.earliest_issue(kind, rank, bank)
        return earliest is not None and now >= earliest

    def issue(self, kind: CommandType, rank: int, bank: int, row: int, now: int) -> None:
        """Issue ``kind`` to (rank, bank, row) at cycle ``now``.

        Raises if any bank, rank, or channel constraint is violated —
        scheduler bugs surface as exceptions rather than silently wrong
        timing.
        """
        if self.in_refresh(now):
            raise RuntimeError(f"command {kind.value} issued during refresh at {now}")
        earliest = self.earliest_issue(kind, rank, bank)
        if earliest is None or now < earliest:
            raise RuntimeError(
                f"command {kind.value} to rank {rank} bank {bank} at {now} "
                f"violates timing (earliest legal {earliest})"
            )
        self.ranks[rank].issue(kind, bank, row, now)
        self.channel.issue(kind, now)
        if kind is CommandType.ACTIVATE:
            self.open_banks += 1
        elif kind is CommandType.PRECHARGE:
            self.open_banks -= 1
        self.kernel.on_issue(kind, rank, bank)

    # -- completion timing ---------------------------------------------------

    def read_data_available(self, issue_time: int) -> int:
        """Cycle the last beat of a read issued at ``issue_time`` arrives."""
        return issue_time + self.timing.t_cl + self.timing.burst

    def write_data_done(self, issue_time: int) -> int:
        """Cycle the last beat of a write issued at ``issue_time`` lands."""
        return issue_time + self.timing.t_wl + self.timing.burst

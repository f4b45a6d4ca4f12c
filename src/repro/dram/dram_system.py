"""The assembled SDRAM memory system: banks, channel counters, refresh.

This is the device-side model the memory controller talks to.  It
answers earliest-legal-issue queries through its
:class:`~repro.dram.legality.LegalityKernel`, applies issued commands,
and runs the refresh engine.  It never chooses *which* command to
issue — scheduling policy lives in :mod:`repro.controller`.
"""

from __future__ import annotations

from typing import List, Optional

from .bank import Bank
from .commands import CommandType
from .legality import LegalityKernel
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
        if num_banks <= 0:
            raise ValueError(f"need at least one bank per rank, got {num_banks}")
        self.timing = timing
        self.num_ranks = num_ranks
        self.num_banks = num_banks
        #: Every bank, rank-major: (rank, bank) sits at
        #: ``rank * num_banks + bank``, the legality kernel's index.
        self.banks: List[Bank] = [
            Bank(timing) for _ in range(num_ranks * num_banks)
        ]
        #: Channel statistics: data-bus busy cycles and CAS commands.
        self.data_busy_cycles = 0
        self.cas_count = 0
        self.read_count = 0
        self.write_count = 0
        self.enable_refresh = enable_refresh
        #: Absolute cycle of the next mandatory refresh.  Together with
        #: :attr:`refresh_end` this is part of the event-engine wake
        #: contract: the controller folds both boundaries into the wake
        #: time it publishes to the sharded wake index, so they may
        #: only move inside :meth:`try_start_refresh` — a tick the
        #: controller by construction observes and republishes after.
        self.next_refresh_due = timing.t_refi if enable_refresh else None
        #: End cycle of the latest refresh blackout, or None.
        self.refresh_end: Optional[int] = None
        self.refresh_count = 0
        #: Total cycles spent refreshing (for the FQ real clock).
        self.refresh_cycles = 0
        #: Number of banks with an open row; maintained by :meth:`issue`
        #: so the controller's busy probe is O(1).
        self.open_banks = 0
        #: The only store of DDR2 timing state; valid while every
        #: command flows through :meth:`issue`.
        self.kernel = LegalityKernel(timing, num_ranks, num_banks)

    def bank(self, rank: int, bank: int) -> Bank:
        return self.banks[rank * self.num_banks + bank]

    def utilization(self, cycles: int) -> float:
        """Data-bus utilization over ``cycles`` relative to peak bandwidth."""
        if cycles <= 0:
            return 0.0
        return self.data_busy_cycles / cycles

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
        eventually succeeds.  The blackout itself is one fold in
        :meth:`earliest_issue`; the kernel never sees refreshes.
        """
        if not self.refresh_due(now):
            return False
        if self.open_banks:
            return False
        if any(now < bank.precharge_done for bank in self.banks):
            return False
        self.refresh_end = now + self.timing.t_rfc
        self.refresh_cycles += self.timing.t_rfc
        self.refresh_count += 1
        self.next_refresh_due = now + self.timing.t_refi
        return True

    # -- command legality / issue ------------------------------------------

    def earliest_issue(self, kind: CommandType, rank: int, bank: int) -> Optional[int]:
        """Earliest cycle ``kind`` may issue to (rank, bank), or None.

        The legality kernel's answer with the refresh blackout folded
        on top.  A refresh that has not started yet is handled by the
        caller via :meth:`refresh_due`, since its start time is not
        yet known.
        """
        earliest = self.kernel.earliest_issue(kind, rank, bank)
        if earliest is None:
            return None
        refresh_end = self.refresh_end
        if refresh_end is not None and refresh_end > earliest:
            return refresh_end
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

        Raises on a command during a refresh blackout, before the
        kernel's earliest legal cycle, in a bank state that forbids it,
        or (for a CAS) to a row other than the open one — scheduler
        bugs surface as exceptions rather than silently wrong timing.
        """
        if self.in_refresh(now):
            raise RuntimeError(f"command {kind.value} issued during refresh at {now}")
        earliest = self.earliest_issue(kind, rank, bank)
        if earliest is None or now < earliest:
            raise RuntimeError(
                f"command {kind.value} to rank {rank} bank {bank} at {now} "
                f"violates timing (earliest legal {earliest})"
            )
        b = self.banks[rank * self.num_banks + bank]
        if kind.is_cas:
            if b.open_row != row:
                raise RuntimeError(
                    f"{kind.value} to rank {rank} bank {bank} row {row} "
                    f"but open row is {b.open_row}"
                )
            self.data_busy_cycles += self.timing.burst
            self.cas_count += 1
            if kind is CommandType.READ:
                self.read_count += 1
            else:
                self.write_count += 1
        elif kind is CommandType.ACTIVATE:
            b.open_row = row
            b.last_activate = now
            b.activate_count += 1
            self.open_banks += 1
        elif kind is CommandType.PRECHARGE:
            b.open_row = None
            b.precharge_done = now + self.timing.t_rp
            b.busy_cycles += b.precharge_done - b.last_activate
            b.precharge_count += 1
            self.open_banks -= 1
        self.kernel.on_issue(kind, rank, bank, now)

    # -- completion timing ---------------------------------------------------

    def read_data_available(self, issue_time: int) -> int:
        """Cycle the last beat of a read issued at ``issue_time`` arrives."""
        return issue_time + self.timing.t_cl + self.timing.burst

    def write_data_done(self, issue_time: int) -> int:
        """Cycle the last beat of a write issued at ``issue_time`` lands."""
        return issue_time + self.timing.t_wl + self.timing.burst

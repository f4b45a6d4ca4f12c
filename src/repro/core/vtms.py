"""Virtual Time Memory System (VTMS) — paper Section 3.1–3.2.

Each hardware thread *i* with service share φᵢ is modeled as owning a
private memory system whose timing is scaled by 1/φᵢ.  The VTMS state
per thread is a small register file:

* one last-virtual-finish-time register per bank, ``B_j.R_i``
* one last-virtual-finish-time register for the channel, ``C.R_i``
* the share register φᵢ
* ``Ra_i``: the earliest (virtual) arrival time among the thread's
  pending requests

Virtual finish-times are computed *just before* the scheduler reads a
request's key (the paper's second, more accurate option), from the
live registers and the bank-state-dependent service times of Table 3;
nothing caches them, since a thread's queued requests of one Table 3
class share an estimate and the bank scheduler keys only the oldest.
The registers are updated as each SDRAM command actually issues, using
the per-command service times of Table 4 (Equations 8 and 9).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dram.commands import CommandType
from ..dram.timing import DDR2Timing


class ThreadVtms:
    """VTMS register file for one hardware thread."""

    def __init__(self, thread_id: int, share: float, num_banks: int, timing: DDR2Timing):
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        self.thread_id = thread_id
        self.share = share
        self.timing = timing
        #: B_j.R_i — last bank-service virtual finish-time per bank.
        self.bank_finish: List[float] = [0.0] * num_banks
        #: C.R_i — last channel-service virtual finish-time.
        self.channel_finish: float = 0.0
        #: Ra_i — earliest arrival among the thread's pending requests.
        self.oldest_arrival: float = 0.0
        #: Owning :class:`VtmsState`, when part of one; register changes
        #: bump its state-wide ``global_epoch``.
        self.owner: Optional["VtmsState"] = None
        # Precomputed scaled service times (the paper notes these are
        # constants once the share register is written).
        inv = 1.0 / share
        self._scaled_row_hit = timing.service_row_hit * inv
        self._scaled_closed = timing.service_closed * inv
        self._scaled_conflict = timing.service_conflict * inv
        self._scaled_channel = timing.burst * inv
        #: Table 4 update times scaled by 1/φ, indexed by
        #: ``CommandType.slot`` (REFRESH never charges a thread).
        updates = {
            CommandType.PRECHARGE: timing.update_precharge * inv,
            CommandType.ACTIVATE: timing.update_activate * inv,
            CommandType.READ: timing.update_read * inv,
            CommandType.WRITE: timing.update_write * inv,
        }
        self._scaled_update: List[float] = [
            updates.get(kind, 0.0) for kind in CommandType
        ]

    def scaled_bank_service(self, bank_service: int) -> float:
        """``B.L / φ`` for an arbitrary bank service time."""
        return bank_service / self.share

    def bump_epoch(self) -> None:
        """Record a register change on the owning state's epoch."""
        owner = self.owner
        if owner is not None:
            owner.global_epoch += 1

    def start_time_estimate(self, bank: int) -> float:
        """Equation 3: the request's bank-service virtual start-time.

        ``B.S = max(Ra, B_j.R)`` — the alternative prioritization basis
        the paper's §2.3 background mentions (earliest virtual
        start-time first, cf. Zhang's VirtualClock).
        """
        return max(self.oldest_arrival, self.bank_finish[bank])

    def finish_time_estimate(self, bank: int, bank_service: int) -> float:
        """Equation 7: the request's channel-service virtual finish-time.

        ``C.F = max(max(Ra, B_j.R) + B.L/φ, C.R) + C.L/φ``

        Args:
            bank: Target bank index.
            bank_service: The request's bank service time *given the
                current bank state* (Table 3).
        """
        bank_start = max(self.oldest_arrival, self.bank_finish[bank])
        bank_finish = bank_start + bank_service / self.share
        channel_start = max(bank_finish, self.channel_finish)
        return channel_start + self._scaled_channel

    def on_request_arrival(self, bank: int, arrival: float, assumed_service: int) -> float:
        """Paper §3.2 solution 1: arrival-time accounting.

        Assume a fixed average bank service for every request, compute
        its virtual finish-time immediately (Equations 3–6), and commit
        the register updates at arrival instead of per command.  The
        returned finish-time is final; no per-command updates follow.

        The paper evaluates the deferred alternative because this one
        "is likely to penalize threads that have lower average bank
        service requirements, e.g., threads with a large number of open
        row buffer hits" — the FQ-VFTF-ARR policy exists to make that
        comparison runnable.
        """
        bank_start = max(arrival, self.bank_finish[bank])
        self.bank_finish[bank] = bank_start + assumed_service / self.share
        channel_start = max(self.bank_finish[bank], self.channel_finish)
        self.channel_finish = channel_start + self._scaled_channel
        self.bump_epoch()
        return self.channel_finish

    def on_command_issued(self, kind: CommandType, bank: int, arrival: float) -> None:
        """Equations 8 and 9: update registers as a command issues.

        The bank register always updates; the channel register updates
        only for CAS commands, *after* the bank register.

        Args:
            kind: The issued SDRAM command.
            bank: Target bank.
            arrival: ``a_i^k`` — arrival time of the request the
                command serves (virtual clock units).
        """
        scaled = self._scaled_update[kind.slot]
        self.bank_finish[bank] = max(arrival, self.bank_finish[bank]) + scaled
        if kind.is_cas:
            self.channel_finish = (
                max(self.bank_finish[bank], self.channel_finish)
                + self._scaled_channel
            )
        self.bump_epoch()


class VtmsState:
    """VTMS register files for every hardware thread, plus shared clock.

    The FQ scheduler uses a *real* clock (paper §3.1) that pauses
    during refresh periods; :meth:`tick` advances it.
    """

    def __init__(
        self,
        shares: Sequence[float],
        num_banks: int,
        timing: DDR2Timing,
    ):
        total = sum(shares)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"sum of service shares must not exceed 1, got {total}"
            )
        self.timing = timing
        self.threads: List[ThreadVtms] = [
            ThreadVtms(i, share, num_banks, timing) for i, share in enumerate(shares)
        ]
        #: Monotonic count of register changes across all threads; the
        #: controller compares it around an arrival or an issue to drop
        #: the wake bounds that read VTMS registers.
        self.global_epoch: int = 0
        for thread in self.threads:
            thread.owner = self
        #: The FQ real clock (cycles, excluding refresh periods).
        self.clock: float = 0.0

    def __getitem__(self, thread_id: int) -> ThreadVtms:
        return self.threads[thread_id]

    def __len__(self) -> int:
        return len(self.threads)

    def tick(self, in_refresh: bool = False) -> None:
        """Advance the real clock one cycle (frozen during refresh)."""
        if not in_refresh:
            self.clock += 1.0

    def set_oldest_arrival(self, thread_id: int, arrival: Optional[float]) -> None:
        """Maintain ``Ra_i`` from the thread's pending-request set.

        With no pending requests the register is parked at the current
        clock so an idle thread's next request starts fresh rather than
        inheriting stale credit or debt.
        """
        thread = self.threads[thread_id]
        value = self.clock if arrival is None else arrival
        # Exact change-detection guard, not a priority comparison: both
        # sides are the same register's old/new value, and skipping the
        # epoch bump on a bitwise-equal write is always safe.
        if value != thread.oldest_arrival:  # lint: allow(DET004, register change guard)
            thread.oldest_arrival = value
            thread.bump_epoch()

"""Runtime DDR2 protocol sanitizer.

An independent re-implementation of the full DDR2 constraint set that
*observes* every command the controller issues and validates it
against its own per-bank / per-rank / per-channel timing ledger.  It
deliberately shares no timing code with :mod:`repro.dram`: the device
model answers "when is this command legal?" while the sanitizer
answers "was that command legal?", so a bug in the model's
earliest-issue algebra cannot hide itself from the check.  The
side-effect-free :meth:`DramProtocolSanitizer.check` is therefore also
the one oracle of :class:`~repro.dram.legality.LegalityKernel`.

Checked constraints:

=============  ====================================================
t_rcd          activate → read/write, same bank
t_rp           precharge → activate (and precharge → refresh)
t_ras          activate → precharge, same bank
t_rc           activate → activate, same bank
t_rrd          activate → activate, same rank (any banks)
t_faw          rolling four-activate window per rank
t_ccd          CAS → CAS, same channel
t_wtr          end of write data → read, same rank
t_wr           end of write data → precharge, same bank
t_rtp          read → precharge, same bank
burst          data-bus occupancy: bursts must never overlap
address bus    at most one command per cycle per channel
t_rfc          refresh blackout: no commands mid-refresh
t_refi         refresh cadence: no interval drifts past the deadline
=============  ====================================================

Violations raise :class:`ProtocolViolation` carrying the offending
command and a bounded history of recent commands for diagnosis.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..dram.commands import CommandType
from ..dram.timing import DDR2Timing

#: "Never happened" sentinel, mirroring the device model's convention
#: but defined independently so the sanitizer stands on its own.
_NEVER = -(10**12)

#: Commands retained for the violation report.
HISTORY_DEPTH = 32

#: A history entry: (cycle, command name, rank, bank, row).
CommandRecord = Tuple[int, str, int, int, int]


class CheckError(AssertionError):
    """Base class for repro.check failures.

    Derives from :class:`AssertionError` so ``pytest`` renders these as
    genuine check failures rather than unexpected errors.
    """


class ProtocolViolation(CheckError):
    """A command violated a DDR2 protocol constraint.

    The report is rendered when the violation is shown, not when it is
    raised: probing :meth:`DramProtocolSanitizer.check` as an oracle
    raises far more violations than any run ever displays.

    Attributes:
        rule: Constraint identifier (``"t_rcd"``, ``"data-bus"``, ...).
        message: What the offending command broke.
        cycle: Cycle the offending command issued.
        command: The offending command as a :data:`CommandRecord`.
        history: Recent commands, oldest first (bounded).
    """

    def __init__(
        self,
        rule: str,
        message: str,
        cycle: int,
        command: CommandRecord,
        history: List[CommandRecord],
    ):
        self.rule = rule
        self.message = message
        self.cycle = cycle
        self.command = command
        self.history = history
        super().__init__(rule, message, cycle, command, history)

    def __str__(self) -> str:
        lines = [
            f"DDR2 protocol violation [{self.rule}] at cycle {self.cycle}: "
            f"{self.message}"
        ]
        if self.history:
            lines.append("recent commands (oldest first):")
            for entry in self.history:
                c, kind, rank, bank, row = entry
                lines.append(f"  @{c:<10d} {kind:<10s} rank={rank} bank={bank} row={row}")
        return "\n".join(lines)


class _BankLedger:
    """Independent per-bank timing record."""

    __slots__ = (
        "open_row",
        "last_activate",
        "last_read",
        "last_precharge",
        "write_data_end",
    )

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.last_activate = _NEVER
        self.last_read = _NEVER
        self.last_precharge = _NEVER
        self.write_data_end = _NEVER


class _RankLedger:
    """Independent per-rank timing record."""

    __slots__ = ("banks", "last_activate", "activate_times", "write_data_end")

    def __init__(self, num_banks: int) -> None:
        self.banks = [_BankLedger() for _ in range(num_banks)]
        self.last_activate = _NEVER
        #: Last four activate cycles in this rank, oldest first.
        self.activate_times: Deque[int] = deque(maxlen=4)
        self.write_data_end = _NEVER


class DramProtocolSanitizer:
    """Validates a stream of observed commands for one memory channel.

    Feed it every command via :meth:`on_command` and every refresh via
    :meth:`on_refresh`; it raises :class:`ProtocolViolation` the moment
    a constraint is broken.  :meth:`check` asks the same question of a
    hypothetical command without recording it.

    Args:
        timing: The DDR2 constraint set the stream must respect.
        num_ranks / num_banks: Channel topology.
        refresh_slack: Extra cycles tolerated beyond ``t_refi`` between
            consecutive refreshes, covering the drain window while open
            rows close.  The default (ten ``t_rc``) is generous for any
            sane drain but still catches a refresh engine that skips or
            forgets refreshes.
    """

    def __init__(
        self,
        timing: DDR2Timing,
        num_ranks: int = 1,
        num_banks: int = 8,
        refresh_slack: Optional[int] = None,
    ):
        self.timing = timing
        self.ranks = [_RankLedger(num_banks) for _ in range(num_ranks)]
        self.refresh_slack = (
            10 * timing.t_rc if refresh_slack is None else refresh_slack
        )
        self.last_command_cycle = _NEVER
        self.last_cas_cycle = _NEVER
        #: First cycle the data bus is free of every reserved burst.
        self.data_busy_until = _NEVER
        #: End of the current/most recent refresh blackout.
        self.refresh_ready = _NEVER
        self.last_refresh_start: Optional[int] = None
        self.commands_checked = 0
        self.refreshes_checked = 0
        self.history: Deque[CommandRecord] = deque(maxlen=HISTORY_DEPTH)

    # -- violation plumbing ------------------------------------------------

    def _fail(
        self, rule: str, message: str, cycle: int, command: CommandRecord
    ) -> None:
        raise ProtocolViolation(
            rule, message, cycle, command, list(self.history)
        )

    # -- observation hooks -------------------------------------------------

    def on_command(
        self, kind: CommandType, rank: int, bank: int, row: int, now: int
    ) -> None:
        """Validate and record one issued command."""
        self.check(kind, rank, bank, row, now)
        t = self.timing
        rk = self.ranks[rank]
        bk = rk.banks[bank]
        if kind is CommandType.ACTIVATE:
            bk.open_row = row
            bk.last_activate = now
            rk.last_activate = now
            rk.activate_times.append(now)
        elif kind is CommandType.PRECHARGE:
            bk.open_row = None
            bk.last_precharge = now
        elif kind is CommandType.READ:
            bk.last_read = now
            self.last_cas_cycle = now
            self.data_busy_until = now + t.t_cl + t.burst
        else:
            data_end = now + t.t_wl + t.burst
            bk.write_data_end = data_end
            rk.write_data_end = data_end
            self.last_cas_cycle = now
            self.data_busy_until = data_end
        self.last_command_cycle = now
        self.commands_checked += 1
        self.history.append((now, kind.value, rank, bank, row))

    def check(
        self, kind: CommandType, rank: int, bank: int, row: int, now: int
    ) -> None:
        """Raise :class:`ProtocolViolation` unless the command is legal.

        Side-effect free: the ledger is left as it was, so this is the
        oracle ``repro.dram``'s earliest-issue answers are tested
        against.
        """
        t = self.timing
        record: CommandRecord = (now, kind.value, rank, bank, row)
        rk = self.ranks[rank]
        bk = rk.banks[bank]

        # Channel-wide rules: one command per cycle, refresh blackout.
        if now <= self.last_command_cycle:
            self._fail(
                "address-bus",
                f"command at {now} but address bus used at "
                f"{self.last_command_cycle}",
                now,
                record,
            )
        if now < self.refresh_ready:
            self._fail(
                "t_rfc",
                f"command during refresh blackout (busy until "
                f"{self.refresh_ready})",
                now,
                record,
            )

        if kind is CommandType.ACTIVATE:
            self._check_activate(rk, bk, now, record)
        elif kind is CommandType.PRECHARGE:
            self._check_precharge(bk, now, record)
        elif kind is CommandType.READ:
            self._check_cas(bk, now, record)
            if now < rk.write_data_end + t.t_wtr:
                self._fail(
                    "t_wtr",
                    f"read {now - rk.write_data_end} cycles after write "
                    f"data ended (t_wtr={t.t_wtr})",
                    now,
                    record,
                )
            self._check_data_bus(now + t.t_cl, now, record)
        elif kind is CommandType.WRITE:
            self._check_cas(bk, now, record)
            self._check_data_bus(now + t.t_wl, now, record)
        else:
            self._fail(
                "command-set",
                f"unexpected command kind {kind.value!r} on the command bus",
                now,
                record,
            )

    def on_refresh(self, now: int) -> None:
        """Validate and record an all-bank refresh starting at ``now``."""
        t = self.timing
        record: CommandRecord = (now, "refresh", -1, -1, -1)
        if now <= self.last_command_cycle:
            self._fail(
                "address-bus",
                f"refresh at {now} but address bus used at "
                f"{self.last_command_cycle}",
                now,
                record,
            )
        if now < self.refresh_ready:
            self._fail(
                "t_rfc",
                "refresh started while a previous refresh was in progress",
                now,
                record,
            )
        for rank_index, rank in enumerate(self.ranks):
            for bank_index, bank in enumerate(rank.banks):
                if bank.open_row is not None:
                    self._fail(
                        "refresh-open-row",
                        f"refresh with rank {rank_index} bank {bank_index} "
                        f"row {bank.open_row} open",
                        now,
                        record,
                    )
                if now < bank.last_precharge + t.t_rp:
                    self._fail(
                        "t_rp",
                        f"refresh {now - bank.last_precharge} cycles after "
                        f"precharge to rank {rank_index} bank {bank_index} "
                        f"(t_rp={t.t_rp})",
                        now,
                        record,
                    )
        if self.last_refresh_start is not None:
            interval = now - self.last_refresh_start
            if interval > t.t_refi + self.refresh_slack:
                self._fail(
                    "t_refi",
                    f"refresh interval {interval} exceeds t_refi="
                    f"{t.t_refi} (+{self.refresh_slack} drain slack)",
                    now,
                    record,
                )
        self.last_refresh_start = now
        self.refresh_ready = now + t.t_rfc
        self.last_command_cycle = now
        self.refreshes_checked += 1
        self.history.append(record)

    # -- per-kind constraint groups ---------------------------------------

    def _check_activate(
        self, rk: _RankLedger, bk: _BankLedger, now: int, record: CommandRecord
    ) -> None:
        t = self.timing
        if bk.open_row is not None:
            self._fail(
                "bank-state",
                f"activate with row {bk.open_row} already open",
                now,
                record,
            )
        if now < bk.last_activate + t.t_rc:
            self._fail(
                "t_rc",
                f"activate {now - bk.last_activate} cycles after previous "
                f"activate to the same bank (t_rc={t.t_rc})",
                now,
                record,
            )
        if now < bk.last_precharge + t.t_rp:
            self._fail(
                "t_rp",
                f"activate {now - bk.last_precharge} cycles after precharge "
                f"(t_rp={t.t_rp})",
                now,
                record,
            )
        if now < rk.last_activate + t.t_rrd:
            self._fail(
                "t_rrd",
                f"activate {now - rk.last_activate} cycles after an "
                f"activate in the same rank (t_rrd={t.t_rrd})",
                now,
                record,
            )
        if (
            len(rk.activate_times) == 4
            and now < rk.activate_times[0] + t.t_faw
        ):
            self._fail(
                "t_faw",
                f"fifth activate {now - rk.activate_times[0]} cycles after "
                f"the fourth-previous one (t_faw={t.t_faw})",
                now,
                record,
            )

    def _check_precharge(
        self, bk: _BankLedger, now: int, record: CommandRecord
    ) -> None:
        t = self.timing
        if bk.open_row is None:
            self._fail("bank-state", "precharge with no row open", now, record)
        if now < bk.last_activate + t.t_ras:
            self._fail(
                "t_ras",
                f"precharge {now - bk.last_activate} cycles after activate "
                f"(t_ras={t.t_ras})",
                now,
                record,
            )
        if now < bk.last_read + t.t_rtp:
            self._fail(
                "t_rtp",
                f"precharge {now - bk.last_read} cycles after read "
                f"(t_rtp={t.t_rtp})",
                now,
                record,
            )
        if now < bk.write_data_end + t.t_wr:
            self._fail(
                "t_wr",
                f"precharge {now - bk.write_data_end} cycles after write "
                f"data ended (t_wr={t.t_wr})",
                now,
                record,
            )

    def _check_cas(
        self, bk: _BankLedger, now: int, record: CommandRecord
    ) -> None:
        t = self.timing
        _, kind, _, _, row = record
        if bk.open_row is None:
            self._fail("bank-state", f"{kind} with no row open", now, record)
        elif bk.open_row != row:
            self._fail(
                "bank-state",
                f"{kind} to row {row} but row {bk.open_row} is open",
                now,
                record,
            )
        if now < bk.last_activate + t.t_rcd:
            self._fail(
                "t_rcd",
                f"{kind} {now - bk.last_activate} cycles after activate "
                f"(t_rcd={t.t_rcd})",
                now,
                record,
            )
        if now < self.last_cas_cycle + t.t_ccd:
            self._fail(
                "t_ccd",
                f"{kind} {now - self.last_cas_cycle} cycles after previous "
                f"CAS (t_ccd={t.t_ccd})",
                now,
                record,
            )

    def _check_data_bus(
        self, burst_start: int, now: int, record: CommandRecord
    ) -> None:
        if burst_start < self.data_busy_until:
            self._fail(
                "data-bus",
                f"data burst starting at {burst_start} overlaps the bus, "
                f"busy until {self.data_busy_until}",
                now,
                record,
            )

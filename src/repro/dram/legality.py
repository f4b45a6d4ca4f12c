"""Command-legality kernel: the one home of the DDR2 timing algebra.

Every timing rule of the device model — the paper's Table 6 plus the
tFAW window — is stored and computed here and nowhere else in
:mod:`repro.dram`.  The kernel keeps the earliest cycle each command
kind is legal as flat per-bank lists plus a handful of rank and
channel scalars, and :meth:`~LegalityKernel.on_issue` moves them from
the issued command itself: an issue changes one bank's components, at
most one rank's scalars, and the channel scalars.  A query is then a
couple of list indexes and ``max`` folds, and
:meth:`~LegalityKernel.earliest_by_mask` answers "earliest issue of any
command kind this bank needs" in one call.

Components per flat bank index ``i = rank * num_banks + bank``
(``None`` = the bank's state forbids the command):

* ``act[i]`` = max(PRE + tRP, ACT + tRC)                  (closed)
* ``pre[i]`` = max(ACT + tRAS, RD + tRTP, WR data end + tWR)  (open)
* ``cas[i]`` = ACT + tRCD                                 (open)

``rc[i]`` holds the bank's last ACT + tRC, the floor ``act[i]`` takes
when the row closes.  Rank scalars: ``rank_act`` = max(last ACT + tRRD,
oldest of the last four ACTs + tFAW) and ``rank_read`` = write data end
+ tWTR.
Channel scalars: ``cmd`` = last command + 1 (one command per cycle) and
``chan_read``/``chan_write`` = max(cmd, last CAS + tCCD, data bus free
− CL/WL).  The full earliest is the max of the bank component and the
matching rank and channel scalars;
:class:`~repro.dram.dram_system.DramSystem` folds the refresh blackout
on top.  Under the Table 6 defaults two terms never bind: tRC = 220 is
below tRAS + tRP = 230, and tCCD = 20 is below the 40-cycle burst that
the data-bus term enforces.

The state is valid only while every command flows through
``DramSystem.issue``.  Its oracle is the independent protocol
sanitizer, :meth:`repro.check.protocol.DramProtocolSanitizer.check`:
``tests/dram/test_legality_differential.py`` asserts that the kernel's
earliest cycle is the first one the sanitizer accepts, over random
timings and command streams and over real checked runs.
"""

from __future__ import annotations

from typing import List, Optional

from .commands import CommandType
from .timing import DDR2Timing

#: Kind-selection bits for :meth:`LegalityKernel.earliest_by_mask`.
MASK_ACT = 1
MASK_PRE = 2
MASK_READ = 4
MASK_WRITE = 8

#: "Never happened": far enough in the past that the tFAW window
#: cannot bind before four activates have been recorded.
_NEVER = -(10**9)


class LegalityKernel:
    """Earliest-legal-issue state for one memory channel."""

    def __init__(self, timing: DDR2Timing, num_ranks: int, num_banks: int):
        self.timing = timing
        self.num_banks = num_banks
        n = num_ranks * num_banks
        self._act: List[Optional[int]] = [0] * n
        self._pre: List[Optional[int]] = [None] * n
        self._cas: List[Optional[int]] = [None] * n
        self._rc: List[int] = [0] * n
        self._rank_act: List[int] = [0] * num_ranks
        self._rank_read: List[int] = [0] * num_ranks
        #: Per rank, the issue cycles of the last four activates,
        #: oldest first.
        self._faw: List[List[int]] = [[_NEVER] * 4 for _ in range(num_ranks)]
        self._cmd = 0
        self._chan_read = 0
        self._chan_write = 0

    def on_issue(self, kind: CommandType, rank: int, bank: int, now: int) -> None:
        """Apply the timing consequences of ``kind`` issuing at ``now``."""
        t = self.timing
        i = rank * self.num_banks + bank
        cmd = now + 1
        if kind.is_cas:
            if kind is CommandType.READ:
                free = now + t.t_cl + t.burst
                pre = now + t.t_rtp
            else:
                free = now + t.t_wl + t.burst
                pre = free + t.t_wr
                self._rank_read[rank] = free + t.t_wtr
            alt = self._pre[i]
            if alt is not None and alt > pre:
                pre = alt
            self._pre[i] = pre
            ccd = now + t.t_ccd
            if cmd > ccd:
                ccd = cmd
            alt = free - t.t_cl
            self._chan_read = alt if alt > ccd else ccd
            alt = free - t.t_wl
            self._chan_write = alt if alt > ccd else ccd
        else:
            if kind is CommandType.ACTIVATE:
                self._act[i] = None
                self._pre[i] = now + t.t_ras
                self._cas[i] = now + t.t_rcd
                self._rc[i] = now + t.t_rc
                window = self._faw[rank]
                del window[0]
                window.append(now)
                act = now + t.t_rrd
                alt = window[0] + t.t_faw
                self._rank_act[rank] = alt if alt > act else act
            elif kind is CommandType.PRECHARGE:
                act = now + t.t_rp
                alt = self._rc[i]
                self._act[i] = alt if alt > act else act
                self._pre[i] = None
                self._cas[i] = None
            else:
                raise ValueError(f"legality kernel cannot issue {kind.value}")
            # A RAS command moves only the command bus.
            if cmd > self._chan_read:
                self._chan_read = cmd
            if cmd > self._chan_write:
                self._chan_write = cmd
        self._cmd = cmd

    # -- queries -------------------------------------------------------------

    def earliest_issue(
        self, kind: CommandType, rank: int, bank: int
    ) -> Optional[int]:
        """Earliest cycle ``kind`` may issue to (rank, bank), sans refresh.

        ``None`` when bank state forbids the command.  The DRAM system
        folds any refresh blackout on top.
        """
        i = rank * self.num_banks + bank
        if kind.is_cas:
            t = self._cas[i]
            if t is None:
                return None
            if kind is CommandType.READ:
                alt = self._rank_read[rank]
                if alt > t:
                    t = alt
                alt = self._chan_read
            else:
                alt = self._chan_write
        elif kind is CommandType.ACTIVATE:
            t = self._act[i]
            if t is None:
                return None
            alt = self._rank_act[rank]
            if alt > t:
                t = alt
            alt = self._cmd
        else:  # PRECHARGE
            t = self._pre[i]
            if t is None:
                return None
            alt = self._cmd
        return alt if alt > t else t

    def earliest_by_mask(self, flat_bank: int, mask: int) -> Optional[int]:
        """Min earliest-issue over the kinds selected by ``mask``.

        ``mask`` is an OR of ``MASK_ACT``/``MASK_PRE``/``MASK_READ``/
        ``MASK_WRITE``; kinds the bank state forbids contribute
        nothing.  ``None`` when no selected kind is possible.
        """
        rank = flat_bank // self.num_banks
        earliest: Optional[int] = None
        if mask & MASK_ACT:
            t = self._act[flat_bank]
            if t is not None:
                alt = self._rank_act[rank]
                if alt > t:
                    t = alt
                if self._cmd > t:
                    t = self._cmd
                earliest = t
        if mask & MASK_PRE:
            t = self._pre[flat_bank]
            if t is not None:
                if self._cmd > t:
                    t = self._cmd
                if earliest is None or t < earliest:
                    earliest = t
        if mask & MASK_READ:
            t = self._cas[flat_bank]
            if t is not None:
                alt = self._rank_read[rank]
                if alt > t:
                    t = alt
                if self._chan_read > t:
                    t = self._chan_read
                if earliest is None or t < earliest:
                    earliest = t
        if mask & MASK_WRITE:
            t = self._cas[flat_bank]
            if t is not None:
                if self._chan_write > t:
                    t = self._chan_write
                if earliest is None or t < earliest:
                    earliest = t
        return earliest

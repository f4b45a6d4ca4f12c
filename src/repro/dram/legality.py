"""Command-legality kernel: earliest-legal-issue from flat mirrors.

The original legality path answered "when may command X issue to
(rank, bank)?" by walking three objects per query — bank, rank,
channel — recombining the same timing terms every time.  This kernel
keeps the *combined-component* form of that computation as flat
per-bank lists plus a handful of rank/channel scalars, updated
incrementally on each issued command (an issue changes one bank's
components, at most one rank's scalars, and the channel scalars).  A
query is then a couple of list indexes and ``max`` folds, and
:meth:`~LegalityKernel.earliest_by_mask` answers "earliest issue of
any command kind this bank needs" in one call.

Components per flat bank index ``i = rank * num_banks + bank``
(``None`` = the bank's state forbids the command):

* ``act[i]``  = max(precharge_done, last_activate + tRC)        (closed)
* ``pre[i]``  = max(act+tRAS, read+tRTP, write_end+tWR)         (open)
* ``cas[i]``  = last_activate + tRCD                            (open)

Rank scalars: ``rank_act`` (tRRD and the rolling four-activate tFAW
window), ``rank_read`` (write-to-read turnaround, tWTR).  Channel
scalars: ``cmd`` (one command per cycle), ``chan_read``/``chan_write``
(tCCD and data-bus occupancy, offset by CL/WL).  The full earliest is
the max of the bank component, the matching rank/channel scalars, and
— folded by :class:`~repro.dram.dram_system.DramSystem` — any refresh
blackout.

**Invalidation rules**: the mirrors are valid only while every state
mutation flows through :meth:`on_issue` / :meth:`on_refresh`, which
:class:`~repro.dram.dram_system.DramSystem` guarantees for commands
issued via ``DramSystem.issue`` and refreshes via
``try_start_refresh``.  Code that pokes ``Bank``/``Rank``/``Channel``
objects directly (some unit tests do) must call :meth:`sync_all`
before querying the kernel.  ``DramSystem.earliest_issue_reference``
retains the original object-walking combine as the oracle the
differential tests pin this kernel against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .commands import CommandType

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from .dram_system import DramSystem

#: Kind-selection bits for :meth:`LegalityKernel.earliest_by_mask`.
MASK_ACT = 1
MASK_PRE = 2
MASK_READ = 4
MASK_WRITE = 8


class LegalityKernel:
    """Incremental earliest-legal-issue state for one memory channel."""

    def __init__(self, dram: "DramSystem"):
        self.dram = dram
        self.num_banks = dram.num_banks
        self.num_ranks = dram.num_ranks
        n = self.num_banks * self.num_ranks
        self.num_flat_banks = n
        self._act: List[Optional[int]] = [0] * n
        self._pre: List[Optional[int]] = [None] * n
        self._cas: List[Optional[int]] = [None] * n
        self._rank_act: List[int] = [0] * self.num_ranks
        self._rank_read: List[int] = [0] * self.num_ranks
        self._cmd = 0
        self._chan_read = 0
        self._chan_write = 0
        #: Optional repro.obs KernelCounters; None in normal runs, so
        #: every instrumented site pays one attribute test.
        self.counters = None
        self.sync_all()

    # -- mirror maintenance -------------------------------------------------

    def _sync_bank(self, rank: int, bank: int) -> None:
        i = rank * self.num_banks + bank
        b = self.dram.ranks[rank].banks[bank]
        t = b.timing
        if b.open_row is None:
            act = b.precharge_done
            alt = b.last_activate + t.t_rc
            self._act[i] = alt if alt > act else act
            self._pre[i] = None
            self._cas[i] = None
        else:
            self._act[i] = None
            pre = b.last_activate + t.t_ras
            alt = b.last_read + t.t_rtp
            if alt > pre:
                pre = alt
            alt = b.write_data_end + t.t_wr
            if alt > pre:
                pre = alt
            self._pre[i] = pre
            self._cas[i] = b.last_activate + t.t_rcd

    def _sync_rank(self, rank: int) -> None:
        r = self.dram.ranks[rank]
        t = r.timing
        act = r.last_activate + t.t_rrd
        if len(r.activate_times) == 4:
            alt = r.activate_times[0] + t.t_faw
            if alt > act:
                act = alt
        self._rank_act[rank] = act
        self._rank_read[rank] = r.write_data_end + t.t_wtr

    def _sync_channel(self) -> None:
        ch = self.dram.channel
        t = ch.timing
        cmd = ch.last_command + 1
        self._cmd = cmd
        cas = ch.last_cas + t.t_ccd
        if cas < cmd:
            cas = cmd
        read = ch.data_bus_free - t.t_cl
        self._chan_read = read if read > cas else cas
        write = ch.data_bus_free - t.t_wl
        self._chan_write = write if write > cas else cas

    def sync_all(self) -> None:
        """Rebuild every mirror from the live DRAM objects."""
        for rank in range(self.num_ranks):
            self._sync_rank(rank)
            for bank in range(self.num_banks):
                self._sync_bank(rank, bank)
        self._sync_channel()
        if self.counters is not None:
            self.counters.syncs += 1

    def on_issue(self, kind: CommandType, rank: int, bank: int) -> None:
        """Refresh the mirrors touched by ``kind`` issuing to (rank, bank).

        One bank's components always change; rank scalars change only
        for activates (tRRD/tFAW window) and writes (tWTR turnaround);
        the channel scalars change on every command.
        """
        self._sync_bank(rank, bank)
        if kind is CommandType.ACTIVATE or kind is CommandType.WRITE:
            self._sync_rank(rank)
        self._sync_channel()

    def on_refresh(self) -> None:
        """An all-bank refresh moved every bank's ``precharge_done``."""
        for rank in range(self.num_ranks):
            for bank in range(self.num_banks):
                self._sync_bank(rank, bank)

    # -- scalar queries ------------------------------------------------------

    def earliest_issue(
        self, kind: CommandType, rank: int, bank: int
    ) -> Optional[int]:
        """Earliest cycle ``kind`` may issue to (rank, bank), sans refresh.

        ``None`` when bank state forbids the command.  Identical to the
        object-walking ``DramSystem.earliest_issue_reference`` modulo
        the refresh fold, which the DRAM system applies on top.
        """
        counters = self.counters
        if counters is not None:
            counters.queries += 1
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

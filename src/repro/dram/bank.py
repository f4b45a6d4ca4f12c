"""Per-bank SDRAM state: the open row and the bank's statistics.

Each bank is a two-dimensional array of cells with a single row
buffer.  An *activate* opens a row into the row buffer, *read*/*write*
commands move data while the row is open, and a *precharge* closes the
row.  A bank records only what the schedulers, the statistics and the
refresh engine read; :class:`~repro.dram.dram_system.DramSystem`
updates it on every issued command, and all timing lives in the
:class:`~repro.dram.legality.LegalityKernel`.
"""

from __future__ import annotations

from typing import Optional

from .timing import DDR2Timing


class Bank:
    """One SDRAM bank: row-buffer state plus occupancy statistics."""

    def __init__(self, timing: DDR2Timing):
        self.timing = timing
        self.open_row: Optional[int] = None
        #: Issue cycle of the latest activate (the FQ inversion bound
        #: and busy accounting count from it).
        self.last_activate = 0
        #: Cycle the latest precharge completes (refresh precondition).
        self.precharge_done = 0
        #: Accumulated activate→precharge-done occupancy (utilization).
        self.busy_cycles = 0
        self.activate_count = 0
        self.precharge_count = 0

    def state_service_time(self, row: int) -> int:
        """Bank service time a request to ``row`` needs right now.

        Implements the paper's Table 3: open-row hit, closed bank, or
        open-row conflict.
        """
        if self.open_row is None:
            return self.timing.service_closed
        if self.open_row == row:
            return self.timing.service_row_hit
        return self.timing.service_conflict

    def busy_cycles_at(self, now: int) -> int:
        """Total activate→precharge occupancy, counting a still-open row."""
        if self.open_row is not None:
            return self.busy_cycles + (now - self.last_activate)
        return self.busy_cycles

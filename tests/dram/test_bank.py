"""Bank state: row-buffer transitions, Table 3 service times, occupancy.

Banks hold no timing; commands reach them through ``DramSystem.issue``
(every timing rule is in ``tests/dram/test_dram_system.py``).
"""

import pytest

from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing


@pytest.fixture
def timing():
    return DDR2Timing()


@pytest.fixture
def dram(timing):
    return DramSystem(timing, num_ranks=1, num_banks=8, enable_refresh=False)


@pytest.fixture
def bank(dram):
    return dram.bank(0, 0)


def open_row(dram, row=7, at=1000):
    dram.issue(CommandType.ACTIVATE, 0, 0, row, at)
    return at


class TestStateTransitions:
    def test_starts_closed(self, bank):
        assert bank.open_row is None

    def test_activate_opens_row(self, dram, bank):
        open_row(dram, row=7)
        assert bank.open_row == 7
        assert dram.open_banks == 1

    def test_precharge_closes_row(self, dram, bank, timing):
        at = open_row(dram)
        dram.issue(CommandType.PRECHARGE, 0, 0, 7, at + timing.t_ras)
        assert bank.open_row is None
        assert dram.open_banks == 0


class TestServiceTimes:
    """state_service_time implements the paper's Table 3."""

    def test_closed_bank(self, bank, timing):
        assert bank.state_service_time(5) == timing.service_closed

    def test_row_hit(self, dram, bank, timing):
        open_row(dram, row=5)
        assert bank.state_service_time(5) == timing.service_row_hit

    def test_conflict(self, dram, bank, timing):
        open_row(dram, row=5)
        assert bank.state_service_time(6) == timing.service_conflict


class TestBusyAccounting:
    def test_busy_cycles_accumulate_activate_to_precharge_done(self, dram, bank, timing):
        at = open_row(dram)
        pre_at = at + timing.t_ras
        dram.issue(CommandType.PRECHARGE, 0, 0, 7, pre_at)
        assert bank.busy_cycles == pre_at + timing.t_rp - at

    def test_busy_cycles_at_counts_open_interval(self, dram, bank):
        at = open_row(dram)
        assert bank.busy_cycles_at(at + 100) == 100

    def test_command_counters(self, dram, bank, timing):
        at = open_row(dram)
        dram.issue(CommandType.PRECHARGE, 0, 0, 7, at + timing.t_ras)
        assert bank.activate_count == 1
        assert bank.precharge_count == 1

"""DramSystem: every timing rule, command streams, refresh engine."""

import pytest

from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing

ACT = CommandType.ACTIVATE
PRE = CommandType.PRECHARGE
RD = CommandType.READ
WR = CommandType.WRITE
#: A setup step that starts a refresh instead of issuing a command.
REF = "refresh"

TABLE6 = DDR2Timing()


def rule(name, setup, probe, expected, timing=TABLE6):
    return pytest.param(timing, setup, probe, expected, id=name)


#: One row per rule: (timing, setup, probe, expected earliest cycle).
#: ``setup`` is (kind, rank, bank, row, cycle) commands issued in order
#: (or (REF, cycle) to start a refresh); ``probe`` is the (kind, rank,
#: bank, row) whose earliest legal cycle must be ``expected`` — ``None``
#: when the bank state forbids it at any cycle.  Table 6 cycles: tRCD 50,
#: CL 50, WL 40, tCCD 20, tWTR 30, tWR 60, tRTP 30, tRP 50, tRRD 30,
#: tRAS 180, tRC 220, tFAW 180, burst 40, tRFC 510, tREFI 280,000.
RULES = [
    # Bank: activate → CAS, activate → precharge, precharge → activate.
    rule("tRCD-read", [(ACT, 0, 0, 7, 1000)], (RD, 0, 0, 7), 1050),
    rule("tRCD-write", [(ACT, 0, 0, 7, 1000)], (WR, 0, 0, 7), 1050),
    rule("tRAS", [(ACT, 0, 0, 7, 1000)], (PRE, 0, 0, 7), 1180),
    # Table 6 tRC (220) is below tRAS + tRP (230), so tRP binds ...
    rule("tRP-over-tRC", [(ACT, 0, 0, 7, 1000), (PRE, 0, 0, 7, 1180)], (ACT, 0, 0, 1), 1230),
    # ... and tRC binds only when it exceeds tRAS + tRP.
    rule(
        "tRC",
        [(ACT, 0, 0, 7, 1000), (PRE, 0, 0, 7, 1180)],
        (ACT, 0, 0, 1),
        1300,
        DDR2Timing(t_rc=300),
    ),
    rule("tRTP", [(ACT, 0, 0, 7, 1000), (RD, 0, 0, 7, 1170)], (PRE, 0, 0, 7), 1200),
    rule("tWR", [(ACT, 0, 0, 7, 1000), (WR, 0, 0, 7, 1050)], (PRE, 0, 0, 7), 1190),
    # Rank: activate spacing and the four-activate window.
    rule("tRRD", [(ACT, 0, 0, 5, 1000)], (ACT, 0, 1, 5), 1030),
    rule(
        "tFAW-fifth-activate",
        [(ACT, 0, b, 5, 1000 + 30 * b) for b in range(4)],
        (ACT, 0, 4, 5),
        1180,
    ),
    rule(
        "tFAW-window-slides",
        [(ACT, 0, b, 5, 1000 + 30 * b) for b in range(4)] + [(ACT, 0, 4, 5, 1180)],
        (ACT, 0, 5, 5),
        1210,
    ),
    rule(
        "tFAW-under-four-activates",
        [(ACT, 0, b, 5, 1000 + 30 * b) for b in range(3)],
        (ACT, 0, 3, 5),
        1090,
    ),
    rule(
        "tFAW-loose-window",
        [(ACT, 0, b, 5, 1000 + 180 * b) for b in range(4)],
        (ACT, 0, 4, 5),
        1570,
    ),
    # Write data end → read anywhere in the rank.
    rule(
        "tWTR-cross-bank",
        [(ACT, 0, 0, 5, 1000), (ACT, 0, 3, 9, 1030), (WR, 0, 0, 5, 1050)],
        (RD, 0, 3, 9),
        1160,
    ),
    # Channel: CAS spacing and data-bus occupancy.  Table 6 tCCD (20)
    # is below the 40-cycle burst, so tCCD binds only when it exceeds it.
    rule(
        "tCCD",
        [(ACT, 0, 0, 7, 1000), (RD, 0, 0, 7, 1050)],
        (RD, 0, 0, 7),
        1110,
        DDR2Timing(t_ccd=60),
    ),
    rule("data-bus-read-read", [(ACT, 0, 0, 7, 1000), (RD, 0, 0, 7, 1050)], (RD, 0, 0, 7), 1090),
    rule("data-bus-read-write", [(ACT, 0, 0, 7, 1000), (RD, 0, 0, 7, 1050)], (WR, 0, 0, 7), 1100),
    rule("data-bus-write-write", [(ACT, 0, 0, 7, 1000), (WR, 0, 0, 7, 1050)], (WR, 0, 0, 7), 1090),
    # One command per cycle on the address bus.
    rule("address-bus-activate", [(ACT, 0, 0, 5, 1000)], (ACT, 1, 0, 5), 1001),
    rule(
        "address-bus-precharge",
        [(ACT, 1, 0, 5, 900), (ACT, 0, 0, 5, 1000), (PRE, 0, 0, 5, 1180)],
        (PRE, 1, 0, 5),
        1181,
    ),
    rule("address-bus-after-cas", [(ACT, 0, 0, 7, 1000), (RD, 0, 0, 7, 1050)], (ACT, 0, 1, 5), 1051),
    # Refresh blackout: tRFC after the refresh starts, every bank.
    rule("refresh-blackout-bank0", [(REF, 280_000)], (ACT, 0, 0, 5), 280_510),
    rule("refresh-blackout-bank7", [(REF, 280_000)], (ACT, 1, 7, 5), 280_510),
    # Bank state: no timing makes these legal.
    rule("activate-open-bank", [(ACT, 0, 0, 7, 1000)], (ACT, 0, 0, 3), None),
    rule("read-closed-bank", [], (RD, 0, 0, 0), None),
    rule("write-closed-bank", [], (WR, 0, 0, 0), None),
    rule("precharge-closed-bank", [], (PRE, 0, 0, 0), None),
    # A CAS is timing-legal at its earliest cycle, but only to the open row.
    rule("cas-wrong-row", [(ACT, 0, 0, 7, 1000)], (RD, 0, 0, 8), 1050),
]


@pytest.fixture
def timing():
    return DDR2Timing()


@pytest.fixture
def dram(timing):
    return DramSystem(timing, num_ranks=1, num_banks=8, enable_refresh=False)


def do_read(dram, bank=0, row=5, start=1000):
    """Drive a full closed-page read: ACT, RD, PRE.  Returns PRE time."""
    t = dram.timing
    dram.issue(CommandType.ACTIVATE, 0, bank, row, start)
    read_at = start + t.t_rcd
    dram.issue(CommandType.READ, 0, bank, row, read_at)
    pre_at = max(start + t.t_ras, read_at + t.t_rtp)
    dram.issue(CommandType.PRECHARGE, 0, bank, row, pre_at)
    return pre_at


class TestCombinedConstraints:
    def test_full_read_sequence_legal(self, dram):
        do_read(dram)

    def test_earliest_issue_combines_bank_and_channel(self, dram, timing):
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 1000)
        # Bank 1 activate limited by t_rrd (rank) and address bus.
        earliest = dram.earliest_issue(CommandType.ACTIVATE, 0, 1)
        assert earliest == 1000 + timing.t_rrd

    def test_interleaved_banks_share_data_bus(self, dram, timing):
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 1000)
        dram.issue(CommandType.ACTIVATE, 0, 1, 9, 1000 + timing.t_rrd)
        read0_at = 1000 + timing.t_rcd
        dram.issue(CommandType.READ, 0, 0, 5, read0_at)
        earliest_read1 = dram.earliest_issue(CommandType.READ, 0, 1)
        assert earliest_read1 >= read0_at + timing.t_ccd

    def test_illegal_issue_raises(self, dram):
        with pytest.raises(RuntimeError):
            dram.issue(CommandType.READ, 0, 0, 5, 1000)

    def test_premature_issue_raises(self, dram):
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 1000)
        with pytest.raises(RuntimeError, match="violates timing"):
            dram.issue(CommandType.READ, 0, 0, 5, 1001)

    def test_can_issue_matches_earliest(self, dram, timing):
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, 1000)
        assert not dram.can_issue(CommandType.READ, 0, 0, 1000 + timing.t_rcd - 1)
        assert dram.can_issue(CommandType.READ, 0, 0, 1000 + timing.t_rcd)


class TestCompletionTiming:
    def test_read_data_available(self, dram, timing):
        assert dram.read_data_available(100) == 100 + timing.t_cl + timing.burst

    def test_write_data_done(self, dram, timing):
        assert dram.write_data_done(100) == 100 + timing.t_wl + timing.burst


def replay(timing, setup):
    """A two-rank, eight-bank system after the row's setup steps."""
    dram = DramSystem(timing, num_ranks=2, num_banks=8)
    for step in setup:
        if step[0] == REF:
            assert dram.try_start_refresh(step[1])
        else:
            dram.issue(*step)
    return dram


def wrong_row(dram, probe):
    kind, rank, bank, row = probe
    return kind.is_cas and row != dram.bank(rank, bank).open_row


class TestTable6Rules:
    @pytest.mark.parametrize("timing, setup, probe, expected", RULES)
    def test_earliest(self, timing, setup, probe, expected):
        """Exact earliest cycle, and ``issue`` accepts the probe there."""
        dram = replay(timing, setup)
        kind, rank, bank, row = probe
        assert dram.earliest_issue(kind, rank, bank) == expected
        if expected is not None and not wrong_row(dram, probe):
            dram.issue(kind, rank, bank, row, expected)

    @pytest.mark.parametrize("timing, setup, probe, expected", RULES)
    def test_issue(self, timing, setup, probe, expected):
        """``issue`` raises one cycle before the earliest (at any cycle
        when there is none), and at the earliest for a CAS to a row that
        is not open."""
        dram = replay(timing, setup)
        kind, rank, bank, row = probe
        with pytest.raises(RuntimeError):
            dram.issue(kind, rank, bank, row, 10**9 if expected is None else expected - 1)
        if expected is not None and wrong_row(dram, probe):
            with pytest.raises(RuntimeError, match="open row"):
                dram.issue(kind, rank, bank, row, expected)


class TestTopology:
    def test_bank_iteration(self, dram):
        banks = dram.banks
        assert len(banks) == 8
        assert banks[3] is dram.bank(0, 3)  # rank-major flat index

    def test_multi_rank(self, timing):
        dram = DramSystem(timing, num_ranks=2, num_banks=4, enable_refresh=False)
        assert dram.num_ranks == 2
        assert dram.num_banks == 4
        assert len(dram.banks) == 8
        assert dram.bank(1, 0) is dram.banks[4]

    def test_bank_count(self, timing):
        for num_ranks, num_banks in [(1, 1), (1, 8), (2, 4), (4, 8)]:
            dram = DramSystem(timing, num_ranks=num_ranks, num_banks=num_banks)
            assert len(dram.banks) == num_ranks * num_banks
            assert len({id(b) for b in dram.banks}) == num_ranks * num_banks
            for r in range(num_ranks):
                rank_banks = [dram.bank(r, b) for b in range(num_banks)]
                assert rank_banks == dram.banks[r * num_banks : (r + 1) * num_banks]

    def test_rejects_zero_ranks(self, timing):
        with pytest.raises(ValueError):
            DramSystem(timing, num_ranks=0)

    def test_rejects_zero_banks(self, timing):
        with pytest.raises(ValueError):
            DramSystem(timing, num_banks=0)


class TestStatistics:
    def test_utilization_counts_burst_cycles(self, dram, timing):
        dram.issue(ACT, 0, 0, 5, 0)
        dram.issue(RD, 0, 0, 5, timing.t_rcd)
        dram.issue(RD, 0, 0, 5, dram.earliest_issue(RD, 0, 0))
        assert dram.data_busy_cycles == 2 * timing.burst
        assert dram.utilization(800) == pytest.approx(2 * timing.burst / 800)

    def test_utilization_empty_window(self, dram):
        assert dram.utilization(0) == 0.0

    def test_cas_counters(self, dram, timing):
        dram.issue(ACT, 0, 0, 5, 0)
        dram.issue(RD, 0, 0, 5, timing.t_rcd)
        dram.issue(WR, 0, 0, 5, dram.earliest_issue(WR, 0, 0))
        assert dram.cas_count == 2
        assert dram.read_count == 1
        assert dram.write_count == 1

    def test_ras_commands_do_not_count_as_cas(self, dram):
        dram.issue(ACT, 0, 0, 5, 0)
        assert dram.cas_count == 0
        assert dram.data_busy_cycles == 0


class TestRefreshEngine:
    def test_refresh_due_after_interval(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        assert not dram.refresh_due(timing.t_refi - 1)
        assert dram.refresh_due(timing.t_refi)

    def test_refresh_waits_for_open_rows(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, timing.t_refi - 10)
        assert not dram.try_start_refresh(timing.t_refi)

    def test_refresh_requires_closed_bank(self, timing):
        """Any open row in any rank holds the refresh off until it closes."""
        dram = DramSystem(timing, num_ranks=2, num_banks=8, enable_refresh=True)
        opened = timing.t_refi - 10
        dram.issue(CommandType.ACTIVATE, 1, 7, 5, opened)
        assert dram.refresh_due(timing.t_refi)
        assert not dram.try_start_refresh(timing.t_refi)
        closed = opened + timing.t_ras
        dram.issue(CommandType.PRECHARGE, 1, 7, 5, closed)
        assert dram.try_start_refresh(closed + timing.t_rp)
        assert dram.refresh_count == 1

    def test_all_banks_closed_initially(self, timing):
        dram = DramSystem(timing, num_ranks=2, num_banks=8, enable_refresh=True)
        assert dram.open_banks == 0
        assert all(b.open_row is None for b in dram.banks)
        assert dram.try_start_refresh(timing.t_refi)

    def test_refresh_waits_for_precharge_to_complete(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        opened = timing.t_refi - timing.t_ras - 10
        dram.issue(CommandType.ACTIVATE, 0, 0, 5, opened)
        dram.issue(CommandType.PRECHARGE, 0, 0, 5, opened + timing.t_ras)
        assert dram.open_banks == 0
        done = opened + timing.t_ras + timing.t_rp
        assert not dram.try_start_refresh(done - 1)
        assert dram.try_start_refresh(done)

    def test_open_banks_counts_open_rows(self, timing):
        dram = DramSystem(timing, num_ranks=2, num_banks=4)
        assert dram.open_banks == 0
        dram.issue(CommandType.ACTIVATE, 1, 2, 9, 1000)
        dram.issue(CommandType.ACTIVATE, 0, 2, 9, 1001)
        assert dram.open_banks == 2
        dram.issue(CommandType.PRECHARGE, 1, 2, 9, 1000 + timing.t_ras)
        assert dram.open_banks == 1

    def test_refresh_blocks_commands_for_trfc(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        start = timing.t_refi
        assert dram.try_start_refresh(start)
        assert dram.in_refresh(start)
        assert dram.in_refresh(start + timing.t_rfc - 1)
        assert not dram.in_refresh(start + timing.t_rfc)
        assert not dram.can_issue(CommandType.ACTIVATE, 0, 0, start + 5)
        assert dram.can_issue(CommandType.ACTIVATE, 0, 0, start + timing.t_rfc)

    def test_refresh_reschedules(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        assert dram.try_start_refresh(timing.t_refi)
        assert dram.next_refresh_due == timing.t_refi + timing.t_refi
        assert dram.refresh_count == 1
        assert dram.refresh_cycles == timing.t_rfc

    def test_refresh_disabled(self, dram, timing):
        assert not dram.refresh_due(10 * timing.t_refi)
        assert not dram.try_start_refresh(10 * timing.t_refi)

    def test_issue_during_refresh_raises(self, timing):
        dram = DramSystem(timing, enable_refresh=True)
        dram.try_start_refresh(timing.t_refi)
        with pytest.raises(RuntimeError, match="refresh"):
            dram.issue(CommandType.ACTIVATE, 0, 0, 5, timing.t_refi + 1)

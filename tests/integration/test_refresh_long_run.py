"""Refresh behaviour over a window long enough to cross t_REFI twice."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile


class TestRefreshLongRun:
    @pytest.fixture(scope="class")
    def system(self):
        system = CmpSystem(
            SystemConfig(num_cores=1, policy="FQ-VFTF"), [profile("equake")]
        )
        system.run_cycles(600_000)
        return system

    def test_refreshes_happen_on_schedule(self, system):
        # 600k cycles across a 280k-cycle interval: two refreshes.
        assert system.dram.refresh_count == 2

    def test_fq_clock_excludes_refresh(self, system):
        expected = system.now - system.dram.refresh_cycles
        assert system.controller.vtms.clock == pytest.approx(expected, abs=2)

    def test_traffic_continues_after_refresh(self, system):
        before = system.dram.cas_count
        system.run_cycles(20_000)
        assert system.dram.cas_count > before

    def test_refresh_blackout_respected(self, system):
        # No command may have issued during any refresh window; the
        # DRAM model would have raised, so reaching here with traffic
        # on both sides of the refreshes is the assertion.
        assert system.dram.cas_count > 0

"""CmpSystem integration: determinism, conservation, fast-forward."""

import pytest

from repro.dram.timing import DDR2Timing
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile
from repro.workloads.synthetic import BenchmarkProfile

# A light profile so system tests stay fast.
LIGHT = BenchmarkProfile("light", 4, 2.0, 800, 0.6, 1, 1 << 14, 0.2, 0.2)
HEAVY = BenchmarkProfile("heavy", 32, 1.0, 60, 0.9, 2, 1 << 18, 0.0, 0.3)


def build(profiles, policy="FR-FCFS", **kwargs):
    config = SystemConfig(num_cores=len(profiles), policy=policy, **kwargs)
    return CmpSystem(config, profiles)


class TestConstruction:
    def test_profile_count_must_match_cores(self):
        config = SystemConfig(num_cores=2)
        with pytest.raises(ValueError):
            CmpSystem(config, [LIGHT])

    def test_fq_policy_creates_vtms(self):
        system = build([LIGHT, HEAVY], policy="FQ-VFTF")
        assert system.controller.vtms is not None

    def test_inversion_bound_override(self):
        system = build([LIGHT, HEAVY], policy="FQ-VFTF", inversion_bound=77)
        assert system.controller.policy.inversion_bound == 77


class TestDeterminism:
    def test_same_seed_identical_results(self):
        results = []
        for _ in range(2):
            system = build([LIGHT, HEAVY], seed=3)
            r = system.run(6000, warmup=1000)
            results.append(
                tuple(t.instructions for t in r.threads)
                + (r.data_bus_utilization,)
            )
        assert results[0] == results[1]

    def test_different_seed_different_results(self):
        a = build([HEAVY, LIGHT], seed=1).run(6000, warmup=1000)
        b = build([HEAVY, LIGHT], seed=2).run(6000, warmup=1000)
        assert a.threads[0].instructions != b.threads[0].instructions


class TestFastForwardEquivalence:
    def test_results_identical_with_and_without(self):
        outcomes = []
        for ff in (True, False):
            system = build([LIGHT, HEAVY], policy="FQ-VFTF", seed=5)
            system.run_cycles(1000, fast_forward=ff)
            before = system._snapshot()
            system.run_cycles(5000, fast_forward=ff)
            after = system._snapshot()
            result = system._result(before, after)
            outcomes.append(
                tuple(round(t.instructions, 6) for t in result.threads)
                + (round(result.data_bus_utilization, 9),)
            )
        assert outcomes[0] == outcomes[1]

    def test_idle_workload_fast_forwards_cheaply(self):
        # crafty-like: almost no memory traffic; the run must still
        # account every cycle.
        system = build([profile("crafty")])
        result = system.run(50_000, warmup=0)
        assert result.cycles == 50_000
        assert result.threads[0].cycles == 50_000


class TestExactWakeups:
    def test_every_self_set_wake_finds_a_command(self):
        """Under FR-FCFS the bank bounds behind the controller's sleep
        are exact, so a tick woken by ``_sleep_until`` always issues —
        unless a request arrived (which resets the sleep) or a refresh
        is draining.  A short tREFI puts refreshes in the window."""
        config = SystemConfig(
            num_cores=2, policy="FR-FCFS", timing=DDR2Timing(t_refi=3_000)
        )
        system = CmpSystem(config, [profile("vpr"), profile("art")])
        controller = system.controller
        tick = controller.tick
        select = controller.channel_scheduler.select
        woken = [False]
        outcomes = []

        def watched_tick(now):
            # An arrival this cycle has already reset the sleep to 0.
            woken[0] = controller._sleep_until == now
            return tick(now)

        def watched_select(now, draining_for_refresh=False):
            cand = select(now, draining_for_refresh)
            if woken[0] and not draining_for_refresh:
                outcomes.append((now, cand is not None))
            return cand

        controller.tick = watched_tick
        controller.channel_scheduler.select = watched_select
        system.run(12_000, warmup=3_000)
        assert system.dram.refresh_count >= 4
        assert len(outcomes) > 300
        assert [now for now, issued in outcomes if not issued] == []


class TestConservation:
    def test_bus_busy_matches_cas_count(self):
        system = build([HEAVY, LIGHT], seed=1)
        system.run(8000, warmup=0)
        dram = system.dram
        assert dram.data_busy_cycles == dram.cas_count * system.config.timing.burst

    def test_thread_utilizations_sum_to_aggregate(self):
        system = build([HEAVY, LIGHT], seed=1)
        result = system.run(8000, warmup=1000)
        total = sum(t.bus_utilization for t in result.threads)
        assert total == pytest.approx(result.data_bus_utilization, abs=0.02)

    def test_utilization_never_exceeds_peak(self):
        system = build([HEAVY, HEAVY], seed=1)
        result = system.run(8000, warmup=1000)
        assert result.data_bus_utilization <= 1.0

    def test_read_latency_at_least_unloaded(self):
        system = build([LIGHT, LIGHT], seed=1)
        result = system.run(12_000, warmup=2000)
        for thread in result.threads:
            if thread.reads:
                assert thread.mean_read_latency >= 179


class TestBufferBounds:
    def test_controller_occupancy_respects_partitions(self):
        system = build([HEAVY, HEAVY], seed=2)
        limit_reads = system.config.read_entries_per_thread
        limit_writes = system.config.write_entries_per_thread
        for _ in range(4000):
            system.step()
            buffers = system.controller.buffers
            from repro.controller.request import RequestKind

            for thread in range(2):
                assert buffers.occupancy(thread, RequestKind.READ) <= limit_reads
                assert buffers.occupancy(thread, RequestKind.WRITE) <= limit_writes


class TestResultApi:
    def test_thread_lookup_by_name(self):
        system = build([LIGHT, HEAVY])
        result = system.run(3000, warmup=0)
        assert result.thread("light").name == "light"
        with pytest.raises(KeyError):
            result.thread("nosuch")

    def test_policy_recorded(self):
        system = build([LIGHT, HEAVY], policy="FQ-VFTF")
        result = system.run(2000, warmup=0)
        assert result.policy == "FQ-VFTF"

    def test_window_accounting(self):
        system = build([LIGHT, HEAVY])
        result = system.run(3000, warmup=500)
        assert result.cycles == 3000

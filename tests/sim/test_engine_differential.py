"""Event engine vs per-cycle oracle: bit-identical results.

The event-driven engine jumps between component wake times instead of
stepping every cycle; correctness is enforced differentially.  For
every scheduling policy, on both the canonical two-processor pair and
a four-processor mix, across distinct workload seeds, a run with the
event engine must produce a ``SimResult`` identical bit for bit to the
same run stepped cycle by cycle — with the runtime checkers attached,
so the skipping engine also satisfies the DRAM protocol sanitizer and
scheduler invariant checker.  Multi-channel systems, where the wake
index shards one heap per channel, get the same differential, and so
do runs whose shortened refresh interval puts refreshes under the
checkers.
"""

import dataclasses

import pytest

from repro.check.harness import DEFAULT_POLICIES, QUAD_WORKLOAD, run_engine_pair
from repro.dram.timing import DDR2Timing
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile

CYCLES = 30_000
WARMUP = 7_500
SEEDS = (0, 7)
PAIR = ("vpr", "art")


def _as_dict(result):
    return dataclasses.asdict(comparable_result(result))


class TestEngineBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workload", [PAIR, QUAD_WORKLOAD], ids=["pair", "quad"])
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_event_matches_cycle_oracle(self, policy, workload, seed):
        oracle, event = run_engine_pair(
            policy, CYCLES, seed=seed, workload=workload, warmup=WARMUP, check=True
        )
        assert _as_dict(event) == _as_dict(oracle)

    def test_event_engine_actually_skips(self):
        _, event = run_engine_pair("FR-FCFS", CYCLES, warmup=WARMUP, check=True)
        assert event.extras["engine_cycles_skipped"] > 0
        assert 0.0 < event.extras["engine_skip_ratio"] < 1.0
        assert (
            event.extras["engine_steps"] + event.extras["engine_cycles_skipped"]
            == CYCLES + WARMUP
        )

    def test_oracle_reports_no_engine_counters(self):
        oracle, _ = run_engine_pair("FR-FCFS", 5_000, check=False)
        assert not any(k.startswith("engine_") for k in oracle.extras)


#: Moderate-intensity mix that keeps every channel busy but unsaturated,
#: tiled across the cores of the multi-channel systems.
TILED_MIX = ("crafty", "parser", "vpr", "twolf")


class TestMultiChannel:
    @pytest.mark.parametrize(
        "num_cores, num_channels", [(8, 2), (16, 4)], ids=["8c2ch", "16c4ch"]
    )
    @pytest.mark.parametrize("policy", ["FR-FCFS", "FQ-VFTF", "BLISS", "MISE"])
    def test_sharded_event_matches_cycle_oracle(self, policy, num_cores, num_channels):
        """One wake-index shard per channel, checkers attached."""
        profiles = [profile(TILED_MIX[i % len(TILED_MIX)]) for i in range(num_cores)]
        results = {}
        for engine in ("cycle", "event"):
            config = SystemConfig(
                policy=policy, num_cores=num_cores, num_channels=num_channels,
                seed=2, engine=engine,
            )
            system = CmpSystem(config, profiles, check=True)
            results[engine] = _as_dict(system.run(6_000, warmup=1_500))
        assert results["event"] == results["cycle"]
        assert len(system._windex._heaps) == num_channels + 1


class TestCheckedRefresh:
    #: The default tREFI (280,000 cycles) outlasts every other checked
    #: run, so none of them puts a refresh in front of the checkers.
    TIMING = DDR2Timing(t_refi=3_000)

    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_refreshing_event_run_matches_cycle_oracle(self, policy):
        """Ten refreshes per run, each seen by the protocol sanitizer."""
        profiles = [profile(name) for name in PAIR]
        results = {}
        for engine in ("cycle", "event"):
            config = SystemConfig(
                policy=policy, num_cores=len(PAIR), engine=engine, timing=self.TIMING
            )
            system = CmpSystem(config, profiles, check=True)
            results[engine] = _as_dict(system.run(CYCLES, warmup=5_000))
            assert system.check_summary()["refreshes_checked"] >= 9
        assert results["event"] == results["cycle"]


class TestFastForwardFlag:
    def test_fast_forward_false_forces_per_cycle_loop(self):
        """``run_cycles(fast_forward=False)`` is the oracle regardless of
        the configured engine, and still matches the event engine."""
        profiles = [profile(name) for name in PAIR]
        config = SystemConfig(policy="FQ-VFTF", num_cores=2, engine="event")
        forced = CmpSystem(config, profiles, check=True)
        forced.run_cycles(WARMUP, fast_forward=False)
        before = forced._snapshot()
        forced.run_cycles(CYCLES, fast_forward=False)
        after = forced._snapshot()
        assert forced.engine_steps == 0
        assert forced.engine_cycles_skipped == 0
        for checker in forced.checkers:
            checker.finalize(forced.now)
        forced_result = forced._result(before, after)

        event = CmpSystem(config, profiles, check=True).run(CYCLES, warmup=WARMUP)
        assert _as_dict(event) == _as_dict(forced_result)

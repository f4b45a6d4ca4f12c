"""Obs must be a pure observer: obs-on results are bit-identical.

The acceptance contract of the observability layer — attaching the
metrics registry (and the wall-clock phase timer) to a run changes no
result bit, on either engine, under every headline policy.  Unlike the
telemetry differential (which compares through ``comparable_result``),
this suite asserts *full* equality including the ``engine_*`` extras:
the obs layer harvests into its own registry, so even the diagnostic
counters must be untouched.
"""

import dataclasses

import pytest

from repro.obs import OBS_PHASES_ENV_VAR
from repro.policy import HEADLINE_POLICIES
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile as lookup_profile

WORKLOAD = ("vpr", "art")
CYCLES = 2_000
WARMUP = 500


def _run(policy: str, engine: str, obs: bool):
    profiles = [lookup_profile(name) for name in WORKLOAD]
    config = SystemConfig(
        num_cores=len(profiles), policy=policy, engine=engine
    )
    system = CmpSystem(config, profiles, obs=obs)
    result = system.run(CYCLES, warmup=WARMUP)
    return system, result


@pytest.mark.parametrize("engine", ["event", "cycle"])
@pytest.mark.parametrize("policy", HEADLINE_POLICIES)
def test_obs_run_is_bit_identical(engine, policy):
    _, baseline = _run(policy, engine, obs=False)
    system, observed = _run(policy, engine, obs=True)
    assert dataclasses.asdict(observed) == dataclasses.asdict(baseline)
    # The run actually carried the registry and harvested something.
    assert system.obs is not None
    assert len(system.obs.registry) > 0


def test_obs_off_attaches_nothing():
    system, _ = _run("FQ-VFTF", "event", obs=False)
    assert system.obs is None
    for controller in system.controllers:
        for scheduler in controller.bank_schedulers:
            assert scheduler.obs_keys is None
    for dram in system.drams:
        assert dram.kernel.counters is None


def test_phase_timer_keeps_bit_identity(monkeypatch):
    _, baseline = _run("FQ-VFTF", "event", obs=False)
    monkeypatch.setenv(OBS_PHASES_ENV_VAR, "1")
    system, observed = _run("FQ-VFTF", "event", obs=True)
    assert dataclasses.asdict(observed) == dataclasses.asdict(baseline)
    totals = system.obs.phases.totals()
    assert totals, "armed phase timer recorded nothing"
    assert all(elapsed >= 0.0 for elapsed in totals.values())
    # Harvested under the _s timer convention.
    assert any(name.startswith("phase.") for name in system.obs.metrics())


def test_memoizing_policy_counts_key_cache_traffic():
    system, _ = _run("FQ-VFTF", "event", obs=True)
    keys = system.obs.keys
    assert keys.misses > 0, "every request's first key build is a miss"
    assert keys.hits > 0, "re-scheduling passes must hit the memo"
    assert keys.uncached == 0


def test_non_memoizing_policy_counts_uncached_builds():
    system, _ = _run("BLISS", "event", obs=True)
    keys = system.obs.keys
    assert keys.uncached > 0
    assert keys.hits == 0 and keys.misses == 0


def test_legality_kernel_traffic_is_harvested():
    system, _ = _run("FQ-VFTF", "event", obs=True)
    metrics = system.obs.metrics()
    assert metrics.get("legality.queries", 0) > 0
    assert "legality.syncs" in metrics

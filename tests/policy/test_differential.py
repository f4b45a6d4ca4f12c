"""Differential checks for the post-paper policies (BLISS, MISE).

The stateful policies carry interval state (BLISS's blacklist, MISE's
slowdown snapshot) that only changes at boundaries published through
``next_event_time``; these tests hold them to the same bar as the
paper policies: zero sanitizer violations, checkers observe-don't-
steer, and the event engine bit-identical to the per-cycle oracle on
both canonical mixes.
"""

import dataclasses

import pytest

from repro.check.harness import (
    DEFAULT_POLICIES,
    QUAD_WORKLOAD,
    run_checked_pair,
    run_engine_pair,
)
from repro.sim.system import comparable_result

CYCLES = 4_000
STATEFUL = ("BLISS", "MISE")


def test_post_paper_policies_are_in_the_default_check_set():
    for policy in STATEFUL:
        assert policy in DEFAULT_POLICIES


@pytest.mark.parametrize("policy", STATEFUL)
def test_sanitizers_pass_with_zero_violations(policy):
    # Any protocol or invariant violation raises CheckError inside the
    # checked run; finishing cleanly with non-trivial counters IS the
    # zero-violations property.
    plain, checked, counters = run_checked_pair(policy, CYCLES)
    assert checked == plain, "checkers must observe, never steer"
    assert counters["commands_checked"] > 0
    assert counters["requests_accepted"] > 0
    assert counters["requests_completed"] > 0


@pytest.mark.parametrize("policy", STATEFUL)
def test_inversion_invariant_disarmed_for_non_fq_policies(policy):
    # BLISS and MISE permit unbounded priority inversion by design;
    # only the §3.3 bank-rule family carries the bounded-inversion
    # obligation the checker enforces.
    from repro.sim.config import SystemConfig
    from repro.sim.system import CmpSystem
    from repro.workloads.spec2000 import profile

    config = SystemConfig(num_cores=2, policy=policy, seed=0)
    profiles = [profile("vpr"), profile("art")]
    system = CmpSystem(config, profiles, check=True)
    assert not system.checkers[0].invariants.check_inversion


@pytest.mark.parametrize("policy", STATEFUL)
@pytest.mark.parametrize(
    "workload", [("vpr", "art"), QUAD_WORKLOAD], ids=["pair", "quad"]
)
def test_event_engine_matches_cycle_oracle(policy, workload):
    # The interval state makes this the sharpest engine test in the
    # suite: a single missed epoch boundary diverges the results.
    oracle, event = run_engine_pair(policy, CYCLES, workload=workload)
    assert dataclasses.asdict(comparable_result(oracle)) == dataclasses.asdict(
        comparable_result(event)
    )
    assert event.extras.get("engine_skip_ratio", 0.0) > 0.0


@pytest.mark.parametrize("policy", STATEFUL)
def test_engine_identity_across_interval_lengths(policy):
    # Short intervals force many boundaries inside the window; the
    # engines must agree however often the policy wakes.
    from repro.sim.config import SystemConfig
    from repro.sim.system import CmpSystem
    from repro.workloads.spec2000 import profile

    profiles = [profile("vpr"), profile("art")]
    results = []
    for engine in ("cycle", "event"):
        config = SystemConfig(
            num_cores=2,
            policy=policy,
            engine=engine,
            bliss_interval=700,
            slowdown_interval=700,
        )
        results.append(
            CmpSystem(config, profiles, check=True).run(CYCLES, warmup=500)
        )
    assert dataclasses.asdict(
        comparable_result(results[0])
    ) == dataclasses.asdict(comparable_result(results[1]))


def _state(obj):
    return {
        key: _state(value) if hasattr(value, "__dict__") else value
        for key, value in vars(obj).items()
    }


@pytest.mark.parametrize("policy", STATEFUL)
def test_idle_boundaries_are_stepped(policy):
    # crafty is cache-resident, so the controller sits idle across every
    # boundary and only the policy's own next_event_time makes the event
    # engine step them.  A wake that returns None on some path skips a
    # boundary and leaves the interval state behind the oracle's.
    from repro.sim.config import SystemConfig
    from repro.sim.system import CmpSystem
    from repro.workloads.spec2000 import profile

    states = []
    for engine in ("cycle", "event"):
        config = SystemConfig(
            num_cores=1,
            policy=policy,
            engine=engine,
            bliss_interval=700,
            slowdown_interval=700,
        )
        system = CmpSystem(config, [profile("crafty")])
        system.run(CYCLES, warmup=500)
        states.append(_state(system.controllers[0].policy))
    assert states[0] == states[1]

"""Policy-subsystem overhead: registry dispatch must stay free.

The ``repro.policy`` refactor routed every scheduling decision through
the :class:`~repro.policy.base.SchedulingPolicy` protocol, so the
protocol must not cost measurable throughput.  Every policy's keys are
computed afresh on each pass (the bank scheduler keys only each
thread's oldest request per command kind), so what the protocol can
add is hook dispatch.  This benchmark measures:

* the paper policies (FR-FCFS, FQ-VFTF) on both engines — the numbers
  the 0.95x pre-refactor gate applies to;
* a no-op *hooked* FR-FCFS clone that dispatches all four hooks — the
  tripwire on hook dispatch, relative to FR-FCFS within the same run,
  so the check is machine-independent;
* the stateful policies (BLISS, MISE), recorded for the trajectory.

Everything lands in ``BENCH_policies.json`` at the repository root.
The ``pre_refactor`` baselines were measured at the commit preceding
the refactor on the reference machine; since absolute rates do not
transfer across machines, the 0.95x gate against them is enforced only
when ``REPRO_BENCH_STRICT`` is on (the relative tripwire always is).
"""

from pathlib import Path
from time import perf_counter

from conftest import once, write_record

from repro.policy import SchedulingPolicy, register
from repro.sim.runner import default_warmup, run_workload
from repro.workloads.spec2000 import profile as lookup_profile

WORKLOAD = ("vpr", "art")
ENGINES = ("cycle", "event")
GATED_POLICIES = ("FR-FCFS", "FQ-VFTF")
RECORDED_POLICIES = ("BLISS", "MISE")
ROUNDS = 3

#: Post-refactor throughput must stay within this fraction of the
#: pre-refactor baseline (enforced under ``REPRO_BENCH_STRICT``).
PRE_REFACTOR_FLOOR = 0.95

#: The hooked clone must stay within this fraction of FR-FCFS in the
#: same run: it bounds hook dispatch, whose four controller sites cost
#: some throughput; a regression on that path (dispatch on every cycle
#: rather than at events) shows up far below this.
HOOKED_FLOOR = 0.5

#: Rates measured at the commit preceding the ``repro.policy``
#: refactor (reference machine, 30 000-cycle window + 25% warmup,
#: best across repeated best-of-3 runs — run-to-run noise on a shared
#: machine is ±10%, so singles are meaningless).  Regenerate only
#: alongside a deliberate perf change.
PRE_REFACTOR = {
    "FR-FCFS": {"cycle": 62576.7, "event": 96866.8},
    "FQ-VFTF": {"cycle": 59635.1, "event": 86467.7},
}

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_policies.json"


class _HookedFrFcfs(SchedulingPolicy):
    """FR-FCFS ordering with every controller hook site dispatched."""

    name = "NOOP-HOOKED"
    has_hooks = True  # force all four controller hook sites

    def request_key(self, request):
        return (request.arrival_time, request.seq)


register("NOOP-HOOKED", lambda ctx: _HookedFrFcfs())


def _measure(policy: str, engine: str, cycles: int) -> float:
    """Best-of-N simulated-cycles-per-second for one fresh run."""
    profiles = [lookup_profile(name) for name in WORKLOAD]
    warmup = default_warmup(cycles)
    simulated = cycles + warmup
    best = 0.0
    for _ in range(ROUNDS):
        start = perf_counter()
        run_workload(profiles, policy, cycles=cycles, warmup=warmup, engine=engine)
        best = max(best, simulated / (perf_counter() - start))
    return best


def _measure_all(cycles: int):
    rates = {}
    for policy in GATED_POLICIES + ("NOOP-HOOKED",) + RECORDED_POLICIES:
        rates[policy] = {
            engine: round(_measure(policy, engine, cycles), 1)
            for engine in ENGINES
        }
    return rates


def test_policy_dispatch_overhead(benchmark, cycles, strict):
    rates = once(benchmark, lambda: _measure_all(cycles))
    print()
    for policy, engines in rates.items():
        for engine, rate in engines.items():
            print(f"  {policy:12s} {engine:6s} {rate:10,.0f} cyc/s")

    if strict:
        # Fail loudly — not with a KeyError deep in the gate loop —
        # when the gate is armed but the baseline block it compares
        # against is incomplete.  An armed gate with missing baselines
        # would otherwise "pass" by never comparing anything.
        missing = [
            f"{policy}/{engine}"
            for policy in GATED_POLICIES
            for engine in ENGINES
            if engine not in PRE_REFACTOR.get(policy, {})
        ]
        assert not missing, (
            "REPRO_BENCH_STRICT is set but the pre_refactor baseline "
            f"block lacks entries for: {', '.join(missing)}. Restore "
            "the baselines (or unset the env var) before trusting this "
            "run."
        )
    write_record(
        RESULT_PATH,
        "policy_overhead",
        {
            "workload": "+".join(WORKLOAD),
            "measurement_cycles": cycles,
            "warmup_cycles": default_warmup(cycles),
            "rounds": ROUNDS,
            "cycles_per_second": rates,
            "pre_refactor": PRE_REFACTOR,
            "pre_refactor_floor": PRE_REFACTOR_FLOOR,
            "hooked_floor": HOOKED_FLOOR,
        },
        strict_gate=strict,
    )

    for policy, engines in rates.items():
        for engine, rate in engines.items():
            assert rate > 0, f"{policy}/{engine} reported non-positive rate"

    # Always-on, machine-independent tripwire: the hooked clone vs
    # FR-FCFS, measured seconds apart on the same machine.
    for engine in ENGINES:
        floor = HOOKED_FLOOR * rates["FR-FCFS"][engine]
        assert rates["NOOP-HOOKED"][engine] >= floor, (
            f"hooked policy under {engine} fell below "
            f"{HOOKED_FLOOR:.0%} of FR-FCFS: "
            f"{rates['NOOP-HOOKED'][engine]:,.0f} vs "
            f"{rates['FR-FCFS'][engine]:,.0f} cyc/s"
        )

    # Absolute gate against the pre-refactor baseline; rates only mean
    # something on the machine that recorded the baseline, so this
    # arms via REPRO_BENCH_STRICT.
    if strict:
        for policy in GATED_POLICIES:
            for engine in ENGINES:
                floor = PRE_REFACTOR_FLOOR * PRE_REFACTOR[policy][engine]
                assert rates[policy][engine] >= floor, (
                    f"{policy}/{engine} regressed past "
                    f"{PRE_REFACTOR_FLOOR:.0%} of pre-refactor: "
                    f"{rates[policy][engine]:,.0f} vs baseline "
                    f"{PRE_REFACTOR[policy][engine]:,.0f} cyc/s"
                )

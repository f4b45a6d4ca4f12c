"""Tracing overhead: untraced vs traced runs of the vpr+art pair.

Times the pair under FQ-VFTF two ways:

* ``untraced`` — a plain run (:func:`repro.sim.runner.run_workload`),
  the shape every figure sweep and cached run takes: each observer
  event site costs one ``observer is None`` test;
* ``traced`` — a :class:`~repro.telemetry.RunTelemetry` (lifecycle
  tracing + interval sampling) attached through ``CmpSystem.attach``
  by :func:`repro.telemetry.driver.run_traced`.

The traced run has no speed floor (it does real work); the cost of the
disabled guards is gated end to end by the e2e benchmark's
no-regression criterion on ``hotloop``, whose reps run with no
``REPRO_*`` knob set.  The tripwires here are about correctness: the
traced run must produce a ``SimResult`` bit-identical to the untraced
one (observation must not perturb the run it observes), and its
Perfetto document must pass schema validation.

Rates land in ``BENCH_telemetry.json`` at the repository root, written
through the shared manifest envelope (:mod:`repro.obs.manifest`).
"""

import dataclasses
from pathlib import Path
from time import perf_counter

from conftest import once

from repro import env
from repro.obs.manifest import write_bench_record
from repro.sim.runner import default_warmup, run_workload
from repro.sim.system import comparable_result
from repro.telemetry.driver import run_traced
from repro.telemetry.export import perfetto_trace, validate_trace
from repro.workloads.spec2000 import profile as lookup_profile

POLICY = "FQ-VFTF"
WORKLOAD = ("vpr", "art")
ROUNDS = 3

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _untraced(profiles, cycles):
    result = run_workload(profiles, POLICY, cycles=cycles)
    return result, None


def _traced(profiles, cycles):
    run = run_traced(profiles, POLICY, cycles=cycles, with_targets=False)
    return run.result, run.telemetry


def _rate(cycles: int, mode):
    """Best-of-N cyc/s for one mode; returns (rate, last result, telemetry)."""
    profiles = [lookup_profile(name) for name in WORKLOAD]
    simulated = cycles + default_warmup(cycles)
    best = 0.0
    result = telemetry = None
    for _ in range(ROUNDS):
        start = perf_counter()
        result, telemetry = mode(profiles, cycles)
        elapsed = perf_counter() - start
        best = max(best, simulated / elapsed)
    return best, result, telemetry


def _measure_all(cycles: int):
    return {
        "untraced": _rate(cycles, _untraced),
        "traced": _rate(cycles, _traced),
    }


def test_telemetry_overhead(benchmark, cycles):
    runs = once(benchmark, lambda: _measure_all(cycles))
    rates = {mode: rate for mode, (rate, _, _) in runs.items()}
    print()
    for mode, rate in rates.items():
        relative = rate / rates["untraced"]
        print(f"  {mode:9s} {rate:12,.0f} cyc/s  ({relative:.2f}x untraced)")

    write_bench_record(
        RESULT_PATH,
        "telemetry_overhead",
        {
            "measurement_cycles": cycles,
            "warmup_cycles": default_warmup(cycles),
            "rounds": ROUNDS,
            "workload": "+".join(WORKLOAD),
            "policy": POLICY,
            "cycles_per_second": {
                mode: round(rate, 1) for mode, rate in rates.items()
            },
            "traced_relative": round(rates["traced"] / rates["untraced"], 4),
        },
        strict_gate=env.truthy("REPRO_BENCH_STRICT"),
    )

    _, untraced, _ = runs["untraced"]
    _, traced, telemetry = runs["traced"]
    # Tripwire 1: tracing observes without perturbing.
    assert dataclasses.asdict(comparable_result(traced)) == (
        dataclasses.asdict(comparable_result(untraced))
    ), "traced run diverged from the untraced run"

    # Tripwire 2: the traced run yields a valid Perfetto document.
    problems = validate_trace(perfetto_trace(telemetry))
    assert problems == [], "\n".join(problems)

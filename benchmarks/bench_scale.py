"""Many-core scaling: the event engine vs the per-cycle oracle.

The event engine reads its next wake from a sharded heap (one shard per
channel) and ticks only the components that are due, so its per-step
cost should stay near-flat as cores are added, while the cycle engine
ticks every component on every cycle.

This benchmark sweeps a synthetic CMP from 4 to 32 cores — a
moderate-intensity mix (crafty+parser+vpr+twolf) tiled outward, one
channel per four cores — and times the *same* workload on both engines
per size.  The mix matters: art-style prefetch streams saturate every
channel, so per-cycle cost drowns in scheduler work both engines share;
the irregular/ILP four keep channels active but unsaturated, which is
exactly the regime where the engines' own per-component overhead — the
quantity under test — dominates.  Both runs produce bit-identical
results (the differential suites enforce it), so their rates are
directly comparable.  Rates, per-step costs, and engine internals land
in ``BENCH_scale.json`` at the repository root.

Run length follows ``REPRO_SIM_CYCLES`` scaled down 4x (32-core runs
are heavy); CI smokes it shorter still.  The tripwire: at 16 cores the
event engine must beat the cycle engine outright, and under
``REPRO_BENCH_STRICT=1`` by at least ``STRICT_SPEEDUP_FLOOR``.
"""

from pathlib import Path
from time import perf_counter

from conftest import once

from repro import env
from repro.obs.manifest import write_bench_record
from repro.sim.config import SystemConfig
from repro.sim.runner import default_warmup
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile as lookup_profile

MIX = ("crafty", "parser", "vpr", "twolf")
CORE_COUNTS = (4, 8, 16, 32)
POLICY = "FQ-VFTF"
#: Cores per memory channel (each channel is one wake-index shard).
CORES_PER_CHANNEL = 4

#: At 16 cores the event engine must beat the cycle engine by this
#: factor before the strict (full-window) run is considered healthy.
STRICT_SPEEDUP_FLOOR = 1.5
TRIPWIRE_CORES = 16

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def _build(num_cores: int, engine: str) -> CmpSystem:
    profiles = [
        lookup_profile(MIX[i % len(MIX)]) for i in range(num_cores)
    ]
    config = SystemConfig(
        policy=POLICY,
        num_cores=num_cores,
        num_channels=max(1, num_cores // CORES_PER_CHANNEL),
        engine=engine,
    )
    return CmpSystem(config, profiles)


def _measure(num_cores: int, engine: str, cycles: int):
    warmup = default_warmup(cycles)
    system = _build(num_cores, engine)
    start = perf_counter()
    result = system.run(cycles, warmup=warmup)
    elapsed = perf_counter() - start
    extras = result.extras
    # The cycle engine steps every cycle and reports no engine extras.
    steps = extras.get("engine_steps", 0.0) or float(cycles + warmup)
    row = {
        "cycles_per_second": round((cycles + warmup) / elapsed, 1),
        "us_per_step": round(1e6 * elapsed / steps, 3),
        "engine_steps": int(steps),
    }
    if engine == "event":
        publishes = extras.get("engine_wake_publishes", 0.0) or 1.0
        row["skip_ratio"] = round(extras.get("engine_skip_ratio", 0.0), 4)
        row["target_calls_per_step"] = round(
            extras.get("engine_event_target_calls", 0.0) / steps, 4
        )
        row["stale_pop_rate"] = round(
            extras.get("engine_stale_pops", 0.0) / publishes, 4
        )
        row["sparse_tick_fraction"] = round(
            extras.get("engine_sparse_tick_fraction", 0.0), 4
        )
    return row


def _measure_all(cycles: int):
    sweep = {}
    for num_cores in CORE_COUNTS:
        event = _measure(num_cores, "event", cycles)
        cycle = _measure(num_cores, "cycle", cycles)
        sweep[str(num_cores)] = {
            "event": event,
            "cycle": cycle,
            "speedup": round(
                event["cycles_per_second"] / cycle["cycles_per_second"], 3
            ),
        }
    return sweep


def test_engine_scaling(benchmark, cycles):
    # A 32-core run simulates 8x the work of the pair benchmarks at the
    # same window; a quarter window keeps the sweep tractable while the
    # per-step costs (the quantity under test) stay stable.
    window = max(2_000, cycles // 4)
    sweep = once(benchmark, lambda: _measure_all(window))
    print()
    for num_cores, row in sweep.items():
        event, cycle = row["event"], row["cycle"]
        print(
            f"  {num_cores:>3s} cores  event {event['cycles_per_second']:9,.0f} cyc/s"
            f"  cycle {cycle['cycles_per_second']:9,.0f} cyc/s"
            f"  speedup {row['speedup']:.2f}x"
            f"  sparse ticks {event['sparse_tick_fraction']:.1%}"
        )

    write_bench_record(
        RESULT_PATH,
        "engine_scaling",
        {
            "measurement_cycles": window,
            "warmup_cycles": default_warmup(window),
            "policy": POLICY,
            "mix": list(MIX),
            "cores_per_channel": CORES_PER_CHANNEL,
            "sweep": sweep,
        },
        strict_gate=env.flag("REPRO_BENCH_STRICT"),
    )

    tripwire = sweep[str(TRIPWIRE_CORES)]
    assert tripwire["speedup"] > 1.0, (
        f"event engine slower than the cycle engine at {TRIPWIRE_CORES} "
        f"cores: {tripwire['speedup']:.2f}x"
    )
    if env.flag("REPRO_BENCH_STRICT"):
        assert tripwire["speedup"] >= STRICT_SPEEDUP_FLOOR, (
            f"event engine below the {STRICT_SPEEDUP_FLOOR:.1f}x floor over "
            f"the cycle engine at {TRIPWIRE_CORES} cores: "
            f"{tripwire['speedup']:.2f}x"
        )

"""Engine throughput: simulated cycles per wall-clock second.

Times both simulation engines (the event-driven skip-to-next-event
loop and the per-cycle oracle) on two workloads — the paper's flagship
interference pair, vpr co-scheduled with art, and a four-processor mix
(art+vpr+parser+crafty) — under the first-ready baseline and the
fair-queuing scheduler.  No result cache, no fan-out.  The measured
rates and the event engine's skip ratios land in ``BENCH_engine.json``
at the repository root, stamped with the host and the ``REPRO_*`` knobs
they ran under.  These are per-path rates for the tripwires below;
whether a change made the program faster is decided end to end by
``benchmarks/e2e/run.py compare``.

Run length follows ``REPRO_SIM_CYCLES`` like every other benchmark, so
CI can smoke-test with a short run while local measurements use the
full default window.  CI's smoke-perf job additionally asserts the
tripwire below: the event engine must not fall behind the per-cycle
oracle on the pair workload.

A second section times system construction's dominant cost, warming
one core's L2 from a cold memo: the batched path against the
per-record replay it replaced, seconds per core as min/median/max over
rounds, with its own tripwire.  A third arm, ``shipped``, restores the
core from image bytes handed in by another process — what a serve job
or pool worker pays for a core some earlier worker already warmed —
with a tripwire on its speedup over ``batched``.
"""

import itertools
import os
import pickle
import statistics
from pathlib import Path
from time import perf_counter

from conftest import once, write_record

from repro.cpu.hierarchy import CacheHierarchy
from repro.sim.config import SystemConfig
from repro.sim.runner import default_warmup, run_workload
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile as lookup_profile

POLICIES = ("FR-FCFS", "FQ-VFTF")
ENGINES = ("cycle", "event")
WORKLOADS = {
    "vpr+art": ("vpr", "art"),
    "art+vpr+parser+crafty": ("art", "vpr", "parser", "crafty"),
}
ROUNDS = 3

#: The event engine must stay at least this fraction of the per-cycle
#: oracle's throughput on the pair workload.  Deliberately generous —
#: an engine regression shows up as a large multiple, not a few
#: percent — so machine noise never trips it.
EVENT_SPEED_FLOOR = 0.8

#: Cold-prewarm A/B profiles: the quad workload's, spanning footprints
#: from 16k to 1M lines and write mixes from 0.10 to 0.35.
PREWARM_MIX = ("art", "vpr", "parser", "crafty")
PREWARM_ROUNDS = 5

#: The batched warm-up must beat the per-record replay by at least this
#: factor (medians over rounds).  Well below the measured ~2x, so
#: runner noise does not trip it; losing the batching does.
PREWARM_SPEEDUP_FLOOR = 1.5

#: Restoring a core from handed-in image bytes must beat a cold batched
#: warm-up by at least this factor (medians over rounds).  Measured at
#: ~3 ms against 80-120 ms, so only a restore that warms or copies per
#: line again trips it.
SHIPPED_SPEEDUP_FLOOR = 5.0

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _measure(workload, policy: str, engine: str, cycles: int):
    """Best-of-N throughput of one fresh simulation; returns one row.

    ``spread`` keeps every round's rate (min/median/max), so a reader
    can tell a real difference between two records from host noise.
    """
    profiles = [lookup_profile(name) for name in workload]
    warmup = default_warmup(cycles)
    simulated = cycles + warmup
    rates = []
    extras = {}
    for _ in range(ROUNDS):
        start = perf_counter()
        result = run_workload(
            profiles, policy, cycles=cycles, warmup=warmup, engine=engine
        )
        rates.append(simulated / (perf_counter() - start))
        extras = result.extras
    row = {
        "cycles_per_second": round(max(rates), 1),
        "spread": {
            "min": round(min(rates), 1),
            "median": round(statistics.median(rates), 1),
            "max": round(max(rates), 1),
        },
        "skip_ratio": round(extras.get("engine_skip_ratio", 0.0), 4),
    }
    steps = extras.get("engine_steps", 0.0)
    if steps:
        # Wake-index internals (PR 8): how often targeting runs per
        # stepped cycle, how much heap garbage the epoch invalidation
        # leaves behind, and what fraction of component ticks the
        # sparse dispatch actually performs vs the broadcast oracle.
        row["target_calls_per_step"] = round(
            extras.get("engine_event_target_calls", 0.0) / steps, 4
        )
        publishes = extras.get("engine_wake_publishes", 0.0)
        if publishes:
            row["stale_pop_rate"] = round(
                extras.get("engine_stale_pops", 0.0) / publishes, 4
            )
        if "engine_sparse_tick_fraction" in extras:
            row["sparse_tick_fraction"] = round(
                extras["engine_sparse_tick_fraction"], 4
            )
    return row


def _measure_all(cycles: int):
    rows = {}
    for tag, workload in WORKLOADS.items():
        rows[tag] = {}
        for policy in POLICIES:
            rows[tag][policy] = {}
            for engine in ENGINES:
                rows[tag][policy][engine] = _measure(
                    workload, policy, engine, cycles
                )
    return rows


def _batched_prewarm(hierarchy, workload, seed, base_address, key):
    """What a cold system build runs: draw-loop chunks into ``Cache.warm``."""
    CmpSystem._prewarm_memo.clear()
    CmpSystem._prewarm(hierarchy, workload, seed, base_address, key)


def _replay_prewarm(hierarchy, workload, seed, base_address, key):
    """The replaced path: one ``TraceRecord`` and one ``Cache.fill`` per reference."""
    l2 = hierarchy.l2
    touches = min(4 * workload.working_set_lines, 40_000)
    for record in itertools.islice(workload.make_trace(seed, base_address), touches):
        l2.fill(hierarchy.line_of(record.address), dirty=record.is_write)
    # A cold build pickles its image into the memo too.
    pickle.dumps(l2.snapshot(), pickle.HIGHEST_PROTOCOL)


def _shipped_prewarm(images):
    """A build handed ``images`` by another process: adopt, then restore."""

    def warm(hierarchy, workload, seed, base_address, key):
        CmpSystem._prewarm_memo.clear()
        CmpSystem.adopt_images({key: images[key]})
        CmpSystem._prewarm(hierarchy, workload, seed, base_address, key)

    return warm


def _prewarm_seconds(warm) -> float:
    """Mean seconds to warm one core's L2 over :data:`PREWARM_MIX`."""
    config = SystemConfig(num_cores=len(PREWARM_MIX))
    profiles = [lookup_profile(name) for name in PREWARM_MIX]
    keys = CmpSystem.prewarm_keys(config, profiles)
    elapsed = 0.0
    for core_id, workload in enumerate(profiles):
        hierarchy = CacheHierarchy(config.l1i, config.l1d, config.l2)
        base_address = core_id * config.thread_address_stride
        start = perf_counter()
        warm(hierarchy, workload, config.seed, base_address, keys[core_id])
        elapsed += perf_counter() - start
    return elapsed / len(PREWARM_MIX)


def _worker_images():
    """The image bytes a worker that warmed :data:`PREWARM_MIX` hands back."""
    CmpSystem._prewarm_memo.clear()
    _prewarm_seconds(CmpSystem._prewarm)
    images = dict(CmpSystem._prewarm_memo)
    CmpSystem._prewarm_memo.clear()
    return images


def _measure_prewarm():
    """Seconds per core, batched vs replay vs shipped, alternating within each round."""
    shipped = _shipped_prewarm(_worker_images())
    samples = {"batched": [], "replay": [], "shipped": []}
    for _ in range(PREWARM_ROUNDS):
        samples["batched"].append(_prewarm_seconds(_batched_prewarm))
        samples["replay"].append(_prewarm_seconds(_replay_prewarm))
        samples["shipped"].append(_prewarm_seconds(shipped))
    row = {
        path: {
            "min_s": round(min(values), 5),
            "median_s": round(statistics.median(values), 5),
            "max_s": round(max(values), 5),
        }
        for path, values in samples.items()
    }
    batched = statistics.median(samples["batched"])
    row["speedup"] = round(statistics.median(samples["replay"]) / batched, 3)
    row["shipped_speedup"] = round(batched / statistics.median(samples["shipped"]), 3)
    row["host_cpus"] = os.cpu_count()
    return row


def test_engine_throughput(benchmark, cycles, strict):
    rows, prewarm = once(benchmark, lambda: (_measure_all(cycles), _measure_prewarm()))
    print()
    for tag, policies in rows.items():
        for policy, engines in policies.items():
            for engine, row in engines.items():
                print(
                    f"  {tag:22s} {policy:8s} {engine:6s}"
                    f" {row['cycles_per_second']:10,.0f} cyc/s"
                    f"  skip {row['skip_ratio']:.1%}"
                )
    for path in ("batched", "replay", "shipped"):
        times = prewarm[path]
        print(
            f"  cold prewarm {path:8s} {1000 * times['median_s']:7.1f} ms/core"
            f"  [{1000 * times['min_s']:.1f}, {1000 * times['max_s']:.1f}]"
        )
    print(f"  cold prewarm speedup {prewarm['speedup']:.2f}x")
    print(f"  shipped image speedup {prewarm['shipped_speedup']:.2f}x over batched")

    write_record(
        RESULT_PATH,
        "engine_throughput",
        {
            "measurement_cycles": cycles,
            "warmup_cycles": default_warmup(cycles),
            "rounds": ROUNDS,
            "workloads": rows,
            # Back-compat summary: the pair workload's event-engine
            # rates under the original schema's key.
            "workload": "vpr+art",
            "cycles_per_second": {
                p: rows["vpr+art"][p]["event"]["cycles_per_second"]
                for p in POLICIES
            },
            "prewarm_profiles": list(PREWARM_MIX),
            "prewarm_rounds": PREWARM_ROUNDS,
            "prewarm": prewarm,
        },
        strict_gate=strict,
    )

    for tag, policies in rows.items():
        for policy, engines in policies.items():
            for engine, row in engines.items():
                assert row["cycles_per_second"] > 0, (
                    f"{tag}/{policy}/{engine} reported non-positive throughput"
                )

    # CI tripwire: skipping must help (or at the very least not hurt)
    # on the pair workload.
    for policy in POLICIES:
        pair = rows["vpr+art"][policy]
        floor = EVENT_SPEED_FLOOR * pair["cycle"]["cycles_per_second"]
        assert pair["event"]["cycles_per_second"] >= floor, (
            f"event engine slower than {EVENT_SPEED_FLOOR:.0%} of the "
            f"per-cycle oracle under {policy}: "
            f"{pair['event']['cycles_per_second']:,.0f} vs "
            f"{pair['cycle']['cycles_per_second']:,.0f} cyc/s"
        )

    # CI tripwire: a cold build's L2 warm-up stays batched.
    assert prewarm["speedup"] >= PREWARM_SPEEDUP_FLOOR, (
        f"batched prewarm only {prewarm['speedup']:.2f}x the record replay "
        f"(floor {PREWARM_SPEEDUP_FLOOR}x)"
    )

    # CI tripwire: a handed-in image restores far faster than warming.
    assert prewarm["shipped_speedup"] >= SHIPPED_SPEEDUP_FLOOR, (
        f"shipped image restore only {prewarm['shipped_speedup']:.2f}x the "
        f"batched warm-up (floor {SHIPPED_SPEEDUP_FLOOR}x)"
    )

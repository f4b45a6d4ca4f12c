#!/usr/bin/env python
"""Profile one co-scheduled run and print the hottest code paths.

The companion to the performance notes in docs/INTERNALS.md §6: run
this before and after touching the cycle loop to see where the time
actually goes.  Simulates a co-scheduled workload pair from scratch
(no cache layers) under cProfile and prints the top functions by
cumulative time.

    PYTHONPATH=src python tools/profile_run.py
    PYTHONPATH=src python tools/profile_run.py --policy FR-FCFS \
        --benchmarks vpr art --cycles 40000 --top 30

Regression hunts: save a baseline profile before a change, then diff
after it — the delta table shows exactly which functions got cheaper
or dearer, no manual pstats spelunking:

    PYTHONPATH=src python tools/profile_run.py --save before.prof
    ... make changes ...
    PYTHONPATH=src python tools/profile_run.py --diff before.prof

A profile finds candidates; whether a change made the program faster
is decided by the end-to-end benchmark (``benchmarks/e2e/run.py``
and its ``compare`` verdict).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim.runner import default_warmup, run_workload  # noqa: E402
from repro.workloads.spec2000 import profile as lookup_profile  # noqa: E402

#: Accepted --sort spellings → the pstats sort key.  ``cumtime`` and
#: ``cumulative`` are the same thing; both are accepted because both
#: are common muscle memory.
SORT_KEYS = {
    "cumulative": "cumulative",
    "cumtime": "cumulative",
    "tottime": "tottime",
    "ncalls": "ncalls",
}


def _function_rows(stats: pstats.Stats):
    """Flatten a Stats object to {(file, line, func): (ncalls, tot, cum)}."""
    rows = {}
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows[func] = (nc, tt, ct)
    return rows


def _print_diff(baseline: pstats.Stats, current: pstats.Stats, sort: str, top: int) -> None:
    """Per-function delta table: current minus baseline, largest first.

    Functions present on only one side still appear (the other side
    counts as zero), so regressions from *new* code paths show up too.
    """
    before = _function_rows(baseline)
    after = _function_rows(current)
    deltas = []
    for func in set(before) | set(after):
        b_calls, b_tot, b_cum = before.get(func, (0, 0.0, 0.0))
        a_calls, a_tot, a_cum = after.get(func, (0, 0.0, 0.0))
        deltas.append(
            (
                func,
                a_calls - b_calls,
                a_tot - b_tot,
                a_cum - b_cum,
                a_tot,
                a_cum,
            )
        )
    rank = {"tottime": 2, "cumulative": 3, "ncalls": 1}[sort]
    deltas.sort(key=lambda row: abs(row[rank]), reverse=True)
    print(
        f"{'Δncalls':>10} {'Δtottime':>10} {'Δcumtime':>10} "
        f"{'tottime':>9} {'cumtime':>9}  function"
    )
    for func, d_calls, d_tot, d_cum, a_tot, a_cum in deltas[:top]:
        filename, lineno, name = func
        where = f"{Path(filename).name}:{lineno}({name})"
        print(
            f"{d_calls:>+10d} {d_tot:>+10.3f} {d_cum:>+10.3f} "
            f"{a_tot:>9.3f} {a_cum:>9.3f}  {where}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=["vpr", "art"],
        help="benchmarks to co-schedule, one per core (default: vpr art)",
    )
    parser.add_argument("--policy", default="FQ-VFTF")
    parser.add_argument("--cycles", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--top", type=int, default=20, help="rows of profile output"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=sorted(SORT_KEYS),
        help="pstats sort key (cumtime is an alias for cumulative)",
    )
    parser.add_argument(
        "--engine",
        choices=["cycle", "event"],
        default=None,
        help="simulation engine (default: REPRO_ENGINE or 'event')",
    )
    parser.add_argument(
        "--save",
        metavar="OUT.prof",
        default=None,
        help="dump the raw profile for later --diff runs",
    )
    parser.add_argument(
        "--diff",
        metavar="BASELINE.prof",
        default=None,
        help="print the per-function delta vs a profile saved with --save",
    )
    args = parser.parse_args(argv)
    sort = SORT_KEYS[args.sort]

    baseline = None
    if args.diff is not None:
        path = Path(args.diff)
        if not path.exists():
            parser.error(f"--diff baseline not found: {path}")
        baseline = pstats.Stats(str(path)).strip_dirs()

    profiles = [lookup_profile(name) for name in args.benchmarks]
    warmup = default_warmup(args.cycles)
    simulated = args.cycles + warmup

    profiler = cProfile.Profile()
    start = time.perf_counter()  # lint: allow(DET002, profiling harness timing, not simulation state)
    profiler.enable()
    result = run_workload(
        profiles,
        args.policy,
        cycles=args.cycles,
        warmup=warmup,
        seed=args.seed,
        engine=args.engine,
    )
    profiler.disable()
    elapsed = time.perf_counter() - start  # lint: allow(DET002, profiling harness timing, not simulation state)

    names = "+".join(args.benchmarks)
    print(
        f"{names} under {args.policy}: {simulated:,} cycles in "
        f"{elapsed:.2f}s = {simulated / elapsed:,.0f} simulated cycles/sec"
    )
    steps = result.extras.get("engine_steps")
    if steps is not None:
        skipped = result.extras["engine_cycles_skipped"]
        ratio = result.extras["engine_skip_ratio"]
        mean_skip = skipped / steps if steps else 0.0
        print(
            f"event engine: {int(steps):,} cycles stepped, "
            f"{int(skipped):,} skipped ({ratio:.1%} skip ratio, "
            f"mean skip {mean_skip:.1f} cycles per step)"
        )
    else:
        print("cycle engine: every cycle stepped (differential oracle)")
    print()
    stats = pstats.Stats(profiler).strip_dirs()
    if args.save is not None:
        stats.dump_stats(args.save)
        print(f"profile written to {args.save}")
    if baseline is not None:
        _print_diff(baseline, stats, sort, args.top)
    else:
        stats.sort_stats(sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())

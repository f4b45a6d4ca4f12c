"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's evaluation figures and
prints the corresponding rows/series.  Figures 5–7 share one set of
two-processor runs and Figures 8–9 one set of four-processor runs;
the session-scoped fixtures below make the sharing explicit, so
``pytest benchmarks/ --benchmark-only`` simulates each workload once.

Run length follows ``REPRO_SIM_CYCLES`` (default 60,000 cycles of
measurement per run, preceded by a 25% warmup).  Independent runs fan
out across ``REPRO_JOBS`` worker processes, and completed runs persist
in the on-disk result cache (``REPRO_CACHE_DIR``, disable with
``REPRO_NO_CACHE=1``), so a re-invocation at the same settings replays
from disk instead of re-simulating.

The throughput benchmarks write their measurements to ``BENCH_*.json``
records at the repository root through :func:`write_record`.
``REPRO_BENCH_STRICT`` arms their strict gates (the pre-refactor floor
in ``bench_policy_overhead.py``, the full-window speedup floor in
``bench_scale.py``); it is read once, by the ``strict`` fixture, with
the ``REPRO_CHECK`` convention (unset, ``0`` and ``false`` are off).
"""

import json
from pathlib import Path

import pytest

from repro import env
from repro.experiments.pairs import run_pairs
from repro.experiments.quads import run_quads
from repro.serve.store import host_stamp
from repro.sim.parallel import default_jobs
from repro.sim.runner import DEFAULT_CYCLES


@pytest.fixture(scope="session")
def cycles():
    return DEFAULT_CYCLES


@pytest.fixture(scope="session")
def jobs():
    return default_jobs()


@pytest.fixture(scope="session")
def strict():
    """Whether ``REPRO_BENCH_STRICT`` arms the strict gates."""
    return env.flag("REPRO_BENCH_STRICT")


@pytest.fixture(scope="session")
def pair_outcomes(cycles, jobs):
    """The 19 subject+art co-runs under all three policies."""
    return run_pairs(cycles=cycles, jobs=jobs)


@pytest.fixture(scope="session")
def quad_outcomes(cycles, jobs):
    """The four 4-thread desktop workloads under FR-FCFS and FQ-VFTF."""
    return run_quads(cycles=cycles, jobs=jobs)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def write_record(path, bench, data, strict_gate=None):
    """Write one ``BENCH_*.json`` record: ``data`` plus what it ran on.

    ``strict_gate`` is the ``strict`` fixture's value (None for a
    benchmark with no strict gate).
    """
    record = {
        "bench": bench,
        "host": host_stamp(),
        "env": env.snapshot(),
        "strict_gate": strict_gate,
        "data": data,
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

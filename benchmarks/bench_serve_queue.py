"""FairJobQueue throughput: scheduling must never be the bottleneck.

The experiment service tags and heap-orders every job through
:class:`repro.serve.queue.FairJobQueue`.  A real sweep dispatches at
most a few jobs per second (each one is a multi-thousand-cycle
simulation), so the queue has six orders of magnitude of headroom to
burn — but an accidental O(n²) (say, a linear scan sneaking into
``submit`` or ``pop``) would erode it quietly.  This benchmark
measures:

* ``submit_then_drain`` — one tenant, ``JOBS`` submissions followed by
  a full drain: the pure heap cost;
* ``interleaved`` — ``TENANTS`` tenants with distinct φ shares,
  submissions and pops interleaved with periodic ``charge`` calls: the
  service's actual access pattern;
* a paired run at 4× the job count whose per-job rate must stay within
  ``SCALING_FLOOR`` of the small run — the machine-independent
  tripwire that catches super-logarithmic growth.

Everything lands in ``BENCH_serve.json`` at the repository root.
"""

from pathlib import Path
from time import perf_counter

from conftest import once, write_record

from repro.serve.queue import FairJobQueue
from repro.sim.parallel import group_spec

JOBS = 20_000
TENANTS = 8
ROUNDS = 3

#: Per-job throughput at 4x the job count must stay within this
#: fraction of the small-run rate.  A heap is O(log n) per op, so the
#: honest expectation is ~1.0; a linear scan would land near 0.25.
SCALING_FLOOR = 0.6

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: One spec shared by every job — the queue never looks inside it, so
#: reusing one object keeps the benchmark measuring the queue alone.
SPEC = group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0)


def _submit_then_drain(jobs: int) -> float:
    """Jobs/second for a single-tenant submit burst plus full drain."""
    best = 0.0
    for _ in range(ROUNDS):
        queue = FairJobQueue()
        start = perf_counter()
        for _ in range(jobs):
            queue.submit("alice", SPEC, 750.0)
        while queue.pop() is not None:
            pass
        best = max(best, jobs / (perf_counter() - start))
    return best


def _interleaved(jobs: int) -> float:
    """Jobs/second under the service's real pattern: many tenants with
    distinct shares, submissions racing pops, finished jobs charged."""
    best = 0.0
    for _ in range(ROUNDS):
        queue = FairJobQueue()
        for i in range(TENANTS):
            queue.tenant(f"tenant-{i}", weight=float(i + 1))
        start = perf_counter()
        backlog = 0
        submitted = 0
        popped = 0
        while popped < jobs:
            # Keep a rolling backlog: submit two, pop one, like a
            # service whose submissions outpace its workers.
            while submitted < jobs and backlog < 64:
                queue.submit(
                    f"tenant-{submitted % TENANTS}", SPEC, 750.0
                )
                submitted += 1
                backlog += 1
            job = queue.pop()
            if job is None:
                break
            backlog -= 1
            popped += 1
            queue.charge(job, busy_s=0.001, turnaround_s=0.002)
        queue.fairness()
        best = max(best, popped / (perf_counter() - start))
    return best


def _measure_all():
    return {
        "submit_then_drain": round(_submit_then_drain(JOBS), 1),
        "interleaved": round(_interleaved(JOBS), 1),
        "submit_then_drain_4x": round(_submit_then_drain(4 * JOBS), 1),
    }


def test_fair_job_queue_throughput(benchmark):
    rates = once(benchmark, _measure_all)
    print()
    for scenario, rate in rates.items():
        print(f"  {scenario:22s} {rate:12,.0f} jobs/s")

    write_record(
        RESULT_PATH,
        "serve_queue",
        {
            "jobs": JOBS,
            "tenants": TENANTS,
            "rounds": ROUNDS,
            "jobs_per_second": rates,
            "scaling_floor": SCALING_FLOOR,
        },
    )

    for scenario, rate in rates.items():
        assert rate > 0, f"{scenario} reported non-positive rate"

    # Machine-independent scaling tripwire: per-job cost at 4x the
    # queue depth must stay near the small-run cost.
    floor = SCALING_FLOOR * rates["submit_then_drain"]
    assert rates["submit_then_drain_4x"] >= floor, (
        f"queue throughput degraded super-logarithmically with depth: "
        f"{rates['submit_then_drain_4x']:,.0f} jobs/s at {4 * JOBS} "
        f"jobs vs {rates['submit_then_drain']:,.0f} at {JOBS}"
    )

"""Interval sampler: boundary exactness and trace-on/off determinism.

The load-bearing guarantees, in increasing strength:

* sampling deadlines are hit exactly by both engines (odd periods
  included), with a final flush interval at end of run;
* a traced run's SimResult is bit-identical to the untraced run's on
  the full differential matrix (3 policies × 2 engines) — tracing
  observes, never steers;
* the two engines produce identical interval samples, metric by
  metric (the sampler sees the same top-of-boundary state whether the
  run stepped or skipped its way there).
"""

import dataclasses

import pytest

from repro.sim.runner import run_workload
from repro.sim.system import comparable_result
from repro.telemetry.driver import run_traced
from repro.telemetry.sampler import IntervalSampler
from repro.workloads.spec2000 import profile

CYCLES = 6_000
WARMUP = 1_500
POLICIES = ("FR-FCFS", "FR-VFTF", "FQ-VFTF")


def pair():
    return [profile("vpr"), profile("art")]


class TestBoundaries:
    @pytest.mark.parametrize("engine", ["cycle", "event"])
    def test_samples_land_exactly_on_period_multiples(self, engine):
        period = 700  # deliberately no divisor relationship with anything
        run = run_traced(
            pair(),
            "FQ-VFTF",
            cycles=CYCLES,
            warmup=WARMUP,
            engine=engine,
            sample_period=period,
            with_targets=False,
        )
        samples = run.telemetry.samples()
        total = CYCLES + WARMUP
        expected = [c for c in range(period, total, period)] + [total]
        assert [s.cycle for s in samples] == expected
        assert all(s.span == period for s in samples[:-1])
        assert samples[-1].span == total - expected[-2]

    def test_final_flush_skipped_when_boundary_aligns(self):
        run = run_traced(
            pair(),
            "FQ-VFTF",
            cycles=4_000,
            warmup=1_000,
            sample_period=1_000,
            with_targets=False,
        )
        samples = run.telemetry.samples()
        assert [s.cycle for s in samples] == [1000, 2000, 3000, 4000, 5000]
        assert all(s.span == 1_000 for s in samples)

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            IntervalSampler(telemetry=None, period=0)


class TestTraceDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("engine", ["cycle", "event"])
    def test_simresult_bit_identical_traced_vs_untraced(self, policy, engine):
        untraced = run_workload(
            pair(), policy, cycles=CYCLES, warmup=WARMUP, engine=engine
        )
        traced = run_traced(
            pair(), policy, cycles=CYCLES, warmup=WARMUP, engine=engine,
            with_targets=False,
        ).result
        # Engine step counters legitimately differ under the event
        # engine (sample boundaries force extra steps), so compare the
        # computed results; under the cycle engine even the raw
        # dataclasses must match.
        assert dataclasses.asdict(comparable_result(traced)) == dataclasses.asdict(
            comparable_result(untraced)
        )
        if engine == "cycle":
            assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_produce_identical_samples(self, policy):
        runs = {
            engine: run_traced(
                pair(),
                policy,
                cycles=CYCLES,
                warmup=WARMUP,
                engine=engine,
                sample_period=1_000,
                with_targets=False,
            )
            for engine in ("cycle", "event")
        }
        a = [dataclasses.asdict(s) for s in runs["cycle"].telemetry.samples()]
        b = [dataclasses.asdict(s) for s in runs["event"].telemetry.samples()]
        assert a == b


class TestSampleContents:
    def test_deltas_sum_to_run_totals(self):
        run = run_traced(
            pair(),
            "FQ-VFTF",
            cycles=CYCLES,
            warmup=0,
            sample_period=1_000,
            with_targets=False,
        )
        samples = run.telemetry.samples()
        result = run.result
        for t in range(2):
            interval_reads = sum(s.reads[t] for s in samples)
            assert interval_reads == result.threads[t].reads
            # Bus share integrated over intervals equals the windowed
            # utilization (spans weight the per-interval fractions).
            integrated = sum(s.bus_utilization[t] * s.span for s in samples)
            assert integrated / result.cycles == pytest.approx(
                result.threads[t].bus_utilization
            )

    def test_vft_lag_zero_under_non_vtms_policy(self):
        run = run_traced(
            pair(),
            "FR-FCFS",
            cycles=3_000,
            warmup=0,
            sample_period=1_000,
            with_targets=False,
        )
        for sample in run.telemetry.samples():
            assert sample.vft_lag == [0.0, 0.0]

    def test_fq_policy_records_inversions_and_lag(self):
        run = run_traced(
            pair(),
            "FQ-VFTF",
            cycles=CYCLES,
            warmup=0,
            sample_period=1_000,
            with_targets=False,
        )
        samples = run.telemetry.samples()
        assert any(any(s.vft_lag) for s in samples)
        assert sum(run.telemetry.inversions) == sum(
            sum(s.inversions) for s in samples
        )

"""Synthetic trace generator: determinism, statistics, parameters."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import BenchmarkProfile, SyntheticTraceGenerator


def profile(**overrides):
    base = dict(
        name="test",
        burst_len=4,
        burst_gap=2.0,
        inter_burst_gap=100.0,
        row_locality=0.5,
        num_streams=2,
        working_set_lines=1 << 12,
        dep_frac=0.3,
        write_frac=0.25,
    )
    base.update(overrides)
    return BenchmarkProfile(**base)


class TestProfileValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"burst_len": 0.5},
            {"burst_gap": -1},
            {"row_locality": 1.5},
            {"dep_frac": -0.1},
            {"write_frac": 2.0},
            {"num_streams": 0},
            {"working_set_lines": 1},
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        if "working_set_lines" in overrides:
            overrides = dict(overrides, num_streams=2)
        with pytest.raises(ValueError):
            profile(**overrides)

    def test_mean_gap(self):
        p = profile(burst_len=4, burst_gap=2.0, inter_burst_gap=100.0)
        assert p.mean_gap() == pytest.approx((2.0 * 3 + 100.0) / 4)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = SyntheticTraceGenerator(profile(), seed=7).take(500)
        b = SyntheticTraceGenerator(profile(), seed=7).take(500)
        assert a == b

    def test_different_seed_different_trace(self):
        a = SyntheticTraceGenerator(profile(), seed=1).take(500)
        b = SyntheticTraceGenerator(profile(), seed=2).take(500)
        assert a != b

    def test_different_base_address_decorrelates(self):
        a = SyntheticTraceGenerator(profile(), seed=1, base_address=0).take(200)
        b = SyntheticTraceGenerator(profile(), seed=1, base_address=1 << 32).take(200)
        assert [r.address for r in a] != [r.address - (1 << 32) for r in b]


class TestStatisticalProperties:
    def test_write_fraction_approximate(self):
        records = SyntheticTraceGenerator(profile(write_frac=0.3), seed=3).take(5000)
        measured = sum(r.is_write for r in records) / len(records)
        assert measured == pytest.approx(0.3, abs=0.03)

    def test_dep_fraction_approximate(self):
        records = SyntheticTraceGenerator(profile(dep_frac=0.6), seed=3).take(5000)
        measured = sum(r.dep > 0 for r in records) / len(records)
        assert measured == pytest.approx(0.6, abs=0.03)

    def test_mean_gap_approximate(self):
        p = profile(burst_len=1, burst_gap=0, inter_burst_gap=50.0)
        records = SyntheticTraceGenerator(p, seed=3).take(8000)
        measured = statistics.mean(r.inst_gap for r in records)
        assert measured == pytest.approx(50.0, rel=0.15)

    def test_row_locality_produces_sequential_runs(self):
        local = SyntheticTraceGenerator(
            profile(row_locality=0.95, num_streams=1), seed=3
        ).take(2000)
        random_ = SyntheticTraceGenerator(
            profile(row_locality=0.05, num_streams=1), seed=3
        ).take(2000)

        def sequential_fraction(records):
            lines = [r.address // 64 for r in records]
            return sum(
                1 for a, b in zip(lines, lines[1:]) if b == a + 1
            ) / len(lines)

        assert sequential_fraction(local) > 0.8
        assert sequential_fraction(random_) < 0.2

    def test_addresses_within_working_set(self):
        p = profile(working_set_lines=256)
        records = SyntheticTraceGenerator(p, seed=5).take(3000)
        assert all(0 <= r.address < 256 * 64 for r in records)

    def test_base_address_offsets_footprint(self):
        base = 1 << 34
        records = SyntheticTraceGenerator(profile(), seed=5, base_address=base).take(100)
        assert all(r.address >= base for r in records)


class TestGeneratorProtocol:
    def test_is_infinite_iterator(self):
        generator = SyntheticTraceGenerator(profile(), seed=1)
        assert iter(generator) is generator
        for _ in range(10_000):
            next(generator)

    def test_rejects_negative_base_address(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(profile(), seed=1, base_address=-64)

    def test_stream_does_not_depend_on_draw_sizes(self):
        whole = SyntheticTraceGenerator(profile(), seed=4).draw(3000)
        split = SyntheticTraceGenerator(profile(), seed=4)
        parts = [split.draw(n) for n in (1, 999, 2000)]
        for column, pieces in zip(whole, zip(*parts)):
            assert column == [value for piece in pieces for value in piece]

    def test_prewarm_stream_is_the_leading_slice_of_the_trace(self):
        p = profile(working_set_lines=1000)  # 4,000 references, many chunks
        chunks = list(p.prewarm_stream(seed=2, base_address=1 << 34))
        assert len(chunks) > 1
        records = p.make_trace(seed=2, base_address=1 << 34).take(4000)
        assert [a for addresses, _ in chunks for a in addresses] == [
            r.address for r in records
        ]
        assert [w for _, writes in chunks for w in writes] == [
            r.is_write for r in records
        ]

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_all_records_valid(self, seed):
        records = SyntheticTraceGenerator(profile(), seed=seed).take(200)
        for record in records:
            assert record.inst_gap >= 0
            assert record.address >= 0
            assert record.dep in (0, 1)

"""Warming each core's L2: cold warm-ups, and the warm-L2 image memo."""

import dataclasses
import itertools

import pytest

from repro.cpu.cache import CacheConfig
from repro.cpu.hierarchy import CacheHierarchy
from repro.cpu.trace import TraceRecord, write_trace
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile
from repro.workloads.trace_workload import TraceWorkload

MIX = ("vpr", "art", "crafty")
MANYCORE_MIX = ("crafty", "parser", "vpr", "twolf")


def build(config, names=MIX):
    return CmpSystem(config, [profile(name) for name in names])


def l2_images(system):
    return [core.hierarchy.l2.snapshot() for core in system.cores]


def cold_build(config, names=MIX):
    CmpSystem._prewarm_memo.clear()
    return build(config, names)


def short_run(system):
    return dataclasses.asdict(comparable_result(system.run(3000, warmup=1000)))


def replayed_images(config, names):
    """Each core's L2 after ``make_trace``'s leading records, one fill each."""
    images = []
    for core_id, name in enumerate(names):
        workload = profile(name)
        base = core_id * config.thread_address_stride
        hierarchy = CacheHierarchy(config.l1i, config.l1d, config.l2)
        touches = min(4 * workload.working_set_lines, 40_000)
        for record in itertools.islice(workload.make_trace(config.seed, base), touches):
            hierarchy.l2.fill(hierarchy.line_of(record.address), dirty=record.is_write)
        images.append(hierarchy.l2.snapshot())
    return images


class TestColdWarmUp:
    @pytest.mark.parametrize(
        "names",
        [("vpr", "art"), ("art", "vpr", "parser", "crafty"), MANYCORE_MIX * 4],
        ids=["pair", "quad", "tiled16"],
    )
    def test_cold_build_matches_record_replay(self, names):
        config = SystemConfig(num_cores=len(names), seed=5)
        assert l2_images(cold_build(config, names)) == replayed_images(config, names)


class TestFileBackedTraces:
    def test_rewritten_trace_file_is_not_served_a_stale_image(self, tmp_path):
        path = tmp_path / "trace.txt"
        workload = TraceWorkload(name="filed", path=path)
        config = SystemConfig(num_cores=1)
        write_trace(path, [TraceRecord(10, False, i * 64) for i in range(500)])
        first = l2_images(CmpSystem(config, [workload]))
        write_trace(path, [TraceRecord(10, True, (i + 9000) * 64) for i in range(500)])
        second = l2_images(CmpSystem(config, [workload]))
        assert second != first
        CmpSystem._prewarm_memo.clear()
        assert second == l2_images(CmpSystem(config, [workload]))


class TestPrewarmMemo:
    def test_memo_hit_matches_cold_build(self):
        config = SystemConfig(num_cores=len(MIX), policy="FQ-VFTF", seed=3)
        cold = cold_build(config)
        hit = build(config)
        cold_images = l2_images(cold)
        # Lines, LRU order and dirty bits, every core.
        assert l2_images(hit) == cold_images
        assert any(any(pairs) for pairs in cold_images[0])
        assert any(dirty for image in cold_images for pairs in image
                   for _, dirty in pairs)
        assert short_run(hit) == short_run(cold)
        # The hit-built system has just run, reordering and dirtying its
        # restored sets; a fresh hit must still see the pristine image.
        assert l2_images(hit) != cold_images
        assert l2_images(build(config)) == cold_images

    def test_memo_key_covers_l2_geometry(self):
        # Same line size and set count, different associativity: an
        # image keyed on line size alone would fill the 4-way L2 with
        # 8-way sets.
        eight_way = SystemConfig(num_cores=len(MIX), seed=4)
        four_way = dataclasses.replace(
            eight_way, l2=CacheConfig(size_bytes=256 * 1024, assoc=4, latency=12)
        )
        assert four_way.l2.num_sets == eight_way.l2.num_sets
        expected = {
            config: l2_images(cold_build(config)) for config in (eight_way, four_way)
        }
        CmpSystem._prewarm_memo.clear()
        for config in (eight_way, four_way, eight_way, four_way):
            assert l2_images(build(config)) == expected[config]

"""Warming each core's L2: cold warm-ups, the warm-L2 image memo, and
the exchange of memoized images between processes."""

import dataclasses
import itertools
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cpu.cache import CacheConfig
from repro.cpu.hierarchy import CacheHierarchy
from repro.cpu.trace import TraceRecord, write_trace
from repro.sim import parallel
from repro.sim.cache import configure_cache
from repro.sim.config import SystemConfig
from repro.sim.runner import clear_solo_cache
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile
from repro.workloads.trace_workload import TraceWorkload, workload_from_records

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


def memo_keys():
    return set(CmpSystem._prewarm_memo)


def spec_keys(spec):
    return {key for key in CmpSystem.prewarm_keys(*spec.build()) if key is not None}


SHAPES = pytest.mark.parametrize(
    "names",
    [("vpr", "art"), ("art", "vpr", "parser", "crafty"), MANYCORE_MIX * 4],
    ids=["pair", "quad", "tiled16"],
)


class TestColdWarmUp:
    @SHAPES
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

    def test_file_and_records_traces_are_never_exported_or_adopted(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(path, [TraceRecord(10, False, i * 64) for i in range(500)])
        filed = TraceWorkload(name="filed", path=path)
        listed = workload_from_records(
            "listed", [TraceRecord(10, True, i * 64) for i in range(500)]
        )
        config = SystemConfig(num_cores=2)
        keys = CmpSystem.prewarm_keys(config, [filed, listed])
        assert keys == [None, None]
        CmpSystem._prewarm_memo.clear()
        cold = l2_images(CmpSystem(config, [filed, listed]))
        assert memo_keys() == set()
        assert CmpSystem.prewarm_images(keys) == {}
        # An image handed in under the file's path-based key is ignored:
        # an empty L2 would be restored in place of the 500 warm lines.
        empty = tuple(() for _ in range(config.l2.num_sets))
        CmpSystem.adopt_images(
            {(filed, config.seed, 0, config.l2): pickle.dumps(empty)}
        )
        assert l2_images(CmpSystem(config, [filed, listed])) == cold


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


class TestImageExchange:
    @SHAPES
    def test_image_from_a_spawned_worker_matches_a_cold_build(self, names):
        spec = parallel.group_spec(names, "FQ-VFTF", 3000, 1000, 5)
        config, profiles = spec.build()
        CmpSystem._prewarm_memo.clear()
        # spawn: the worker starts with an empty memo and inherits nothing,
        # so the images can only have crossed as pickled results.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            result, images = pool.submit(
                parallel.execute_exchanging, spec, {}
            ).result(timeout=300)
        assert set(images) == spec_keys(spec)
        assert all(isinstance(blob, bytes) for blob in images.values())
        cold = cold_build(config, names)
        CmpSystem._prewarm_memo.clear()
        CmpSystem.adopt_images(images)
        shipped = build(config, names)
        assert l2_images(shipped) == l2_images(cold)
        expected = short_run(cold)
        assert short_run(shipped) == expected
        assert dataclasses.asdict(comparable_result(result)) == expected

    def test_worker_returns_only_the_images_it_built(self):
        first = parallel.group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0)
        second = parallel.group_spec(("parser", "art"), "FR-FCFS", 600, 150, 0)
        CmpSystem._prewarm_memo.clear()
        _, built = parallel.execute_exchanging(first, {})
        assert set(built) == spec_keys(first)
        handed = parallel.spec_images(second)
        assert set(handed) == spec_keys(first) & spec_keys(second)
        _, built = parallel.execute_exchanging(second, handed)
        assert set(built) == spec_keys(second) - spec_keys(first)

    def test_run_many_hands_a_later_batch_the_images(self, tmp_path, monkeypatch):
        batches = [
            [parallel.group_spec(("vpr", "art"), policy, 3000, 750, 0)
             for policy in ("FR-FCFS", "FQ-VFTF")],
            [parallel.group_spec(("vpr", "art"), "FR-VFTF", 3000, 750, 0),
             parallel.group_spec(("parser", "art"), "FQ-VFTF", 3000, 750, 0)],
        ]
        handed = {}
        real = parallel.spec_images

        def spy(spec):
            images = real(spec)
            handed[spec] = set(images)
            return images

        monkeypatch.setattr(parallel, "spec_images", spy)

        def run_batches(jobs):
            clear_solo_cache()
            configure_cache(cache_dir=tmp_path / f"jobs{jobs}")
            CmpSystem._prewarm_memo.clear()
            results = {}
            for batch in batches:
                results.update(parallel.run_many(batch, jobs=jobs))
            return results

        try:
            serial = run_batches(1)
            handed.clear()
            pooled = run_batches(2)
        finally:
            clear_solo_cache()
            configure_cache()
        first_keys = set().union(*(spec_keys(spec) for spec in batches[0]))
        assert [handed[spec] for spec in batches[0]] == [set(), set()]
        assert [handed[spec] for spec in batches[1]] == [
            spec_keys(spec) & first_keys for spec in batches[1]
        ]
        assert handed[batches[1][1]]  # art's core crossed to parser+art
        assert memo_keys() == first_keys | spec_keys(batches[1][1])
        assert pooled == serial

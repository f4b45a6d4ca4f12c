"""The warm-L2 image memo: a memo hit builds the same system as a cold warm-up."""

import dataclasses

from repro.cpu.cache import CacheConfig
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile

MIX = ("vpr", "art", "crafty")


def build(config):
    return CmpSystem(config, [profile(name) for name in MIX])


def l2_images(system):
    return [core.hierarchy.l2.snapshot() for core in system.cores]


def cold_build(config):
    CmpSystem._prewarm_memo.clear()
    return build(config)


def short_run(system):
    return dataclasses.asdict(comparable_result(system.run(3000, warmup=1000)))


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

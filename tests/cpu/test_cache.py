"""Set-associative cache: hits, LRU, dirty lines, MSHR merging."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.cache import Cache, CacheConfig, L1D_CONFIG, L2_CONFIG, MshrFile


def small_cache(assoc=2, sets=4):
    return Cache(CacheConfig(size_bytes=assoc * sets * 64, assoc=assoc))


class TestConfigValidation:
    def test_table5_configs(self):
        assert L1D_CONFIG.size_bytes == 32 * 1024
        assert L1D_CONFIG.assoc == 4
        assert L2_CONFIG.size_bytes == 512 * 1024
        assert L2_CONFIG.assoc == 8
        assert L2_CONFIG.latency == 12

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=3)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 2 * 64, assoc=2)

    def test_num_sets(self):
        assert CacheConfig(size_bytes=8 * 1024, assoc=2).num_sets == 64


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x10)
        cache.fill(0x10)
        assert cache.lookup(0x10)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_contains_does_not_disturb(self):
        cache = small_cache()
        cache.fill(0x10)
        cache.contains(0x10)
        assert cache.hits == 0


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.lookup(1)  # 1 now MRU
        evicted = cache.fill(3)
        assert evicted == (2, False)
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_fill_of_present_line_updates_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        cache.fill(1)  # refresh 1
        evicted = cache.fill(3)
        assert evicted[0] == 2

    def test_different_sets_do_not_interfere(self):
        cache = small_cache(assoc=1, sets=4)
        cache.fill(0)
        cache.fill(1)
        cache.fill(2)
        assert cache.contains(0)
        assert cache.contains(1)


class TestDirtyState:
    def test_write_lookup_marks_dirty(self):
        cache = small_cache()
        cache.fill(5)
        cache.lookup(5, mark_dirty=True)
        assert cache.is_dirty(5)

    def test_dirty_eviction_reported(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(1, dirty=True)
        evicted = cache.fill(2)
        assert evicted == (1, True)
        assert cache.writebacks == 1

    def test_clean_eviction_not_a_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(1)
        cache.fill(2)
        assert cache.writebacks == 0

    def test_invalidate_returns_dirty_flag(self):
        cache = small_cache()
        cache.fill(1, dirty=True)
        assert cache.invalidate(1)
        assert not cache.invalidate(1)


class TestSnapshotRestore:
    def test_restored_cache_evicts_like_the_original(self):
        original = small_cache(assoc=2, sets=2)
        original.fill(0, dirty=True)
        original.fill(2)
        original.fill(1)
        original.lookup(0)  # set 0 LRU order: 2 (clean), then 0 (dirty)
        restored = small_cache(assoc=2, sets=2)
        restored.restore(original.snapshot())
        assert restored.snapshot() == original.snapshot()
        assert restored.fill(4) == original.fill(4) == (2, False)
        assert restored.fill(6) == original.fill(6) == (0, True)
        assert restored.writebacks == original.writebacks == 1

    def test_image_is_unaffected_by_later_accesses(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(1)
        cache.fill(2)
        image = cache.snapshot()
        restored = small_cache(assoc=2, sets=1)
        restored.restore(image)
        restored.lookup(1, mark_dirty=True)
        restored.fill(3)
        assert image == (((1, False), (2, False)),)


#: (line, dirty) references over 64 lines mapping onto a 4-set, 2-way
#: cache: re-touches, clean-to-dirty upgrades and dirty victims are all
#: common, and short streams leave sets under-filled.
REFERENCES = st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200)


class TestWarm:
    @given(prefill=REFERENCES, stream=REFERENCES)
    @example(
        # Set 0 only: under-filled, re-touch, clean->dirty upgrade, then
        # a dirty victim and a clean one.
        prefill=[],
        stream=[(0, False), (0, False), (4, False), (0, True), (8, False),
                (12, False), (16, True)],
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_one_fill_per_line(self, prefill, stream):
        batched, reference = small_cache(), small_cache()
        for cache in (batched, reference):
            for line, dirty in prefill:
                cache.fill(line, dirty=dirty)
        batched.warm([line for line, _ in stream], [dirty for _, dirty in stream])
        for line, dirty in stream:
            reference.fill(line, dirty=dirty)
        assert batched.snapshot() == reference.snapshot()
        assert batched.writebacks == reference.writebacks


class TestCacheInvariants:
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                       max_size=300)
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_by_capacity(self, lines):
        cache = small_cache(assoc=2, sets=4)
        for line in lines:
            cache.fill(line)
        assert cache.occupancy() <= 8

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                       max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_most_recent_fill_always_present(self, lines):
        cache = small_cache(assoc=2, sets=4)
        for line in lines:
            cache.fill(line)
            assert cache.contains(line)


class TestMshrFile:
    def test_allocate_and_complete(self):
        mshr = MshrFile(2)
        assert mshr.allocate(0x10, "a")
        assert mshr.outstanding(0x10)
        assert mshr.complete(0x10) == ["a"]
        assert not mshr.outstanding(0x10)

    def test_merge_secondary_miss(self):
        mshr = MshrFile(1)
        mshr.allocate(0x10, "a")
        assert mshr.allocate(0x10, "b")  # merges even though file is full
        assert mshr.complete(0x10) == ["a", "b"]

    def test_full_rejects_new_line(self):
        mshr = MshrFile(1)
        mshr.allocate(0x10, "a")
        assert not mshr.allocate(0x20, "b")

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            MshrFile(1).complete(0x10)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MshrFile(0)

    @given(
        ops=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                     max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_len_bounded_by_entries(self, ops):
        mshr = MshrFile(4)
        for line in ops:
            if mshr.outstanding(line) and len(mshr) > 2:
                mshr.complete(line)
            else:
                mshr.allocate(line, line)
        assert len(mshr) <= 4

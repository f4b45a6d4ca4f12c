"""The metrics registry and the hot counter structs."""

from repro.obs import KeyCacheCounters, MetricsRegistry, RunObs


class TestMetricsRegistry:
    def test_count_accumulates_from_zero(self):
        reg = MetricsRegistry()
        reg.count("engine.steps")
        reg.count("engine.steps", 4)
        assert reg.get("engine.steps") == 5.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("engine.skip_ratio", 0.5)
        reg.gauge("engine.skip_ratio", 0.8)
        assert reg.get("engine.skip_ratio") == 0.8

    def test_timer_is_a_counter_in_seconds(self):
        reg = MetricsRegistry()
        reg.timer("phase.targeting_s", 0.25)
        reg.timer("phase.targeting_s", 0.25)
        assert reg.get("phase.targeting_s") == 0.5

    def test_metrics_are_name_sorted(self):
        reg = MetricsRegistry()
        reg.count("z.last")
        reg.count("a.first")
        reg.count("m.middle")
        assert list(reg.metrics()) == ["a.first", "m.middle", "z.last"]
        assert list(dict(reg.items())) == ["a.first", "m.middle", "z.last"]

    def test_get_default(self):
        assert MetricsRegistry().get("missing") == 0.0
        assert MetricsRegistry().get("missing", -1.0) == -1.0


class TestCounterStructs:
    def test_key_cache_hit_ratio(self):
        c = KeyCacheCounters()
        assert c.hit_ratio == 0.0  # no traffic: defined, not a ZeroDivisionError
        c.hits, c.misses = 3, 1
        assert c.hit_ratio == 0.75

    def test_counters_reject_new_attributes(self):
        # __slots__ keeps the hot structs dict-free; a typo'd bump must
        # fail loudly instead of silently creating a dead attribute.
        import pytest

        with pytest.raises(AttributeError):
            KeyCacheCounters().hit = 1


class TestRunObs:
    def test_finalize_is_idempotent(self):
        class _System:
            pass

        obs = RunObs()
        obs._finalized = True  # short-circuit: harvest must not run twice
        obs.finalize(_System())
        assert obs.metrics() == {}

    def test_phase_timer_only_when_armed(self):
        assert RunObs().phases is None
        assert RunObs(phase_timing=True).phases is not None

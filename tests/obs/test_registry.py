"""The metrics registry."""

from repro.obs import MetricsRegistry


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


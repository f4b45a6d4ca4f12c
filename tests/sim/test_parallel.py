"""Parallel fan-out: dedup, determinism across worker counts."""

import pytest

from repro.experiments.pairs import run_pairs
from repro.sim.cache import configure_cache
from repro.sim.parallel import default_jobs, group_spec, run_many, solo_spec
from repro.sim.runner import clear_solo_cache

CYCLES = 3_000
WARMUP = 750


@pytest.fixture
def fresh_caches(tmp_path):
    """Private disk cache + empty memo, reset again mid-test on demand."""

    def reset(label):
        clear_solo_cache()
        configure_cache(cache_dir=tmp_path / label)

    reset("initial")
    yield reset
    clear_solo_cache()
    configure_cache()


def _specs():
    return [
        solo_spec("vpr", 2.0, CYCLES, WARMUP, 0),
        solo_spec("gzip", 2.0, CYCLES, WARMUP, 0),
        group_spec(("vpr", "art"), "FQ-VFTF", CYCLES, WARMUP, 0),
        group_spec(("vpr", "art"), "FR-FCFS", CYCLES, WARMUP, 0),
        group_spec(("gzip", "art"), "FQ-VFTF", CYCLES, WARMUP, 0),
    ]


class TestRunMany:
    def test_deduplicates_identical_specs(self, fresh_caches):
        spec = solo_spec("vpr", 2.0, CYCLES, WARMUP, 0)
        results = run_many([spec, spec, spec], jobs=1)
        assert list(results) == [spec]

    def test_parallel_equals_serial(self, fresh_caches):
        serial = run_many(_specs(), jobs=1)
        # New cache directories force the parallel pass to actually
        # simulate in worker processes rather than replay the caches.
        fresh_caches("parallel")
        parallel = run_many(_specs(), jobs=4)
        assert serial == parallel

    def test_results_feed_the_memo(self, fresh_caches):
        spec = group_spec(("vpr", "art"), "FQ-VFTF", CYCLES, WARMUP, 0)
        first = run_many([spec], jobs=1)[spec]
        again = run_many([spec], jobs=1)[spec]
        assert again is first  # second call is a pure memo hit


class TestRunPairs:
    def test_jobs_do_not_change_results(self, fresh_caches):
        serial = run_pairs(cycles=CYCLES, jobs=1)
        fresh_caches("parallel")
        parallel = run_pairs(cycles=CYCLES, jobs=4)
        assert parallel == serial


class TestValidation:
    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_repro_jobs_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError):
            default_jobs()

    def test_repro_jobs_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == 1

    @pytest.mark.parametrize(
        "names, message", [((), "at least one"), (("vpr", "nosuch"), "nosuch")]
    )
    def test_bad_mix_fails_at_construction(self, names, message):
        with pytest.raises(ValueError, match=message):
            group_spec(names, "FR-FCFS", CYCLES, WARMUP, 0)

    @pytest.mark.parametrize("share", [float("nan"), float("inf")])
    def test_non_finite_share_fails_at_construction(self, share):
        with pytest.raises(ValueError, match="finite"):
            group_spec(
                ("vpr", "art"), "FQ-VFTF", CYCLES, WARMUP, 0, shares=(share, 1)
            )

"""Persistent result cache: fingerprints, round-trips, transparency."""

import dataclasses
import json

import pytest

from repro.sim.cache import (
    ResultCache,
    configure_cache,
    fingerprint,
    result_from_json,
    result_to_json,
)
from repro.sim.config import SystemConfig
from repro.sim.parallel import execute_spec, group_spec, run_many
from repro.sim.runner import clear_solo_cache, run_group
from repro.workloads.spec2000 import profile

CYCLES = 4_000
WARMUP = 1_000


@pytest.fixture
def disk_cache(tmp_path):
    """Route the process-wide cache at a private directory for one test."""
    cache = configure_cache(cache_dir=tmp_path / "cache")
    clear_solo_cache()
    yield cache
    clear_solo_cache()
    configure_cache()  # back to environment-driven resolution


def _config(**overrides):
    defaults = dict(num_cores=2, policy="FQ-VFTF", seed=0)
    defaults.update(overrides)
    return SystemConfig(**defaults)


#: One valid alternative value for every leaf field of SystemConfig,
#: nested dataclasses (timing, core, core.prefetch, caches) expanded.
ALTERNATIVES = {
    "num_cores": 4,
    "policy": "FQ-VFTF",
    "shares": [0.75, 0.25],
    "timing.t_rcd": 100,
    "timing.t_cl": 100,
    "timing.t_wl": 80,
    "timing.t_ccd": 40,
    "timing.t_wtr": 60,
    "timing.t_wr": 120,
    "timing.t_rtp": 60,
    "timing.t_rp": 100,
    "timing.t_rrd": 60,
    "timing.t_ras": 200,  # must stay <= t_rc (220)
    "timing.t_rc": 440,
    "timing.t_faw": 360,
    "timing.burst": 80,
    "timing.t_rfc": 1020,
    "timing.t_refi": 560_000,
    "num_ranks": 2,
    "num_banks": 16,
    "columns_per_row": 64,
    "num_channels": 2,
    "xor_bank": False,
    "core.rob_size": 256,
    "core.retire_width": 8.0,
    "core.issue_ports": 4,
    "core.mshrs": 64,
    "core.lsq_size": 64,
    "core.prefetch.enabled": False,
    "core.prefetch.streams": 16,
    "core.prefetch.depth": 32,
    "core.prefetch.budget": 32,
    "core.prefetch.issue_per_cycle": 4,
    "l1i.size_bytes": 65536,
    "l1i.assoc": 8,
    "l1i.line_bytes": 128,
    "l1i.latency": 4,
    "l1i.mshrs": 16,
    "l1d.size_bytes": 65536,
    "l1d.assoc": 8,
    "l1d.line_bytes": 128,
    "l1d.latency": 4,
    "l1d.mshrs": 32,
    "l2.size_bytes": 1 << 20,
    "l2.assoc": 16,
    "l2.line_bytes": 128,
    "l2.latency": 24,
    "l2.mshrs": 32,
    "read_entries_per_thread": 32,
    "write_entries_per_thread": 16,
    "front_latency": 40,
    "back_latency": 40,
    "enable_refresh": False,
    "seed": 1,  # 0 doubled is still 0
    "thread_address_stride": 1 << 35,
    "inversion_bound": 40,
    "bliss_threshold": 8,
    "bliss_interval": 20_000,
    "slowdown_interval": 10_000,
    "row_policy": "open",
    "write_drain": "watermark",
    "engine": "cycle",
}

#: The engine default follows REPRO_ENGINE, so pin it.
BASE = SystemConfig(engine="event")


def _leaf_fields(obj, prefix=""):
    """Dotted names of every non-dataclass field under ``obj``."""
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, f"{prefix}{spec.name}.")
        else:
            yield prefix + spec.name


def _replace(obj, path, value):
    """``obj`` with the dotted field ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


class TestFingerprintCoversEveryField:
    """A config field missing from the fingerprint would serve stale
    cached results to every sweep that varies it, and nothing would
    crash."""

    def test_table_names_every_leaf_field(self):
        assert set(ALTERNATIVES) == set(_leaf_fields(BASE))

    @pytest.mark.parametrize("path", list(ALTERNATIVES))
    def test_field_changes_the_fingerprint(self, path):
        profiles = [profile("vpr"), profile("art")]
        changed = _replace(BASE, path, ALTERNATIVES[path])
        assert fingerprint(changed, profiles, CYCLES, WARMUP, 0) != fingerprint(
            BASE, profiles, CYCLES, WARMUP, 0
        )


class TestFingerprint:
    def test_deterministic(self):
        profiles = [profile("vpr"), profile("art")]
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        b = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cycles=CYCLES + 1),
            dict(warmup=WARMUP + 1),
            dict(seed=7),
        ],
    )
    def test_window_and_seed_are_significant(self, kwargs):
        profiles = [profile("vpr")]
        base = dict(cycles=CYCLES, warmup=WARMUP, seed=0)
        a = fingerprint(_config(), profiles, **base)
        b = fingerprint(_config(), profiles, **{**base, **kwargs})
        assert a != b

    def test_config_is_significant(self):
        profiles = [profile("vpr"), profile("art")]
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        b = fingerprint(_config(policy="FR-FCFS"), profiles, CYCLES, WARMUP, 0)
        assert a != b

    def test_profile_content_is_significant(self):
        a = fingerprint(_config(), [profile("vpr")], CYCLES, WARMUP, 0)
        b = fingerprint(_config(), [profile("gzip")], CYCLES, WARMUP, 0)
        assert a != b

    def test_code_salt_is_significant(self, monkeypatch):
        profiles = [profile("vpr")]
        monkeypatch.setenv("REPRO_CACHE_SALT", "one")
        a = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        monkeypatch.setenv("REPRO_CACHE_SALT", "two")
        b = fingerprint(_config(), profiles, CYCLES, WARMUP, 0)
        assert a != b


class TestJsonRoundTrip:
    def test_exact(self):
        spec = group_spec(("gzip", "gap"), "FQ-VFTF", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        # Through real serialized text, not just the dict form.
        payload = json.loads(json.dumps(result_to_json(result)))
        restored = result_from_json(payload)
        assert restored == result
        assert restored is not result


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_put_then_get(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        cache = ResultCache(tmp_path)
        cache.put(spec.fingerprint(), result)
        assert len(cache) == 1
        loaded = cache.get(spec.fingerprint())
        assert loaded == result
        assert loaded is not result

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        cache = ResultCache(tmp_path)
        key = spec.fingerprint()
        cache.put(key, execute_spec(spec))
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None


class TestTransparency:
    def test_disk_hit_is_bit_identical_to_fresh_run(self, disk_cache):
        profiles = [profile("vpr"), profile("art")]
        fresh = run_group(profiles, "FQ-VFTF", cycles=CYCLES, warmup=WARMUP)
        assert len(disk_cache) == 1
        # Drop the in-process memo so the next call must load from disk.
        clear_solo_cache()
        cached = run_group(profiles, "FQ-VFTF", cycles=CYCLES, warmup=WARMUP)
        assert cached is not fresh
        assert cached == fresh
        assert disk_cache.hits >= 1


class TestExtrasRoundTrip:
    """SimResult.extras must survive every cache path (engine counters
    ride in it; see docs/INTERNALS.md §5)."""

    def test_extras_survive_serialized_text(self):
        spec = group_spec(("gzip", "gap"), "FQ-VFTF", CYCLES, WARMUP, 0)
        result = execute_spec(spec)
        assert result.extras, "event-engine runs must report engine counters"
        payload = json.loads(json.dumps(result_to_json(result)))
        assert result_from_json(payload).extras == result.extras

    def test_extras_survive_disk_hit_via_run_many(self, disk_cache):
        spec = group_spec(("vpr", "art"), "FQ-VFTF", CYCLES, WARMUP, 0)
        fresh = run_many([spec], jobs=1)[spec]
        assert fresh.extras
        # Drop the memo so the second batch must load from disk.
        clear_solo_cache()
        cached = run_many([spec], jobs=1)[spec]
        assert cached is not fresh
        assert cached.extras == fresh.extras
        assert disk_cache.hits >= 1

    def test_payload_without_extras_is_a_cache_miss(self, tmp_path):
        spec = group_spec(("gzip",), "FR-FCFS", CYCLES, WARMUP, 0)
        cache = ResultCache(tmp_path)
        key = spec.fingerprint()
        cache.put(key, execute_spec(spec))
        payload = json.loads(cache.path_for(key).read_text())
        del payload["extras"]
        cache.path_for(key).write_text(json.dumps(payload))
        # A legacy/hand-edited entry without extras must re-simulate,
        # not serve a result whose counters were silently defaulted.
        assert cache.get(key) is None

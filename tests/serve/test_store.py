"""ResultStore: durable round trips, damage tolerance, and queries.

Satellite coverage for the queryable store: manifest/index round trip,
idempotent records, corrupted or partial documents tolerated and
reported (never fatal), filterable queries, and aggregation checked
against hand-built fixtures.
"""

import dataclasses
import json

import pytest

from repro.serve.store import ResultStore, StoreEntry
from repro.sim.cache import result_to_json
from repro.sim.parallel import group_spec


def spec_for(policy="FR-FCFS", mix=("vpr", "art"), seed=0, shares=None):
    return group_spec(mix, policy, 600, 150, seed, shares=shares)


def with_ipc(result, ipc):
    """A copy of ``result`` whose thread-0 IPC is exactly ``ipc``."""
    threads = list(result.threads)
    threads[0] = dataclasses.replace(
        threads[0], instructions=int(round(ipc * threads[0].cycles))
    )
    return dataclasses.replace(result, threads=threads)


class TestRoundTrip:
    def test_record_then_get_result(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        spec = spec_for()
        entry = store.record(spec, tiny_result, tenant="alice")
        assert entry is not None
        assert (store.runs_dir / entry.file).is_file()
        got = store.get_result(spec)
        assert result_to_json(got) == result_to_json(tiny_result)
        assert store.problems == []

    def test_reload_from_index(self, tmp_path, tiny_result):
        spec = spec_for(shares=(4, 1))
        ResultStore(tmp_path).record(
            spec, tiny_result, source="fresh", tenant="alice", attempts=2
        )
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        (entry,) = reloaded.entries()
        assert entry.fingerprint == spec.fingerprint()
        assert entry.policy == "FR-FCFS"
        assert entry.workload == ("vpr", "art")
        assert entry.shares == (0.8, 0.2)
        assert entry.tenant == "alice"
        assert entry.attempts == 2
        got = reloaded.get_result(spec)
        assert result_to_json(got) == result_to_json(tiny_result)

    def test_record_is_idempotent_by_fingerprint(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        spec = spec_for()
        first = store.record(spec, tiny_result)
        second = store.record(spec, tiny_result)
        assert second is first
        assert len(store) == 1
        assert len(store.index_path.read_text().splitlines()) == 1

    def test_missing_spec_is_a_miss(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(), tiny_result)
        assert store.get_result(spec_for(seed=7)) is None

    def test_recorded_metrics_depend_on_the_run_alone(self, tmp_path):
        from repro.sim import runner
        from repro.sim.cache import configure_cache
        from repro.sim.parallel import run_many

        target = group_spec(("vpr", "art"), "FQ-VFTF", 1000, 250, 0)
        other = group_spec(("vpr", "art"), "FR-FCFS", 1000, 250, 0)
        stores = []
        for label, history in (("alone", []), ("after", [other])):
            runner.clear_solo_cache()
            configure_cache(cache_dir=tmp_path / label / "cache")
            store = ResultStore(tmp_path / label / "store")
            for spec in history:
                run_many([spec], jobs=1)
            run_many([target], jobs=1, store=store)
            stores.append(store)
        alone, after = (
            store.metrics(store.query(policy="FQ-VFTF")[0]) for store in stores
        )
        assert alone == after

    def test_entry_json_round_trip(self):
        entry = StoreEntry(
            fingerprint="ab" * 32, file="run-x.json", policy="FQ-VFTF",
            workload=("vpr", "art"), cycles=600, warmup=150, seed=3,
            shares=(0.8, 0.2), source="cache", tenant="bob", attempts=1,
        )
        assert StoreEntry.from_json(json.loads(json.dumps(entry.to_json()))) == entry


class TestDamageTolerance:
    def test_corrupted_manifest_is_a_reported_miss(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        spec = spec_for()
        entry = store.record(spec, tiny_result)
        (store.runs_dir / entry.file).write_text("{ not json")
        assert store.get_result(spec) is None
        assert any("treated as a miss" in note for note in store.problems)

    def test_truncated_manifest_is_a_reported_miss(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        spec = spec_for()
        entry = store.record(spec, tiny_result)
        path = store.runs_dir / entry.file
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get_result(spec) is None
        assert len(store.problems) == 1

    def test_corrupt_index_line_skipped_and_reported(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(), tiny_result)
        store.record(spec_for(seed=1), tiny_result)
        with open(store.index_path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"fingerprint": "orphan"}\n')
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2  # good lines survive
        assert len(reloaded.problems) == 2
        assert all("corrupt index line" in note for note in reloaded.problems)

    def test_rebuild_regenerates_lost_index(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(), tiny_result, tenant="alice")
        store.record(spec_for(policy="FQ-VFTF"), tiny_result, tenant="alice")
        before = [entry.to_json() for entry in store.entries()]
        store.index_path.unlink()
        recovered = ResultStore(tmp_path)
        assert len(recovered) == 0  # index is the only entry source...
        assert recovered.rebuild() == 2  # ...until rebuilt from manifests
        assert [entry.to_json() for entry in recovered.entries()] == before

    def test_rebuild_reports_unreadable_manifests(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        good = store.record(spec_for(), tiny_result)
        bad = store.record(spec_for(seed=1), tiny_result)
        (store.runs_dir / bad.file).write_text("garbage")
        assert store.rebuild() == 1
        assert store.entries()[0].file == good.file
        assert any("unreadable manifest" in note for note in store.problems)


class TestQueries:
    @pytest.fixture()
    def populated(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        for policy in ("FR-FCFS", "FQ-VFTF"):
            for mix in (("vpr", "art"), ("gzip", "twolf")):
                for seed in (0, 1):
                    store.record(
                        spec_for(policy=policy, mix=mix, seed=seed),
                        tiny_result,
                        tenant="alice",
                    )
        store.record(
            spec_for(policy="FQ-VFTF", shares=(4, 1)),
            tiny_result,
            source="cache",
            tenant="bob",
        )
        return store

    def test_query_by_policy(self, populated):
        assert len(populated.query(policy="FR-FCFS")) == 4
        assert len(populated.query(policy="FQ-VFTF")) == 5

    def test_query_by_workload_and_seed(self, populated):
        hits = populated.query(workload=("gzip", "twolf"), seed=1)
        assert len(hits) == 2
        assert {e.policy for e in hits} == {"FR-FCFS", "FQ-VFTF"}

    def test_query_by_shares_accepts_raw_weights_form(self, populated):
        # Stored shares are normalized phi fractions.
        hits = populated.query(shares=(0.8, 0.2))
        assert len(hits) == 1
        assert hits[0].tenant == "bob"

    def test_query_by_source_and_tenant(self, populated):
        assert len(populated.query(source="cache")) == 1
        assert len(populated.query(tenant="alice")) == 8
        assert populated.query(policy="FR-FCFS", tenant="bob") == []

    def test_query_order_is_fingerprint_sorted(self, populated):
        fingerprints = [e.fingerprint for e in populated.query()]
        assert fingerprints == sorted(fingerprints)


class TestAggregation:
    def test_mean_ipc_by_policy_matches_hand_fixture(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        # Hand-built fixture: thread-0 IPC pinned per run.
        grid = [
            ("FR-FCFS", 0, 0.20), ("FR-FCFS", 1, 0.40),
            ("FQ-VFTF", 0, 0.50), ("FQ-VFTF", 1, 0.90),
        ]
        for policy, seed, ipc in grid:
            store.record(
                spec_for(policy=policy, seed=seed),
                with_ipc(tiny_result, ipc),
            )
        means = store.aggregate("thread.0.ipc", by="policy")
        cycles = tiny_result.threads[0].cycles
        expected = {
            "FR-FCFS": (round(0.20 * cycles) + round(0.40 * cycles)) / (2 * cycles),
            "FQ-VFTF": (round(0.50 * cycles) + round(0.90 * cycles)) / (2 * cycles),
        }
        assert means == pytest.approx(expected)
        assert list(means) == sorted(means)  # key-sorted

    def test_aggregate_respects_filters(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(seed=0), with_ipc(tiny_result, 0.25))
        store.record(spec_for(seed=1), with_ipc(tiny_result, 0.75))
        only_seed_zero = store.aggregate("thread.0.ipc", by="policy", seed=0)
        cycles = tiny_result.threads[0].cycles
        assert only_seed_zero == pytest.approx(
            {"FR-FCFS": round(0.25 * cycles) / cycles}
        )

    def test_aggregate_by_workload_renders_mix_keys(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(), tiny_result)
        store.record(spec_for(mix=("gzip", "twolf")), tiny_result)
        means = store.aggregate("result.cycles", by="workload")
        assert set(means) == {"vpr+art", "gzip+twolf"}
        assert means["vpr+art"] == float(tiny_result.cycles)

    def test_unknown_metric_aggregates_to_empty(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path)
        store.record(spec_for(), tiny_result)
        assert store.aggregate("no.such.metric") == {}

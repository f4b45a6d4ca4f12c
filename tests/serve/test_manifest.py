"""Run manifests: validation, atomic writes, fingerprint naming, and
loading a store that an earlier version of the code wrote."""

import json
import shutil
from pathlib import Path

import pytest

from repro.serve.store import (
    MANIFEST_SCHEMA,
    ManifestError,
    ResultStore,
    load_manifest,
    result_digest,
    run_manifest,
    validate_manifest,
    write_manifest,
)
from repro.sim.cache import result_from_json, result_to_json
from repro.sim.parallel import execute_spec, group_spec
from repro.sim.system import SimResult, ThreadResult

#: A store an earlier version of this code wrote, under the same schema
#: id: one FQ-VFTF vpr+art run, 600+150 cycles at seed 0, tenant
#: ``alice``.  Only its host platform stamp was generalized.
PARENT_STORE = Path(__file__).parent / "data" / "parent_store"


def _result():
    return SimResult(
        policy="FQ-VFTF",
        cycles=1000,
        threads=[
            ThreadResult(
                name="vpr",
                instructions=500.0,
                cycles=1000,
                mean_read_latency=100.0,
                bus_utilization=0.4,
                reads=100,
                writes=20,
                nacks=0,
            )
        ],
        data_bus_utilization=0.4,
        bank_utilization=0.2,
        refreshes=3,
        extras={"engine_steps": 900.0},
    )


def _manifest():
    return run_manifest(
        fingerprint="ab" * 32,
        policy="FQ-VFTF",
        workload=["vpr"],
        cycles=1000,
        warmup=250,
        seed=0,
        result=_result(),
    )


class TestValidation:
    def test_non_object_rejected(self):
        assert validate_manifest([1, 2]) == ["manifest must be a JSON object"]

    def test_wrong_schema_named(self):
        payload = _manifest()
        payload["schema"] = "repro.obs/999"
        assert any("schema" in p for p in validate_manifest(payload))

    def test_unknown_kind_named(self):
        # Only run manifests exist; the retired bench and profile
        # kinds are as unknown as any other.
        for kind in ("mystery", "bench", "profile"):
            payload = _manifest()
            payload["kind"] = kind
            assert any("kind" in p for p in validate_manifest(payload)), kind

    def test_string_valued_metric_rejected(self):
        payload = _manifest()
        payload["metrics"]["rate"] = "fast"
        assert any("metrics" in p for p in validate_manifest(payload))

    def test_run_kind_requires_window_and_digest(self):
        payload = _manifest()
        del payload["window"], payload["result"]
        problems = validate_manifest(payload)
        assert any("window" in p for p in problems)
        assert any("digest" in p for p in problems)


class TestWriter:
    def test_invalid_payload_never_lands_on_disk(self, tmp_path):
        target = tmp_path / "bad.json"
        with pytest.raises(ManifestError):
            write_manifest(target, {"schema": MANIFEST_SCHEMA, "kind": "nope"})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp files

    def test_roundtrip_through_loader(self, tmp_path):
        path = write_manifest(tmp_path / "run.json", _manifest())
        payload = load_manifest(path)
        assert payload == _manifest()
        assert payload["metrics"]["result.cycles"] == 1000.0

    def test_loader_rejects_corrupt_manifest(self, tmp_path):
        path = tmp_path / "torn.json"
        good = _manifest()
        del good["metrics"]
        path.write_text(json.dumps(good))
        with pytest.raises(ManifestError):
            load_manifest(path)


class TestRunManifests:
    def test_digest_is_content_stable(self):
        assert result_digest(_result()) == result_digest(_result())

    def test_run_manifest_validates_and_carries_result_metrics(self):
        payload = run_manifest(
            fingerprint="ab" * 32,
            policy="FQ-VFTF",
            workload=["vpr", "art"],
            cycles=1000,
            warmup=250,
            seed=0,
            result=_result(),
        )
        assert validate_manifest(payload) == []
        assert payload["labels"]["run.source"] == "fresh"
        assert payload["metrics"]["thread.0.ipc"] == 0.5
        assert payload["metrics"]["extras.engine_steps"] == 900.0

    def test_run_manifest_embeds_the_result(self):
        payload = _manifest()
        assert payload["result"]["digest"] == result_digest(_result())
        assert payload["result"]["payload"] == result_to_json(_result())

    def test_store_names_file_by_fingerprint(self, tmp_path, tiny_result):
        spec = group_spec(("vpr", "art"), "FR-FCFS", 600, 150, 0)
        entry = ResultStore(tmp_path).record(spec, tiny_result, source="cache")
        assert entry.file == f"run-{spec.fingerprint()[:16]}.json"
        manifest = load_manifest(tmp_path / "runs" / entry.file)
        assert manifest["labels"]["run.source"] == "cache"


class TestParentStore:
    def test_parent_written_store_loads(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(PARENT_STORE, root)
        store = ResultStore(root)
        assert store.problems == []
        (entry,) = store.entries()
        assert (entry.policy, entry.tenant, entry.source) == (
            "FQ-VFTF", "alice", "fresh",
        )
        assert store.metrics(entry)["result.cycles"] == 600.0
        assert store.rebuild() == 1 and store.problems == []

    def test_parent_written_result_reloads_bit_identically(self):
        (path,) = sorted((PARENT_STORE / "runs").glob("run-*.json"))
        manifest = load_manifest(path)
        assert manifest["schema"] == MANIFEST_SCHEMA
        stored = result_from_json(manifest["result"]["payload"])
        assert result_digest(stored) == manifest["result"]["digest"]
        spec = group_spec(("vpr", "art"), "FQ-VFTF", 600, 150, 0)
        assert result_to_json(stored) == result_to_json(execute_spec(spec))

"""``repro-fqms sweep``: a grid through an in-process experiment service."""

import multiprocessing

import pytest

from repro.obs.manifest import load_manifest
from repro.serve.cli import main as serve_main
from repro.serve.store import ResultStore
from repro.sim import parallel, runner
from repro.sim.cache import configure_cache


def main(argv):
    return serve_main(["sweep"] + list(argv))


def _fault(spec, heartbeats=None):
    # Module level, so a forked worker runs it in place of the real one.
    raise ValueError("injected fault")


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """Each test gets a private disk cache and a clean memo/env.

    The cache goes through ``REPRO_CACHE_DIR`` (not ``configure_cache``)
    because ``sweep`` itself reconfigures the cache from the environment
    on every invocation.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in (
        "REPRO_SERVE", "REPRO_SERVE_WORKERS",
        "REPRO_SERVE_RETRIES", "REPRO_SERVE_TIMEOUT",
    ):
        monkeypatch.delenv(name, raising=False)
    runner.clear_solo_cache()
    configure_cache()  # pick up the isolated REPRO_CACHE_DIR
    yield
    runner.clear_solo_cache()
    configure_cache()  # back to env-resolved default


class TestParsing:
    def test_empty_mix_rejected(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "--workload", ","]) == 2
        assert "at least one benchmark" in capsys.readouterr().out
        assert not (tmp_path / "store").exists()

    def test_unknown_benchmark_exits_two(self, tmp_path, capsys):
        code = main([
            "--root", str(tmp_path), "--workload", "vpr,art",
            "--workload", "vpr,nosuch",
        ])
        assert code == 2
        assert "nosuch" in capsys.readouterr().out
        assert not (tmp_path / "store").exists()

    def test_bad_workers_exits_two(self, tmp_path):
        assert main(["--root", str(tmp_path), "--workers", "0"]) == 2

    def test_unknown_policy_exits_two(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "--policies", "NOT-A-POLICY"]) == 2
        assert "NOT-A-POLICY" in capsys.readouterr().out


class TestEndToEnd:
    # --seed still parses: argparse takes it as a prefix of --seeds.
    ARGS = ["--workload", "vpr,art", "--cycles", "2000", "--seed", "0"]

    def test_single_job_sweep_prints_summary(self, tmp_path, capsys):
        code = main(
            self.ARGS
            + ["--root", str(tmp_path), "--policies", "FR-FCFS,FQ-VFTF"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vpr+art" in out
        assert "FQ-VFTF" in out and "FR-FCFS" in out
        assert "2 runs (2 done, 0 cached, 0 retried, 0 lost, 0 error)" in out

    def test_progress_dashboard_final_snapshot_off_tty(self, tmp_path, capsys):
        code = main(
            self.ARGS
            + ["--root", str(tmp_path), "--policies", "FQ-VFTF", "--progress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 1/1 runs finished" in out
        assert "vpr+art:FQ-VFTF@s0/c2000w500" in out

    def test_manifests_written_and_backfilled(self, tmp_path, capsys):
        root = tmp_path / "root"
        # The first sweep simulates fresh and records the run in the
        # root's store, engine counters included.
        assert main(
            self.ARGS + ["--root", str(root), "--policies", "FQ-VFTF"]
        ) == 0
        files = sorted((root / "store" / "runs").glob("run-*.json"))
        assert len(files) == 1
        fresh = load_manifest(files[0])
        assert fresh["kind"] == "run"
        assert fresh["labels"]["run.source"] == "fresh"
        assert fresh["labels"]["run.tenant"] == "sweep"
        assert "extras.engine_steps" in fresh["metrics"]

        # The second sweep is fully cache-served; the store is
        # idempotent by fingerprint, so the fresh record stays intact.
        capsys.readouterr()
        assert main(
            self.ARGS + ["--root", str(root), "--policies", "FQ-VFTF"]
        ) == 0
        assert "(0 done, 1 cached" in capsys.readouterr().out
        assert load_manifest(files[0]) == fresh
        store = ResultStore(root / "store")
        assert len(store) == 1 and not store.problems

    def test_cache_miss_backfills_as_cache_source(self, tmp_path):
        # Warm the disk cache through one root...
        assert main(
            self.ARGS
            + ["--root", str(tmp_path / "a"), "--policies", "FR-FCFS"]
        ) == 0
        runner.clear_solo_cache()
        # ...then sweep into another: the run is served from the disk
        # cache, so the new store records it with run.source = cache.
        assert main(
            self.ARGS
            + ["--root", str(tmp_path / "b"), "--policies", "FR-FCFS"]
        ) == 0
        (entry,) = ResultStore(tmp_path / "b" / "store").entries()
        assert entry.source == "cache"

    def test_no_cache_leaves_the_disk_cache_empty(self, tmp_path):
        assert main(
            self.ARGS
            + ["--root", str(tmp_path / "r"), "--policies", "FR-FCFS",
               "--no-cache"]
        ) == 0
        assert not (tmp_path / "cache").exists()
        assert len(ResultStore(tmp_path / "r" / "store")) == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the injected fault reaches workers through fork",
    )
    def test_errored_run_is_named_and_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(parallel, "execute_spec", _fault)
        code = main(
            self.ARGS
            + ["--root", str(tmp_path), "--policies", "FR-FCFS,FQ-VFTF"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "(0 done, 0 cached, 0 retried, 0 lost, 2 error)" in out
        assert (
            "sweep: run vpr+art:FQ-VFTF@s0/c2000w500 error: "
            "ValueError: injected fault"
        ) in out
        assert len(ResultStore(tmp_path / "store")) == 0

"""The ``repro-fqms lint`` command line: exit codes and dispatch."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN_SOURCE = "def answer():\n    return 42\n"
DIRTY_SOURCE = textwrap.dedent("""
    import time

    def tick():
        return time.time()
""")


def run_cli(*args, module="repro.lint"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SOURCE)
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("lint: clean (1 files, 0 suppressed)")

    def test_findings_exit_one(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY_SOURCE)
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "DET002" in proc.stdout
        assert "1 lint finding(s)" in proc.stdout

    def test_missing_path_exits_two(self, tmp_path):
        proc = run_cli(str(tmp_path / "does_not_exist"))
        assert proc.returncode == 2
        assert "no such path" in proc.stderr


class TestRootCommandDispatch:
    def test_repro_fqms_lint_subcommand(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SOURCE)
        proc = run_cli("lint", str(tmp_path), module="repro.cli")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("lint: clean")

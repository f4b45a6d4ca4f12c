"""The simulator's own tree must be clean under every determinism rule.

This is the check CI's lint step runs (`python -m repro.lint src tools`):
every DET rule over every source file, zero unsuppressed findings, in
well under ten seconds.
"""

import time
from pathlib import Path

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_source_tree_is_clean_under_all_rules():
    report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tools"])
    assert report.findings == [], "\n".join(str(f) for f in report.findings)
    assert report.files_checked > 50
    # Deliberate, reasoned exceptions exist (harness timing etc.) but
    # every one must be an explicit suppression, never an unexplained
    # pass.
    assert report.suppressed


def test_full_tree_run_is_under_the_ci_tripwire():
    started = time.perf_counter()
    run_lint([REPO_ROOT / "src", REPO_ROOT / "tools"])
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"lint took {elapsed:.2f}s, over the 10s budget"

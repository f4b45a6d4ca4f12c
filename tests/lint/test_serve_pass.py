"""DET009: the serve package must schedule deterministically.

Wall-clock and RNG imports are banned anywhere under a ``serve``
package directory, with exactly one sanctioned escape hatch: an
explicit ``lint: allow(DET009, ...)`` suppression, which the real tree
uses once — ``repro/serve/clock.py``, the registered clock module.
The suite also pins the real tree's closure: the serve package is
DET009-clean, and its four ``REPRO_SERVE*`` knobs are declared in the
env registry (``tests/test_env.py`` checks that no module but the
registry reads them).
"""

from pathlib import Path

from repro import env
from repro.lint import lint_source, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_KNOBS = (
    "REPRO_SERVE",
    "REPRO_SERVE_WORKERS",
    "REPRO_SERVE_RETRIES",
    "REPRO_SERVE_TIMEOUT",
)


def det009(path, source):
    findings, _ = lint_source(source, Path(path))
    return [f for f in findings if f.rule == "DET009"]


class TestServeImports:
    def test_time_import_in_serve_is_flagged(self):
        findings = det009("repro/serve/service.py", "import time\n")
        assert len(findings) == 1
        assert findings[0].rule == "DET009"
        assert "'time'" in findings[0].message
        assert "clock.py" in findings[0].message

    def test_from_import_in_serve_is_flagged(self):
        assert len(det009("repro/serve/queue.py", "from time import monotonic\n")) == 1

    def test_random_and_datetime_are_banned(self):
        source = "import random\nimport datetime\n"
        assert len(det009("repro/serve/store.py", source)) == 2

    def test_time_import_in_store_is_flagged(self):
        # The run manifest writer lives in the store, under DET009.
        findings = det009("repro/serve/store.py", "import time\n")
        assert [f.rule for f in findings] == ["DET009"]

    def test_outside_serve_is_not_det009(self):
        assert det009("repro/sim/parallel.py", "import time\n") == []

    def test_clean_serve_module_passes(self):
        assert det009("repro/serve/spec.py", "import asyncio\nimport json\n") == []


class TestSuppression:
    def test_registered_clock_module_suppression_is_honored(self, tmp_path):
        serve = tmp_path / "repro" / "serve"
        serve.mkdir(parents=True)
        (serve / "clock.py").write_text(
            "import time"
            "  # lint: allow(DET009, registered serve clock module)\n"
        )
        report = run_lint([tmp_path])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET009"]


class TestRealTreeClosure:
    """The shipped serve package satisfies its own contracts."""

    def test_serve_package_is_det009_clean(self):
        report = run_lint([REPO_ROOT / "src" / "repro" / "serve"])
        assert report.findings == [], "\n".join(
            str(f) for f in report.findings
        )
        # The one reasoned exception: clock.py's suppressed import.
        det009_suppressed = [f for f in report.suppressed if f.rule == "DET009"]
        assert len(det009_suppressed) == 1
        assert "clock.py" in str(det009_suppressed[0].path)

    def test_serve_knobs_are_declared_semantics_free(self):
        for name in SERVE_KNOBS:
            var = env.declared(name)
            assert var.fingerprint_relevant is False, (
                f"{name} must be semantics-free: the service never "
                "changes simulation results"
            )

    def test_serve_knobs_are_documented(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in SERVE_KNOBS:
            assert name in readme, f"{name} missing from the README env table"

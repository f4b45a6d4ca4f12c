"""DET008: the obs package must stay a pure observer.

Wall-clock and RNG imports are banned anywhere under an ``obs``
package directory.  The one escape hatch is an explicit
``lint: allow(DET008, ...)`` suppression, which the real tree no
longer uses.
"""

from pathlib import Path

from repro.lint import lint_source, run_lint


def det008(path, source):
    findings, _ = lint_source(source, Path(path))
    return [f for f in findings if f.rule == "DET008"]


class TestObsImports:
    def test_time_import_in_obs_is_flagged(self):
        findings = det008("repro/obs/phases.py", "import time\n")
        assert len(findings) == 1
        assert findings[0].rule == "DET008"
        assert "'time'" in findings[0].message
        assert "pure observer" in findings[0].message

    def test_from_import_in_obs_is_flagged(self):
        assert len(det008("repro/obs/fleet.py", "from time import monotonic\n")) == 1

    def test_random_and_datetime_are_banned(self):
        source = "import random\nimport datetime\n"
        assert len(det008("repro/obs/manifest.py", source)) == 2

    def test_submodule_import_is_flagged(self):
        assert len(det008("repro/obs/x.py", "import random.whatever\n")) == 1

    def test_outside_obs_is_not_det008(self):
        # Wall clock outside obs is DET002's jurisdiction, not DET008's.
        assert det008("repro/telemetry/export.py", "import time\n") == []

    def test_clean_obs_module_passes(self):
        source = "def engine_extras(system):\n    return {}\n"
        assert det008("repro/obs/engine.py", source) == []


class TestSuppression:
    def test_registered_harness_module_suppression_is_honored(self, tmp_path):
        obs = tmp_path / "repro" / "obs"
        obs.mkdir(parents=True)
        (obs / "phases.py").write_text(
            "from time import perf_counter"
            "  # lint: allow(DET008, registered harness wall-clock)\n"
        )
        report = run_lint([tmp_path])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET008"]

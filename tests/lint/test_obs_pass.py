"""DET008: the obs package must stay a pure observer.

Wall-clock and RNG imports are banned anywhere under an ``obs``
package directory.  The one escape hatch is an explicit
``lint: allow(DET008, ...)`` suppression, which the real tree no
longer uses.
"""

from repro.lint import run_lint


class TestObsImports:
    def test_time_import_in_obs_is_flagged(self, project_of, run_rule):
        project = project_of({
            "repro/obs/phases.py": """
                import time
            """,
        })
        findings = run_rule("DET008", project)
        assert len(findings) == 1
        assert findings[0].rule == "DET008"
        assert "'time'" in findings[0].message
        assert "pure observer" in findings[0].message

    def test_from_import_in_obs_is_flagged(self, project_of, run_rule):
        project = project_of({
            "repro/obs/fleet.py": """
                from time import monotonic
            """,
        })
        findings = run_rule("DET008", project)
        assert len(findings) == 1

    def test_random_and_datetime_are_banned(self, project_of, run_rule):
        project = project_of({
            "repro/obs/manifest.py": """
                import random
                import datetime
            """,
        })
        findings = run_rule("DET008", project)
        assert len(findings) == 2

    def test_submodule_import_is_flagged(self, project_of, run_rule):
        project = project_of({
            "repro/obs/x.py": """
                import random.whatever
            """,
        })
        assert len(run_rule("DET008", project)) == 1

    def test_outside_obs_is_not_det008(self, project_of, run_rule):
        # Wall clock outside obs is DET002's jurisdiction, not DET008's.
        project = project_of({
            "repro/telemetry/driver.py": """
                import time
            """,
        })
        assert run_rule("DET008", project) == []

    def test_clean_obs_module_passes(self, project_of, run_rule):
        project = project_of({
            "repro/obs/engine.py": """
                def engine_extras(system):
                    return {}
            """,
        })
        assert run_rule("DET008", project) == []


class TestSuppression:
    def test_registered_harness_module_suppression_is_honored(self, tmp_path):
        obs = tmp_path / "repro" / "obs"
        obs.mkdir(parents=True)
        (obs / "phases.py").write_text(
            "from time import perf_counter"
            "  # lint: allow(DET008, registered harness wall-clock)\n"
        )
        report = run_lint([tmp_path], rules=["DET008"], root=tmp_path)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET008"]

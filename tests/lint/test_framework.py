"""Lint mechanics: suppression scoping, sorting, parse errors."""

import textwrap
from pathlib import Path

from repro.lint import lint_source, run_lint


class TestSuppressionParsing:
    def test_lint_allow_with_reason(self):
        source = (
            "import random, time\n"
            "x = (time.time(), random.random())"
            "  # lint: allow(DET002, harness timing)\n"
        )
        findings, suppressed = lint_source(source, Path("timed.py"))
        # The comment covers the rule it names on its own line, no other.
        assert [f.rule for f in suppressed] == ["DET002"]
        assert [f.rule for f in findings] == ["DET001"]


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestRunLint:
    def test_findings_reported_and_sorted(self, tmp_path):
        # DET003 is resolved after the walk, so only the sort puts the
        # set loop's finding first.
        write(tmp_path, "hazards.py", """
            import time

            for item in {1, 2}:
                pass

            def tick(queue=[]):
                return time.time()
        """)
        report = run_lint([tmp_path])
        assert [(f.line, f.rule) for f in report.findings] == [
            (4, "DET003"), (7, "DET005"), (8, "DET002"),
        ]
        assert report.files_checked == 1

    def test_suppressions_counted_not_fatal(self, tmp_path):
        write(tmp_path, "timed.py", """
            import time
            start = time.perf_counter()  # lint: allow(DET002, tool timing)
            stop = time.time()  # lint: allow(DET002, tool timing)
        """)
        report = run_lint([tmp_path])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET002", "DET002"]

    def test_parse_error_reported_once(self, tmp_path):
        write(tmp_path, "broken.py", "def broken(:\n")
        report = run_lint([tmp_path])
        assert [f.rule for f in report.findings] == ["DET000"]

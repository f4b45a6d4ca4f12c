"""DET001–DET007 (repro.lint.determinism): each rule fires on a minimal
snippet, order-insensitive reducers and suppressions are honoured, and
the simulator source tree itself is clean."""

import textwrap
from pathlib import Path

from repro.lint import SourceFile, make_passes, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
DET_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "DET007")


def lint_source(source, path):
    """Unsuppressed DET findings for one file's source text."""
    file = SourceFile(path, source=source)
    if file.parse_error is not None:
        return [file.parse_error]
    findings = []
    for lint_pass in make_passes(DET_RULES):
        findings.extend(lint_pass.check_file(file, None))
    return [f for f in findings if not file.suppressed(f)]


def lint_paths(paths):
    return run_lint(paths, rules=DET_RULES).findings


def findings_for(snippet):
    source = textwrap.dedent(snippet)
    return lint_source(source, Path("snippet.py"))


def rules_for(snippet):
    return [finding.rule for finding in findings_for(snippet)]


class TestUnseededRandom:
    def test_global_random_call(self):
        assert rules_for("""
            import random
            value = random.randint(0, 7)
        """) == ["DET001"]

    def test_from_import_of_global_function(self):
        assert rules_for("""
            from random import shuffle
        """) == ["DET001"]

    def test_seeded_instance_is_fine(self):
        assert rules_for("""
            import random
            rng = random.Random(42)
            value = rng.randint(0, 7)
        """) == []


class TestWallClock:
    def test_time_time(self):
        assert rules_for("""
            import time
            start = time.time()
        """) == ["DET002"]

    def test_perf_counter(self):
        assert rules_for("""
            import time
            start = time.perf_counter()
        """) == ["DET002"]

    def test_datetime_now(self):
        assert rules_for("""
            from datetime import datetime
            stamp = datetime.now()
        """) == ["DET002"]


class TestSetIteration:
    def test_for_loop_over_set_literal_binding(self):
        assert rules_for("""
            pending = {1, 2, 3}
            for item in pending:
                print(item)
        """) == ["DET003"]

    def test_for_loop_over_annotated_set(self):
        assert rules_for("""
            from typing import Set

            def drain(queue: Set[int]) -> None:
                for item in queue:
                    print(item)
        """) == ["DET003"]

    def test_comprehension_over_set(self):
        assert rules_for("""
            seen = set()
            ordered = [x * 2 for x in seen]
        """) == ["DET003"]

    def test_order_insensitive_reducer_is_blessed(self):
        assert rules_for("""
            seen = set()
            best = min(x for x in seen)
            total = sum(seen)
            count = len(seen)
            stable = sorted(seen)
        """) == []

    def test_sorted_wrapping_allows_iteration(self):
        assert rules_for("""
            seen = set()
            for item in sorted(seen):
                print(item)
        """) == []


class TestFloatPriorityEquality:
    def test_equality_on_virtual_finish_time(self):
        assert rules_for("""
            def tie(a, b):
                return a.virtual_finish_time == b.virtual_finish_time
        """) == ["DET004"]

    def test_inequality_on_clock(self):
        assert rules_for("""
            def moved(vtms, snapshot):
                return vtms.clock != snapshot
        """) == ["DET004"]

    def test_ordering_comparisons_are_fine(self):
        assert rules_for("""
            def earlier(a, b):
                return a.virtual_finish_time < b.virtual_finish_time
        """) == []


class TestMutableDefaults:
    def test_list_literal_default(self):
        assert rules_for("""
            def enqueue(item, queue=[]):
                queue.append(item)
        """) == ["DET005"]

    def test_dict_call_default(self):
        assert rules_for("""
            def tally(counts=dict()):
                return counts
        """) == ["DET005"]

    def test_none_default_is_fine(self):
        assert rules_for("""
            def enqueue(item, queue=None):
                queue = queue or []
        """) == []


def telemetry_findings_for(snippet):
    source = textwrap.dedent(snippet)
    return lint_source(source, Path("src/repro/telemetry/export.py"))


class TestTelemetryImports:
    def test_import_time_in_telemetry_package(self):
        findings = telemetry_findings_for("import time")
        assert [f.rule for f in findings] == ["DET006"]

    def test_from_datetime_import_in_telemetry_package(self):
        findings = telemetry_findings_for("from datetime import datetime")
        # DET006 flags the banned import itself; the import is not a
        # call, so DET002 stays quiet until something invokes now().
        assert [f.rule for f in findings] == ["DET006"]

    def test_import_random_in_telemetry_package(self):
        findings = telemetry_findings_for("import random")
        assert [f.rule for f in findings] == ["DET006"]

    def test_submodule_import_is_flagged(self):
        findings = telemetry_findings_for("import datetime.timezone")
        assert [f.rule for f in findings] == ["DET006"]

    def test_same_import_outside_telemetry_is_fine(self):
        source = textwrap.dedent("import time")
        assert lint_source(source, Path("src/repro/sim/system.py")) == []

    def test_relative_imports_are_fine(self):
        assert telemetry_findings_for("""
            from . import RunTelemetry
            from ..sim.system import CmpSystem
        """) == []

    def test_suppression_applies(self):
        assert telemetry_findings_for(
            "import time  # det: allow(host-side benchmark harness)"
        ) == []

    def test_telemetry_package_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro" / "telemetry"])
        assert findings == [], "\n".join(str(f) for f in findings)


def policy_findings_for(snippet):
    source = textwrap.dedent(snippet)
    return lint_source(source, Path("src/repro/policy/bliss.py"))


class TestPolicyImports:
    def test_import_time_in_policy_package(self):
        findings = policy_findings_for("import time")
        assert [f.rule for f in findings] == ["DET007"]

    def test_from_datetime_import_in_policy_package(self):
        findings = policy_findings_for("from datetime import datetime")
        assert [f.rule for f in findings] == ["DET007"]

    def test_import_random_in_policy_package(self):
        findings = policy_findings_for("import random")
        assert [f.rule for f in findings] == ["DET007"]

    def test_submodule_import_is_flagged(self):
        findings = policy_findings_for("import datetime.timezone")
        assert [f.rule for f in findings] == ["DET007"]

    def test_same_import_outside_policy_is_fine(self):
        source = textwrap.dedent("import time")
        assert lint_source(source, Path("src/repro/sim/system.py")) == []

    def test_relative_imports_are_fine(self):
        assert policy_findings_for("""
            from .base import SchedulingPolicy
            from ..controller.request import MemoryRequest
        """) == []

    def test_suppression_applies(self):
        assert policy_findings_for(
            "import time  # det: allow(host-side benchmark harness)"
        ) == []

    def test_policy_package_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro" / "policy"])
        assert findings == [], "\n".join(str(f) for f in findings)


class TestSuppression:
    def test_det_allow_comment_silences_the_line(self):
        assert rules_for("""
            import time
            start = time.time()  # det: allow(host-side profiling only)
        """) == []

    def test_suppression_is_line_scoped(self):
        assert rules_for("""
            import time
            a = time.time()  # det: allow(profiling)
            b = time.time()
        """) == ["DET002"]


class TestRealTree:
    def test_simulator_source_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_syntax_error_is_reported_not_raised(self):
        assert rules_for("def broken(:") == ["DET000"]

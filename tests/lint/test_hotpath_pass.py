"""HOT500: purity of the bank-scheduler and legality-kernel hot paths."""

import ast
import textwrap
from pathlib import Path

from repro.lint import run_lint
from repro.lint.hotpath import SCHEDULER_ROOTS, SPARSE_ROOTS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def complete(source, roots):
    """``source`` plus a trivial method for every root its class omits.

    A root with no function behind it is a finding of its own, so a
    fixture that exercises one root fills in the rest.  The class must
    be the last statement of ``source``.
    """
    source = textwrap.dedent(source)
    (cls,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef)]
    defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    return source + "".join(
        f"\n    def {root}(self, *args):\n        return None\n"
        for root in roots
        if root not in defined
    )


def scheduler(source):
    return {"bank_scheduler.py": complete(source, SCHEDULER_ROOTS)}


def system(source):
    return {"system.py": complete(source, SPARSE_ROOTS)}


class TestSchedulerRoots:
    def test_pure_candidate_selection_is_clean(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def candidate(self, now):
                        best = None
                        for request in self.queue:
                            if best is None or request.key < best.key:
                                best = request
                        return best
            """))
        assert run_rule("HOT500", project) == []

    def test_fstring_in_hot_path_is_flagged(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def candidate(self, now):
                        label = f"bank {self.index}"
                        return label
            """))
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "f-string" in findings[0].message
        assert "BankScheduler.candidate" in findings[0].message

    def test_fstring_inside_raise_is_exempt(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def candidate(self, now):
                        if now < 0:
                            raise ValueError(f"negative cycle {now}")
                        return None
            """))
        assert run_rule("HOT500", project) == []

    def test_sorted_in_hot_path_is_flagged(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def candidate(self, now):
                        return sorted(self.queue)[0]
            """))
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message

    def test_helper_reached_through_self_call(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def candidate(self, now):
                        return self._pick(now)

                    def _pick(self, now):
                        print(now)
                        return None
            """))
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "print() call" in findings[0].message
        assert "BankScheduler._pick" in findings[0].message

    def test_cold_methods_are_not_checked(self, project_of, run_rule):
        project = project_of(scheduler("""
                class BankScheduler:
                    def __repr__(self):
                        return f"BankScheduler({self.index})"

                    def debug_dump(self):
                        print(sorted(self.queue))
            """))
        assert run_rule("HOT500", project) == []

    def test_stale_root_is_flagged(self, project_of, run_rule):
        roots = [r for r in SCHEDULER_ROOTS if r != "kind_mask"]
        project = project_of({"bank_scheduler.py": complete("""
                class BankScheduler:
                    def _candidate_variant(self, now):
                        return f"never reached from a root {now}"
            """, roots)})
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "BankScheduler.kind_mask()" in findings[0].message
        assert "stale root" in findings[0].message

    def test_other_files_are_not_checked(self, project_of, run_rule):
        project = project_of({
            "reporting.py": """
                class BankScheduler:
                    def candidate(self, now):
                        return f"formatted {now}"
            """,
        })
        assert run_rule("HOT500", project) == []


class TestLegalityKernels:
    def test_module_mutable_read_is_flagged(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                _CACHE = {}


                def can_issue(kind, now, state):
                    if kind in _CACHE:
                        return _CACHE[kind]
                    return now >= state.ready_at
            """,
        })
        findings = run_rule("HOT500", project)
        assert findings
        assert all("module-level mutable '_CACHE'" in f.message for f in findings)

    def test_constructor_is_skipped(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                class LegalityKernel:
                    def __init__(self, timings):
                        self.labels = sorted(f"t{i}" for i in timings)
            """,
        })
        assert run_rule("HOT500", project) == []

    def test_module_function_closure(self, project_of, run_rule):
        project = project_of({
            "legality.py": """
                def can_issue(kind, now, state):
                    return _check(kind, now, state)


                def _check(kind, now, state):
                    log.debug(kind)
                    return now >= state.ready_at
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "log.debug() call" in findings[0].message


class TestWakeIndex:
    def test_whole_module_is_hot(self, project_of, run_rule):
        project = project_of({
            "wakeindex.py": """
                class WakeIndex:
                    def min_wake(self):
                        return sorted(self._heaps)[0]
            """,
        })
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message
        assert "WakeIndex.min_wake" in findings[0].message

    def test_constructor_is_skipped(self, project_of, run_rule):
        project = project_of({
            "wakeindex.py": """
                class WakeIndex:
                    def __init__(self, shard_of):
                        self._heaps = [[] for _ in sorted(shard_of)]
            """,
        })
        assert run_rule("HOT500", project) == []


class TestSparseDispatch:
    def test_sparse_step_is_hot(self, project_of, run_rule):
        project = project_of(system("""
                class CmpSystem:
                    def _sparse_step(self):
                        for slot in sorted(self._due):
                            self._tick(slot)
            """))
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "sorted()" in findings[0].message
        assert "CmpSystem._sparse_step" in findings[0].message

    def test_helper_reached_from_targeting_root(self, project_of, run_rule):
        project = project_of(system("""
                class CmpSystem:
                    def _event_target(self, limit):
                        return self._probe(limit)

                    def _probe(self, limit):
                        print(limit)
                        return limit
            """))
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "print() call" in findings[0].message
        assert "CmpSystem._probe" in findings[0].message

    def test_stale_root_is_flagged(self, project_of, run_rule):
        roots = [r for r in SPARSE_ROOTS if r != "_skip_span"]
        project = project_of({"system.py": complete("""
                class CmpSystem:
                    def _skip_span_indexed(self, target):
                        self.now = target
            """, roots)})
        findings = run_rule("HOT500", project)
        assert len(findings) == 1
        assert "CmpSystem._skip_span()" in findings[0].message
        assert "stale root" in findings[0].message

    def test_non_dispatch_methods_are_cold(self, project_of, run_rule):
        project = project_of(system("""
                class CmpSystem:
                    def summary(self):
                        return f"system with {len(self.cores)} cores"
            """))
        assert run_rule("HOT500", project) == []


class TestRealTree:
    def test_every_root_names_a_live_function(self):
        files = [
            SRC / "controller" / "bank_scheduler.py",
            SRC / "sim" / "system.py",
            SRC / "dram" / "legality.py",
            SRC / "sim" / "wakeindex.py",
        ]
        report = run_lint(files, rules=["HOT500"])
        assert report.clean, "\n".join(str(f) for f in report.findings)

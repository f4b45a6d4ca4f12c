"""HOT500: hot-path purity for the scheduler's inner loops.

The bank scheduler's candidate selection and the DRAM legality kernels
run millions of times per simulated second and dominate the profile.
This pass guards the regressions that slow them one innocuous line at
a time:

* string formatting (f-strings, ``%``) and ``print``/``logging`` calls
  allocate per invocation — exempt inside ``raise``/``assert``, where
  the cost is paid only on the failure path;
* ``sorted()`` / ``.sort()`` allocate a list per call where the loops
  use single-pass min-tracking;
* reads of module-level *mutable* containers smuggle shared state into
  functions the parallel engine forks into worker processes — the
  classic "works until REPRO_JOBS>1" trap.

Roots are the scheduler's candidate-selection entry points, every
function in the legality module, the wake index (every event iteration
goes through it), and the event engine's targeting and sparse dispatch
in ``sim/system.py``; the pass closes over same-class ``self.*()`` and
same-module calls, so a helper extracted from a hot loop stays covered
without touching this file.  A named root with no function behind it
is itself a finding: a renamed or deleted hot path would otherwise
drop out of the check silently.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Finding, LintPass, SourceFile
from .registry import register

#: Candidate-selection entry points in the bank scheduler.
SCHEDULER_FILE = "bank_scheduler.py"
SCHEDULER_CLASS = "BankScheduler"
SCHEDULER_ROOTS = (
    "candidate",
    "poll_bound",
    "cacheable_wake",
    "earliest_possible_issue",
    "kind_mask",
)

#: Every function in this module is a hot kernel (construction aside).
KERNEL_FILE = "legality.py"
KERNEL_SKIP = ("__init__",)

#: The wake index: every method runs once per event-engine iteration.
WAKEINDEX_FILE = "wakeindex.py"
WAKEINDEX_SKIP = ("__init__",)

#: The event engine's targeting and sparse-dispatch loops.
SYSTEM_FILE = "system.py"
SYSTEM_CLASS = "CmpSystem"
SPARSE_ROOTS = (
    "_run_event",
    "_event_target",
    "_sparse_step",
    "_skip_span",
    "_acceptance_due",
    "_wb_unblock_due",
)

MUTABLE_CALLS = {
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter",
}


def _module_mutables(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable container literals/constructors."""
    names: Set[str] = set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CALLS
        )
        if mutable:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _index_file(
    tree: ast.Module,
) -> Tuple[Dict[str, ast.FunctionDef], Dict[str, Dict[str, ast.FunctionDef]]]:
    """(module-level functions, class → method table) for one module."""
    functions: Dict[str, ast.FunctionDef] = {}
    classes: Dict[str, Dict[str, ast.FunctionDef]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = {
                sub.name: sub
                for sub in stmt.body
                if isinstance(sub, ast.FunctionDef)
            }
    return functions, classes


def _resolve(
    cls: Optional[str],
    name: str,
    functions: Dict[str, ast.FunctionDef],
    classes: Dict[str, Dict[str, ast.FunctionDef]],
) -> Optional[ast.FunctionDef]:
    """The function a (class, name) root names: a method, else a module function."""
    table = classes.get(cls, {}) if cls else functions
    return table.get(name) or functions.get(name)


def _reachable(
    roots: List[Tuple[Optional[str], str]],
    functions: Dict[str, ast.FunctionDef],
    classes: Dict[str, Dict[str, ast.FunctionDef]],
) -> List[Tuple[str, ast.FunctionDef]]:
    """Close root (class, func) pairs over self.*() and same-module calls."""
    seen: Set[Tuple[Optional[str], str]] = set()
    ordered: List[Tuple[str, ast.FunctionDef]] = []
    work = list(roots)
    while work:
        cls, name = work.pop()
        if (cls, name) in seen:
            continue
        seen.add((cls, name))
        fn = _resolve(cls, name, functions, classes)
        if fn is None:
            continue
        label = f"{cls}.{name}" if cls and name in classes.get(cls, {}) else name
        ordered.append((label, fn))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and cls is not None
            ):
                work.append((cls, func.attr))
            elif isinstance(func, ast.Name) and func.id in functions:
                work.append((None, func.id))
    return ordered


def _whole_module_roots(
    file: SourceFile, skip: Tuple[str, ...]
) -> List[Tuple[Optional[str], str]]:
    """Every function and method in ``file`` except the ``skip`` names."""
    functions, classes = _index_file(file.tree)
    return [
        (None, fn) for fn in functions if fn not in skip
    ] + [
        (cls, m)
        for cls, methods in classes.items()
        for m in methods
        if m not in skip
    ]


class _PurityVisitor(ast.NodeVisitor):
    """Hot-path hazards inside one function body."""

    def __init__(self, label: str, mutables: Set[str]):
        self.label = label
        self.mutables = mutables
        self.hits: List[Tuple[int, str]] = []
        self._failure_depth = 0  # inside raise/assert: formatting is fine

    def _visit_failure(self, node: ast.stmt) -> None:
        self._failure_depth += 1
        self.generic_visit(node)
        self._failure_depth -= 1

    def visit_Raise(self, node: ast.Raise) -> None:
        self._visit_failure(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._visit_failure(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        if not self._failure_depth:
            self.hits.append(
                (node.lineno, "f-string allocates per call in a hot loop")
            )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            not self._failure_depth
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            self.hits.append(
                (node.lineno, "%-formatting allocates per call in a hot loop")
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                self.hits.append((node.lineno, "print() call"))
            elif func.id == "sorted":
                self.hits.append(
                    (node.lineno,
                     "sorted() builds a list per call; track the min in one pass")
                )
        elif isinstance(func, ast.Attribute):
            if func.attr == "sort":
                self.hits.append(
                    (node.lineno,
                     ".sort() builds order per call; track the min in one pass")
                )
            base = func.value
            if isinstance(base, ast.Name) and base.id in (
                "logging", "log", "logger"
            ):
                self.hits.append((node.lineno, f"{base.id}.{func.attr}() call"))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.mutables:
            self.hits.append(
                (node.lineno,
                 f"reads module-level mutable '{node.id}'; worker processes "
                 "fork stale copies of module state")
            )
        self.generic_visit(node)


@register
class HotPathPurityPass(LintPass):
    rule = "HOT500"
    title = "no formatting/sorting/module-state in scheduler hot paths"

    def check_file(self, file: SourceFile, project) -> Iterable[Finding]:
        name = file.parts[-1]
        if name == SCHEDULER_FILE:
            roots = [(SCHEDULER_CLASS, m) for m in SCHEDULER_ROOTS]
        elif name == SYSTEM_FILE:
            roots = [(SYSTEM_CLASS, m) for m in SPARSE_ROOTS]
        elif name == KERNEL_FILE:
            roots = _whole_module_roots(file, KERNEL_SKIP)
        elif name == WAKEINDEX_FILE:
            roots = _whole_module_roots(file, WAKEINDEX_SKIP)
        else:
            return []
        return self._check(file, roots)

    def _check(self, file: SourceFile, roots) -> List[Finding]:
        functions, classes = _index_file(file.tree)
        mutables = _module_mutables(file.tree)
        findings = [
            Finding(
                file.path,
                1,
                self.rule,
                f"hot-path root {cls + '.' if cls else ''}{name}() names no "
                "function in this file (stale root: the path it guarded is "
                "no longer checked)",
            )
            for cls, name in roots
            if _resolve(cls, name, functions, classes) is None
        ]
        for label, fn in _reachable(list(roots), functions, classes):
            visitor = _PurityVisitor(label, mutables)
            for stmt in fn.body:
                visitor.visit(stmt)
            for line, what in visitor.hits:
                findings.append(
                    Finding(
                        file.path,
                        line,
                        self.rule,
                        f"hot path {label}(): {what}",
                    )
                )
        return findings

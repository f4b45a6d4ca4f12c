"""POL300 / WAKE400: scheduling-policy protocol conformance.

POL300 checks the :class:`~repro.policy.base.SchedulingPolicy` protocol
statically, across every subclass in the tree:

* lifecycle hooks (``on_arrival``/``on_issue``/``on_complete``) defined
  without arming ``has_hooks = True`` — the controller never dispatches
  unarmed hooks, so the policy silently runs stateless;
* ``has_hooks = True`` with no hooks defined (dead dispatch cost);
* overriding the derived ``fq_family`` property instead of setting
  ``fq_bank_rule`` (the :mod:`repro.check` inversion invariant keys off
  the flag);
* the class must be reachable from the policy registry bootstrap, or
  no config can ever select it.

WAKE400 checks the event-engine wake contract: every
``next_event_time``/``wake_time`` body must return explicitly on every
path (an implicit ``None`` fall-through reads as "never wake me" and
silently breaks bit-identity with the per-cycle oracle), must not
derive times from the wall clock or randomness, and an ``on_cycle``
override requires ``has_hooks = True`` — the epoch hook only runs when
dispatched.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Finding, LintPass, SourceFile, always_exits
from .determinism import GLOBAL_RANDOM_FUNCS, WALL_CLOCK_CALLS
from .project import Project
from .registry import register

#: Root of the policy protocol; subclasses are discovered transitively.
PROTOCOL_BASE = "SchedulingPolicy"
#: Names of the registry bootstrap's module (located via this function).
REGISTRY_LOCATOR_FUNC = "make_policy"
BOOTSTRAP_FUNC = "_ensure_registered"

LIFECYCLE_HOOKS = ("on_arrival", "on_issue", "on_complete")
WAKE_FUNCS = ("next_event_time", "wake_time")


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def policy_classes(
    project: Project,
) -> List[Tuple[SourceFile, ast.ClassDef]]:
    """Transitive subclasses of the protocol base, excluding the base."""
    classes: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}
    for file in project.parsed():
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, (file, node))
    members = {PROTOCOL_BASE}
    changed = True
    while changed:
        changed = False
        for name, (_, node) in classes.items():
            if name not in members and _base_names(node) & members:
                members.add(name)
                changed = True
    return [
        classes[name]
        for name in sorted(members - {PROTOCOL_BASE})
        if name in classes
    ]


def _methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef)
    }


def _arms_has_hooks(node: ast.ClassDef) -> bool:
    """Does the class body set ``has_hooks = True``?"""
    for stmt in node.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "has_hooks"
                and isinstance(value, ast.Constant)
                and value.value is True
            ):
                return True
    return False


def _bootstrap_coverage(project: Project) -> Optional[Set[str]]:
    """Class names reachable from the policy-registry bootstrap.

    Starts from every identifier the bootstrap function mentions, then
    chases module-level assignments across the tree (``POLICIES = {...
    for p in (FR_FCFS, ...)}`` pulls in the instance names, which pull
    in the class name), to a fixed point.
    """
    locator = project.find_function(REGISTRY_LOCATOR_FUNC)
    if locator is None:
        return None
    registry_file = locator[0]
    bootstrap = None
    for stmt in registry_file.tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == BOOTSTRAP_FUNC:
            bootstrap = stmt
    if bootstrap is None:
        return None

    referenced: Set[str] = set()
    for node in ast.walk(bootstrap):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)

    assignments: List[Tuple[str, ast.AST]] = []
    for file in project.parsed():
        for stmt in file.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, stmt.value))
    changed = True
    while changed:
        changed = False
        for name, value in assignments:
            if name not in referenced:
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Name) and node.id not in referenced:
                    referenced.add(node.id)
                    changed = True
    return referenced


@register
class PolicyConformancePass(LintPass):
    rule = "POL300"
    title = "SchedulingPolicy subclasses: hooks, flags, registry"

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        classes = policy_classes(project)
        if not classes:
            return []
        coverage = _bootstrap_coverage(project)

        for file, node in classes:
            methods = _methods(node)
            armed = _arms_has_hooks(node)

            hooks = [h for h in LIFECYCLE_HOOKS if h in methods]
            if hooks and not armed:
                findings.append(
                    Finding(
                        file.path,
                        methods[hooks[0]].lineno,
                        self.rule,
                        f"{node.name} defines {', '.join(hooks)} but does "
                        "not set has_hooks = True; the controller never "
                        "dispatches unarmed hooks",
                    )
                )
            if armed and not hooks and "on_cycle" not in methods:
                findings.append(
                    Finding(
                        file.path,
                        node.lineno,
                        self.rule,
                        f"{node.name} arms has_hooks = True but defines no "
                        "lifecycle or epoch hooks (dead dispatch cost)",
                    )
                )

            if "fq_family" in methods:
                findings.append(
                    Finding(
                        file.path,
                        methods["fq_family"].lineno,
                        self.rule,
                        f"{node.name} overrides fq_family; set fq_bank_rule "
                        "instead — the inversion invariant keys off the flag",
                    )
                )

            if coverage is not None and node.name not in coverage:
                findings.append(
                    Finding(
                        file.path,
                        node.lineno,
                        self.rule,
                        f"{node.name} is not reachable from the policy "
                        "registry bootstrap; no SystemConfig can select it",
                    )
                )
        return findings


class _WakePurityVisitor(ast.NodeVisitor):
    """Wall-clock / RNG calls inside a wake function body."""

    def __init__(self) -> None:
        self.hits: List[Tuple[int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if base_name is not None and (base_name, func.attr) in WALL_CLOCK_CALLS:
                self.hits.append((node.lineno, f"{base_name}.{func.attr}()"))
            if base_name == "random" and func.attr in GLOBAL_RANDOM_FUNCS:
                self.hits.append((node.lineno, f"random.{func.attr}()"))
        self.generic_visit(node)


@register
class WakeContractPass(LintPass):
    rule = "WAKE400"
    title = "wake functions return on every path, from simulated time only"

    def check_file(self, file: SourceFile, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.FunctionDef) and node.name in WAKE_FUNCS
            ):
                continue
            if not always_exits(node.body):
                findings.append(
                    Finding(
                        file.path,
                        node.lineno,
                        self.rule,
                        f"{node.name}() can fall off the end; an implicit "
                        "None reads as 'never wake me' and the event engine "
                        "would skip this component's boundary — return "
                        "explicitly on every path",
                    )
                )
            purity = _WakePurityVisitor()
            for stmt in node.body:
                purity.visit(stmt)
            for line, call in purity.hits:
                findings.append(
                    Finding(
                        file.path,
                        line,
                        self.rule,
                        f"{node.name}() derives a wake time via {call}; "
                        "wake times must come from simulated cycles only",
                    )
                )
        return findings

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for file, node in policy_classes(project):
            methods = _methods(node)
            if "on_cycle" in methods and not _arms_has_hooks(node):
                findings.append(
                    Finding(
                        file.path,
                        methods["on_cycle"].lineno,
                        self.rule,
                        f"{node.name} overrides on_cycle without "
                        "has_hooks = True; the epoch hook is never "
                        "dispatched, so published wake times do nothing",
                    )
                )
        return findings

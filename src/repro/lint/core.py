"""Core types of the static-analysis framework: findings, sources, passes.

The framework is deliberately tiny: a :class:`SourceFile` wraps one
parsed module, a :class:`LintPass` contributes findings for a rule, and
:func:`repro.lint.run_lint` drives every registered pass over a
:class:`~repro.lint.project.Project` (the parsed file set plus a light
module graph).  Everything is stdlib ``ast`` — no third-party parser,
no imports of the code under analysis, so linting a broken tree can
never execute it.

Suppressions are line-scoped comments, shared by every pass:

* ``# lint: allow(RULE, reason)`` — suppress ``RULE`` on this line.
* ``# det: allow(reason)`` — the determinism-rule spelling; suppresses
  any ``DET###`` rule on the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

#: Pseudo-rule for files that do not parse; every pass depends on a
#: tree, so a syntax error is reported once under this id.
PARSE_ERROR_RULE = "DET000"

_LINT_ALLOW = re.compile(
    r"#\s*lint:\s*allow\(\s*([A-Z]{2,8}\d{3})\s*(?:,\s*(?P<reason>[^)]*))?\)"
)
_DET_ALLOW = re.compile(r"#\s*det:\s*allow\(")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: Path
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A line-scoped allow comment."""

    line: int
    rule: Optional[str]  #: None = legacy ``det: allow`` (any DET rule)
    reason: str

    def covers(self, rule: str) -> bool:
        if self.rule is None:
            return rule.startswith("DET")
        return self.rule == rule


def parse_suppressions(source: str) -> Dict[int, List[Suppression]]:
    """Line → suppressions carried by that line (both spellings)."""
    table: Dict[int, List[Suppression]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        if "allow(" not in text:
            continue
        entries = table.setdefault(number, [])
        for match in _LINT_ALLOW.finditer(text):
            reason = (match.group("reason") or "").strip()
            entries.append(Suppression(number, match.group(1), reason))
        if _DET_ALLOW.search(text):
            entries.append(Suppression(number, None, "legacy det: allow"))
        if not entries:
            del table[number]
    return table


class SourceFile:
    """One parsed module: path, source text, AST, and suppressions.

    ``tree`` is ``None`` when the file does not parse; ``parse_error``
    then carries the ready-made :data:`PARSE_ERROR_RULE` finding.
    Passes should simply skip files whose ``tree`` is ``None`` — the
    driver reports the parse error exactly once.
    """

    def __init__(self, path: Path, source: Optional[str] = None):
        self.path = Path(path)
        self.source = self.path.read_text() if source is None else source
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(self.source, filename=str(self.path))
        except SyntaxError as error:
            self.parse_error = Finding(
                self.path,
                error.lineno or 0,
                PARSE_ERROR_RULE,
                f"syntax error: {error.msg}",
            )
        self.suppressions = parse_suppressions(self.source)
        #: Per-file scratch space for passes that share one expensive
        #: traversal across several rule ids (the determinism family).
        self.cache: Dict[str, object] = {}

    @property
    def parts(self) -> tuple:
        return self.path.parts

    def suppressed(self, finding: Finding) -> bool:
        for suppression in self.suppressions.get(finding.line, ()):
            if suppression.covers(finding.rule):
                return True
        return False


class LintPass:
    """Base class for one rule's analysis.

    Subclasses set :attr:`rule` / :attr:`title` and override
    :meth:`check_file` (called once per parsed file) and/or
    :meth:`check_project` (called once per run, for cross-file
    contracts).  Findings are returned, never printed; the driver
    applies suppressions and hands surviving findings to an emitter.
    """

    #: Rule identifier, e.g. ``"FPR100"``; unique across the registry.
    rule: str = "LNT000"
    #: One-line summary shown in ``--list-rules`` and SARIF metadata.
    title: str = ""

    def check_file(self, file: SourceFile, project) -> Iterable[Finding]:
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        return ()


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    rules: List[str]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (str(f.path), f.line, f.rule, f.message))


# -- shared AST helpers (used by several passes) ---------------------------


def decorator_names(node: ast.ClassDef) -> Set[str]:
    """Bare names of a class's decorators (``dataclass(frozen=True)`` → ``dataclass``)."""
    names: Set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def const_str(node: ast.AST) -> Optional[str]:
    """The string value of a constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def always_exits(body: List[ast.stmt]) -> bool:
    """Conservatively: does every path through ``body`` return or raise?

    Loops are treated as skippable (a ``for``/``while`` may run zero
    iterations), so only explicit terminal statements count.  Used by
    the wake-contract pass to prove a function cannot fall off the end
    and return an implicit ``None``.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, ast.If):
            if stmt.orelse and always_exits(stmt.body) and always_exits(stmt.orelse):
                return True
        elif isinstance(stmt, ast.With):
            if always_exits(stmt.body):
                return True
        elif isinstance(stmt, ast.Try):
            handlers_exit = all(always_exits(h.body) for h in stmt.handlers)
            body_exits = always_exits(stmt.body) and (
                not stmt.orelse or always_exits(stmt.orelse)
            )
            if (stmt.finalbody and always_exits(stmt.finalbody)) or (
                body_exits and handlers_exit
            ):
                return True
        elif isinstance(stmt, ast.Match):
            cases = stmt.cases
            exhaustive = any(
                isinstance(c.pattern, ast.MatchAs) and c.pattern.pattern is None
                for c in cases
            )
            if exhaustive and all(always_exits(c.body) for c in cases):
                return True
    return False

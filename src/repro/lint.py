"""DET000–DET009: the determinism lint.

The simulator's contract is bit-identical results from identical inputs
(the result cache, the engine differentials and every golden test
depend on it).  These rules flag the constructs that historically broke
that contract:

* DET000 — the file does not parse (every other rule needs a tree);
* DET001 — the global (unseeded) ``random`` generator;
* DET002 — wall-clock reads;
* DET003 — order-sensitive iteration over a set;
* DET004 — float equality on VTMS virtual-time fields;
* DET005 — mutable default arguments;
* DET006, DET007, DET009 — ``time``/``datetime``/``random`` imports
  inside the telemetry, policy and serve packages
  (:data:`PACKAGE_RULES`).  DET008 is retired with the package it
  guarded; its number is not reused.

Everything is stdlib ``ast``: the code under analysis is never
imported, so linting a broken tree can never execute it.  All rules
share one walk per file.  A finding is suppressed by
``# lint: allow(RULE, reason)`` on the line it reports.

The other contracts of the tree (fingerprint completeness, the env-knob
registry, policy conformance, hot-path purity) are tier-1 tests of the
live program; ``docs/INTERNALS.md`` §11 maps each contract to its check.

Command line: ``repro-fqms lint [PATHS]`` or ``python -m repro.lint
[PATHS]`` (default ``src tools``) prints one line per finding and exits
0 when clean, 1 on findings, 2 on a missing path.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Default lint scope: the package sources and the maintenance scripts.
DEFAULT_PATHS = ("src", "tools")

#: Functions in the ``random`` module that draw from the global
#: (unseeded) generator.  ``random.Random`` is the sanctioned API.
GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits",
}

#: Wall-clock reads: (module-ish prefix, attribute).
WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
    ("date", "today"),
}

#: Reducers whose result does not depend on iteration order.
ORDER_INSENSITIVE = {
    "min", "max", "sum", "any", "all", "len", "sorted", "set",
    "frozenset",
}

#: VTMS virtual-time fields: float-valued priority-key components.
FLOAT_PRIORITY_ATTRS = {
    "virtual_finish_time", "virtual_start_time", "virtual_arrival",
    "oldest_arrival", "channel_finish", "bank_finish", "clock", "share",
}

MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "deque", "defaultdict"}

#: Modules no file under a :data:`PACKAGE_RULES` package may import.
BANNED_MODULES = {"time", "datetime", "random"}

#: Package directory → (rule, why it may not import a banned module).
PACKAGE_RULES: Dict[str, Tuple[str, str]] = {
    "telemetry": (
        "DET006",
        "telemetry timestamps must derive only from simulated cycles, "
        "never host time or randomness",
    ),
    "policy": (
        "DET007",
        "scheduling decisions must be pure functions of simulated state, "
        "never host time or randomness",
    ),
    "serve": (
        "DET009",
        "the experiment service must schedule deterministically — "
        "wall-clock access is confined to repro/serve/clock.py (the "
        "registered clock module), randomness is banned outright",
    ),
}

_ALLOW = re.compile(r"#\s*lint:\s*allow\(\s*(DET\d{3})\s*(?:,[^)]*)?\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: Path
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int


def _is_set_constructor(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Name):
        return node.id in ("Set", "set", "FrozenSet", "frozenset")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text.startswith(("Set[", "set[", "FrozenSet[", "frozenset["))
    return False


def _target_name(target: ast.AST) -> str:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


def _priority_attr(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute) and node.attr in FLOAT_PRIORITY_ATTRS:
        return node.attr
    if isinstance(node, ast.Name) and node.id in FLOAT_PRIORITY_ATTRS:
        return node.id
    return ""


class _HazardVisitor(ast.NodeVisitor):
    """One walk that reports every DET rule for one file.

    Names statically bound to sets (by a set expression or a ``Set``
    annotation) are collected during the same walk, so DET003 candidates
    are held back and resolved by :meth:`findings_after_walk`, once the
    whole file's set names are known.
    """

    def __init__(self, path: Path):
        self.path = path
        #: The banned-import packages this file sits under.
        self.packages = [name for name in PACKAGE_RULES if name in path.parts]
        self.findings: List[Finding] = []
        self.set_names: Set[str] = set()
        #: (node, iterated expression, message) for DET003.
        self._iterations: List[Tuple[ast.AST, ast.AST, str]] = []
        #: Comprehensions consumed by an order-insensitive reducer
        #: (``min(x for x in s)``); DET003 skips them.
        self._blessed: Set[int] = set()

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    def findings_after_walk(self) -> List[Finding]:
        for node, iterated, message in self._iterations:
            if _is_set_constructor(iterated) or (
                _target_name(iterated) in self.set_names
            ):
                self._emit(node, "DET003", message)
        return self.findings

    # -- set-name collection ----------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_constructor(node.value):
            self.set_names.update(
                name for name in map(_target_name, node.targets) if name
            )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _target_name(node.target)
        if name and _is_set_annotation(node.annotation):
            self.set_names.add(name)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and _is_set_annotation(node.annotation):
            self.set_names.add(node.arg)
        self.generic_visit(node)

    # -- DET001 / DET002: calls -------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if base_name == "random" and func.attr in GLOBAL_RANDOM_FUNCS:
                self._emit(
                    node,
                    "DET001",
                    f"random.{func.attr}() uses the global unseeded RNG; "
                    "use a seeded random.Random(seed) instance",
                )
            if base_name is not None and (base_name, func.attr) in WALL_CLOCK_CALLS:
                self._emit(
                    node,
                    "DET002",
                    f"{base_name}.{func.attr}() reads the wall clock; "
                    "simulation state must not depend on host time",
                )
        elif isinstance(func, ast.Name) and func.id in ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    self._blessed.add(id(arg))
        self.generic_visit(node)

    # -- DET001 from-imports, DET006–DET009 package bans --------------------

    def _check_package_import(self, node: ast.AST, module: str) -> None:
        if module.split(".", 1)[0] not in BANNED_MODULES:
            return
        for package in self.packages:
            rule, reason = PACKAGE_RULES[package]
            self._emit(
                node,
                rule,
                f"import of '{module}' inside the {package} package; {reason}",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_package_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_package_import(node, node.module)
        if node.module == "random":
            bad = sorted({alias.name for alias in node.names} & GLOBAL_RANDOM_FUNCS)
            if bad:
                self._emit(
                    node,
                    "DET001",
                    f"from random import {', '.join(bad)} binds the global "
                    "unseeded RNG; use random.Random(seed)",
                )
        self.generic_visit(node)

    # -- DET003: set iteration --------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._iterations.append((
            node,
            node.iter,
            "for-loop over a set: iteration order is not deterministic "
            "across runs; iterate a list or sorted(...) instead",
        ))
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST, generators) -> None:
        if id(node) not in self._blessed:
            for comp in generators:
                self._iterations.append((
                    node,
                    comp.iter,
                    "comprehension over a set feeds an order-sensitive "
                    "consumer; wrap the set in sorted(...) or reduce with "
                    "min/max/sum/any/all",
                ))
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    # -- DET004: float equality on priority keys --------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _priority_attr(left) or _priority_attr(right)
            if name:
                self._emit(
                    node,
                    "DET004",
                    f"float equality on virtual-time field '{name}'; "
                    "compare full ordering keys (with integer tie-breakers) "
                    "instead of raw float equality",
                )
        self.generic_visit(node)

    # -- DET005: mutable default arguments --------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_DEFAULT_CALLS
            )
            if mutable:
                self._emit(
                    default,
                    "DET005",
                    f"mutable default argument in {node.name}(); "
                    "default to None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(
    source: str, path: Path
) -> Tuple[List[Finding], List[Finding]]:
    """(findings, suppressed findings) of every DET rule for one file."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raw = [Finding(path, error.lineno or 0, "DET000", f"syntax error: {error.msg}")]
    else:
        visitor = _HazardVisitor(path)
        visitor.visit(tree)
        raw = visitor.findings_after_walk()
    # Line → rules a ``# lint: allow(RULE, reason)`` there suppresses.
    allowed = {
        number: set(_ALLOW.findall(text))
        for number, text in enumerate(source.splitlines(), start=1)
        if "allow(" in text
    }
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        if finding.rule in allowed.get(finding.line, ()):
            suppressed.append(finding)
        else:
            findings.append(finding)
    return _sorted(findings), _sorted(suppressed)


def _sorted(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (str(f.path), f.line, f.rule, f.message))


def _python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    files: Dict[str, Path] = {}
    for path in map(Path, paths):
        for candidate in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            if candidate.suffix == ".py":
                files[str(candidate)] = candidate
    return [files[key] for key in sorted(files)]


def run_lint(paths: Sequence[Path]) -> LintReport:
    """Lint every ``*.py`` file under ``paths``; findings come out sorted."""
    files = _python_files(paths)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for path in files:
        found, skipped = lint_source(path.read_text(), path)
        findings.extend(found)
        suppressed.extend(skipped)
    return LintReport(findings, suppressed, len(files))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fqms lint",
        description="Determinism lint (DET000-DET009) over Python sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    paths = parser.parse_args(argv).paths or [Path(p) for p in DEFAULT_PATHS]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = run_lint(paths)
    for finding in report.findings:
        print(finding)
    if report.findings:
        print(f"{len(report.findings)} lint finding(s)")
        return 1
    print(
        f"lint: clean ({report.files_checked} files, "
        f"{len(report.suppressed)} suppressed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

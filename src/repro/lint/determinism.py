"""DET001–DET009: the determinism rules.

The simulator's contract is bit-identical results from identical inputs
(the result cache, the differential checker, and every golden test
depend on it).  These rules flag constructs that historically break
that contract; ``tests/check/test_lint_determinism.py`` unit-tests
DET001–DET007.

All the rules share a single AST traversal per file (cached on
``SourceFile.cache``); each pass simply filters the shared finding list
by its rule id, so running one rule or all nine costs one walk.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set

from .core import Finding, LintPass, SourceFile
from .registry import register

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

#: Modules the telemetry package may not import at all (DET006): every
#: telemetry timestamp must come from simulated cycles, and telemetry
#: must never perturb (or appear to perturb) a traced run.
TELEMETRY_BANNED_MODULES = {"time", "datetime", "random"}

#: Path component marking a file as part of the telemetry package.
TELEMETRY_PACKAGE = "telemetry"

#: Modules the policy package may not import at all (DET007): priority
#: keys and lifecycle hooks must be pure functions of simulated state,
#: or cached results and the event engine's skip proof are invalid.
POLICY_BANNED_MODULES = {"time", "datetime", "random"}

#: Path component marking a file as part of the policy package.
POLICY_PACKAGE = "policy"

#: Modules the obs package may not import at all (DET008): the
#: observability layer is a pure observer whose outputs ride result
#: manifests, so neither the wall clock nor randomness may reach it.
OBS_BANNED_MODULES = {"time", "datetime", "random"}

#: Path component marking a file as part of the obs package.
OBS_PACKAGE = "obs"

#: Modules the serve package may not import at all (DET009): the
#: experiment service schedules and times out *jobs*, never
#: simulations — wall-clock access is confined to the single
#: registered clock module (``repro/serve/clock.py``, which carries
#: the one reasoned suppression), and randomness is banned outright
#: (retry backoff is deliberately jitter-free, and the fair scheduler
#: must dispatch deterministically given submission order).
SERVE_BANNED_MODULES = {"time", "datetime", "random"}

#: Path component marking a file as part of the serve package.
SERVE_PACKAGE = "serve"

_CACHE_KEY = "determinism.findings"


class _SetNameCollector(ast.NodeVisitor):
    """First pass: names/attributes that statically hold sets."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _is_set_annotation(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            return self._is_set_annotation(node.value)
        if isinstance(node, ast.Name):
            return node.id in ("Set", "set", "FrozenSet", "frozenset")
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.strip()
            return text.startswith(("Set[", "set[", "FrozenSet[", "frozenset["))
        return False

    @staticmethod
    def _target_name(target: ast.AST) -> str:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return ""

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                name = self._target_name(target)
                if name:
                    self.set_names.add(name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = self._target_name(node.target)
        if name and self._is_set_annotation(node.annotation):
            self.set_names.add(name)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and self._is_set_annotation(
            node.annotation
        ):
            self.set_names.add(node.arg)
        self.generic_visit(node)


class _HazardVisitor(ast.NodeVisitor):
    """Second pass: emit findings for all seven rules in one walk."""

    def __init__(self, path: Path, set_names: Set[str]):
        self.path = path
        self.set_names = set_names
        self.in_telemetry = TELEMETRY_PACKAGE in path.parts
        self.in_policy = POLICY_PACKAGE in path.parts
        self.in_obs = OBS_PACKAGE in path.parts
        self.in_serve = SERVE_PACKAGE in path.parts
        self.findings: List[Finding] = []
        #: Comprehension generators consumed by an order-insensitive
        #: reducer (``min(x for x in s)`` and ``min({...})`` shapes).
        self._blessed: Set[int] = set()

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    def _is_set_valued(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_names
        return False

    # -- DET001 / DET002: calls --------------------------------------------

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
            # Bless generator/set arguments of order-insensitive
            # reducers so DET003 skips them.
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    self._blessed.add(id(arg))
                elif self._is_set_valued(arg):
                    self._blessed.add(id(arg))
        self.generic_visit(node)

    # -- DET006/DET007: banned imports in the telemetry/policy packages -----

    def _check_telemetry_import(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        if root in TELEMETRY_BANNED_MODULES:
            self._emit(
                node,
                "DET006",
                f"import of '{module}' inside the telemetry package; "
                "telemetry timestamps must derive only from simulated "
                "cycles, never host time or randomness",
            )

    def _check_policy_import(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        if root in POLICY_BANNED_MODULES:
            self._emit(
                node,
                "DET007",
                f"import of '{module}' inside the policy package; "
                "scheduling decisions must be pure functions of "
                "simulated state, never host time or randomness",
            )

    def _check_obs_import(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        if root in OBS_BANNED_MODULES:
            self._emit(
                node,
                "DET008",
                f"import of '{module}' inside the obs package; the "
                "observability layer must stay a pure observer — no "
                "wall clock, no randomness",
            )

    def _check_serve_import(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        if root in SERVE_BANNED_MODULES:
            self._emit(
                node,
                "DET009",
                f"import of '{module}' inside the serve package; the "
                "experiment service must schedule deterministically — "
                "wall-clock access is confined to repro/serve/clock.py "
                "(the registered clock module), randomness is banned "
                "outright",
            )

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_telemetry:
            for alias in node.names:
                self._check_telemetry_import(node, alias.name)
        if self.in_policy:
            for alias in node.names:
                self._check_policy_import(node, alias.name)
        if self.in_obs:
            for alias in node.names:
                self._check_obs_import(node, alias.name)
        if self.in_serve:
            for alias in node.names:
                self._check_serve_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.in_telemetry and node.module is not None and node.level == 0:
            self._check_telemetry_import(node, node.module)
        if self.in_policy and node.module is not None and node.level == 0:
            self._check_policy_import(node, node.module)
        if self.in_obs and node.module is not None and node.level == 0:
            self._check_obs_import(node, node.module)
        if self.in_serve and node.module is not None and node.level == 0:
            self._check_serve_import(node, node.module)
        if node.module == "random":
            imported = {alias.name for alias in node.names}
            bad = sorted(imported & GLOBAL_RANDOM_FUNCS)
            if bad:
                self._emit(
                    node,
                    "DET001",
                    f"from random import {', '.join(bad)} binds the global "
                    "unseeded RNG; use random.Random(seed)",
                )
        self.generic_visit(node)

    # -- DET003: set iteration ---------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_valued(node.iter):
            self._emit(
                node,
                "DET003",
                "for-loop over a set: iteration order is not deterministic "
                "across runs; iterate a list or sorted(...) instead",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST, comprehensions) -> None:
        if id(node) in self._blessed:
            return
        for comp in comprehensions:
            if self._is_set_valued(comp.iter):
                self._emit(
                    node,
                    "DET003",
                    "comprehension over a set feeds an order-sensitive "
                    "consumer; wrap the set in sorted(...) or reduce with "
                    "min/max/sum/any/all",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    # -- DET004: float equality on priority keys ---------------------------

    @staticmethod
    def _priority_attr(node: ast.AST) -> str:
        if isinstance(node, ast.Attribute) and node.attr in FLOAT_PRIORITY_ATTRS:
            return node.attr
        if isinstance(node, ast.Name) and node.id in FLOAT_PRIORITY_ATTRS:
            return node.id
        return ""

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = self._priority_attr(left) or self._priority_attr(right)
            if name:
                self._emit(
                    node,
                    "DET004",
                    f"float equality on virtual-time field '{name}'; "
                    "compare full ordering keys (with integer tie-breakers) "
                    "instead of raw float equality",
                )
        self.generic_visit(node)

    # -- DET005: mutable default arguments ----------------------------------

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


def hazard_findings(file: SourceFile) -> List[Finding]:
    """All DET findings for one file; one shared walk, cached on the file."""
    cached = file.cache.get(_CACHE_KEY)
    if cached is None:
        collector = _SetNameCollector()
        collector.visit(file.tree)
        visitor = _HazardVisitor(file.path, collector.set_names)
        visitor.visit(file.tree)
        cached = visitor.findings
        file.cache[_CACHE_KEY] = cached
    return cached


class _DeterminismPass(LintPass):
    """Shared shape: filter the cached per-file findings by rule id."""

    def check_file(self, file: SourceFile, project) -> Iterable[Finding]:
        return [f for f in hazard_findings(file) if f.rule == self.rule]


@register
class GlobalRandomPass(_DeterminismPass):
    rule = "DET001"
    title = "unseeded randomness: global random.* calls or from-imports"


@register
class WallClockPass(_DeterminismPass):
    rule = "DET002"
    title = "wall-clock reads in simulation logic"


@register
class SetIterationPass(_DeterminismPass):
    rule = "DET003"
    title = "order-sensitive iteration over a set"


@register
class FloatEqualityPass(_DeterminismPass):
    rule = "DET004"
    title = "float equality on virtual-time priority fields"


@register
class MutableDefaultPass(_DeterminismPass):
    rule = "DET005"
    title = "mutable default argument"


@register
class TelemetryImportPass(_DeterminismPass):
    rule = "DET006"
    title = "time/RNG imports inside the telemetry package"


@register
class PolicyImportPass(_DeterminismPass):
    rule = "DET007"
    title = "time/RNG imports inside the policy package"


@register
class ObsImportPass(_DeterminismPass):
    rule = "DET008"
    title = "time/RNG imports inside the obs package"


@register
class ServeImportPass(_DeterminismPass):
    rule = "DET009"
    title = "time/RNG imports inside the serve package"

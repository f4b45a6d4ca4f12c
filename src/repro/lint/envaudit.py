"""ENV200: REPRO_* environment-variable audit.

Environment knobs are the simulator's sharpest bit-identity hazard:
a ``REPRO_*`` read buried in a module either changes results (then it
MUST be folded into the cache fingerprint) or it doesn't (then it must
be provably semantics-free).  Scattered ``os.environ.get`` calls make
that classification unreviewable, so the contract is:

* exactly one *registry module* declares every knob in a module-level
  ``ENV_VARS`` tuple of ``EnvVar(name, fingerprint_relevant=...)``
  entries (:mod:`repro.env` in the real tree);
* every other module routes reads through that registry's accessors —
  a literal ``os.environ``/``os.getenv`` read of a ``REPRO_*`` name
  anywhere else is a finding;
* every declared knob carries a literal ``fingerprint_relevant`` flag
  and appears in the project documentation's env-var table.

Writes (``os.environ["REPRO_X"] = ...``) are exempt: the CLI
legitimately exports knobs to worker processes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Finding, LintPass, SourceFile, const_str
from .project import Project, module_constants
from .registry import register

ENV_PREFIX = "REPRO_"
REGISTRY_TABLE = "ENV_VARS"
ENTRY_CLASS = "EnvVar"


def _env_read_name(node: ast.Call, constants: Dict[str, str]) -> Optional[str]:
    """The variable name read by an ``os.environ.get``/``os.getenv`` call."""
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if func.attr == "get" and isinstance(base, ast.Attribute):
            #  os.environ.get(...)
            if base.attr != "environ":
                return None
        elif func.attr == "get" and isinstance(base, ast.Name):
            #  environ.get(...)  (from os import environ)
            if base.id != "environ":
                return None
        elif func.attr == "getenv":
            #  os.getenv(...)
            pass
        else:
            return None
    else:
        return None
    if not node.args:
        return None
    return _resolve_name(node.args[0], constants)


def _resolve_name(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    value = const_str(node)
    if value is None and isinstance(node, ast.Name):
        value = constants.get(node.id)
    if value is not None and value.startswith(ENV_PREFIX):
        return value
    return None


class _EnvReadCollector(ast.NodeVisitor):
    """All ``REPRO_*`` environment reads in one module."""

    def __init__(self, constants: Dict[str, str]):
        self.constants = constants
        self.reads: List[Tuple[int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        name = _env_read_name(node, self.constants)
        if name is not None:
            self.reads.append((node.lineno, name))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        #  os.environ["REPRO_X"] in Load context only; Store/Del are writes.
        if isinstance(node.ctx, ast.Load) and isinstance(
            node.value, ast.Attribute
        ) and node.value.attr == "environ":
            name = _resolve_name(node.slice, self.constants)
            if name is not None:
                self.reads.append((node.lineno, name))
        self.generic_visit(node)


def _registry_entries(
    file: SourceFile,
) -> Optional[List[Tuple[int, Optional[str], Optional[bool]]]]:
    """Parsed ``ENV_VARS`` entries: (line, name, fingerprint_relevant).

    Returns None when the module declares no ``ENV_VARS`` table; a
    non-literal name or flag surfaces as None inside the tuple.
    """
    for stmt in file.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == REGISTRY_TABLE):
            continue
        if not isinstance(stmt.value, (ast.Tuple, ast.List)):
            return []
        entries = []
        for elt in stmt.value.elts:
            if not (
                isinstance(elt, ast.Call)
                and isinstance(elt.func, ast.Name)
                and elt.func.id == ENTRY_CLASS
            ):
                continue
            name = const_str(elt.args[0]) if elt.args else None
            if name is None:
                for kw in elt.keywords:
                    if kw.arg == "name":
                        name = const_str(kw.value)
            relevant: Optional[bool] = None
            positionals = elt.args[1:]
            candidates = list(positionals[:1]) + [
                kw.value for kw in elt.keywords if kw.arg == "fingerprint_relevant"
            ]
            for cand in candidates:
                if isinstance(cand, ast.Constant) and isinstance(cand.value, bool):
                    relevant = cand.value
            entries.append((elt.lineno, name, relevant))
        return entries
    return None


@register
class EnvRegistryPass(LintPass):
    rule = "ENV200"
    title = "REPRO_* env reads must go through the declared registry module"

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        registries: List[Tuple[SourceFile, list]] = []
        reads: List[Tuple[SourceFile, int, str]] = []

        for file in project.parsed():
            entries = _registry_entries(file)
            if entries is not None:
                registries.append((file, entries))
            collector = _EnvReadCollector(module_constants(file.tree))
            collector.visit(file.tree)
            for line, name in collector.reads:
                reads.append((file, line, name))

        if not registries and not reads:
            return []

        for extra_file, entries in registries[1:]:
            line = entries[0][0] if entries else 1
            findings.append(
                Finding(
                    extra_file.path,
                    line,
                    self.rule,
                    f"second {REGISTRY_TABLE} registry module; all "
                    f"{ENV_PREFIX}* knobs must be declared in exactly one "
                    f"place ({registries[0][0].path} already is one)",
                )
            )

        declared: Dict[str, Optional[bool]] = {}
        registry_file: Optional[SourceFile] = None
        if registries:
            registry_file, entries = registries[0]
            for line, name, relevant in entries:
                if name is None:
                    findings.append(
                        Finding(
                            registry_file.path,
                            line,
                            self.rule,
                            f"{ENTRY_CLASS} entry has a non-literal name; "
                            "the audit needs string literals",
                        )
                    )
                    continue
                declared[name] = relevant
                if relevant is None:
                    findings.append(
                        Finding(
                            registry_file.path,
                            line,
                            self.rule,
                            f"{ENTRY_CLASS}({name!r}) lacks a literal "
                            "fingerprint_relevant=True/False classification",
                        )
                    )

        for file, line, name in reads:
            if registry_file is not None and file is registry_file:
                continue
            where = (
                f"declare it in {registry_file.path} and use its accessors"
                if registry_file is not None
                else f"create a registry module with an {REGISTRY_TABLE} table"
            )
            findings.append(
                Finding(
                    file.path,
                    line,
                    self.rule,
                    f"direct environment read of {name!r} outside the env "
                    f"registry module; {where}",
                )
            )
            if declared and name not in declared:
                findings.append(
                    Finding(
                        file.path,
                        line,
                        self.rule,
                        f"{name!r} is read but not declared in "
                        f"{REGISTRY_TABLE}; its fingerprint relevance is "
                        "unclassified",
                    )
                )

        if registry_file is not None and project.has_docs:
            docs = project.docs_text
            line_for: Dict[str, int] = {
                name: line for line, name, _ in registries[0][1] if name
            }
            for name in sorted(declared):
                if name not in docs:
                    findings.append(
                        Finding(
                            registry_file.path,
                            line_for.get(name, 1),
                            self.rule,
                            f"{name!r} is declared but undocumented; add it "
                            "to the README env-var table",
                        )
                    )
        return findings

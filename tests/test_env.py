"""The ``REPRO_*`` knob registry (:mod:`repro.env`) is complete.

Every knob is declared once, classified fingerprint-relevant or
semantics-free, and documented in the README env table; no other
module under ``src/`` or ``tools/`` reads one straight from the
environment, so the classification cannot be bypassed.
"""

import ast
import re
import textwrap
from pathlib import Path

from repro import env

REPO_ROOT = Path(__file__).resolve().parents[1]
REGISTRY = REPO_ROOT / "src" / "repro" / "env.py"


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def env_reads(source):
    """(line, name) of each ``REPRO_*`` read through ``os.environ`` or
    ``os.getenv``, by literal or module-level constant; writes and
    deletions are not reads."""
    tree = ast.parse(source)
    constants = {
        stmt.targets[0].id: stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Constant)
    }
    reads = []
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            func = node.func
            if (func.attr == "get" and _is_environ(func.value)) or func.attr == "getenv":
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _is_environ(node.value):
                key = node.slice
        if isinstance(key, ast.Name):
            name = constants.get(key.id)
        else:
            name = getattr(key, "value", None)
        if isinstance(name, str) and name.startswith("REPRO_"):
            reads.append((node.lineno, name))
    return reads


def test_registry_matches_the_readme_table():
    readme = (REPO_ROOT / "README.md").read_text()
    documented = set(re.findall(r"^\|\s*`(REPRO_\w+)`\s*\|", readme, re.MULTILINE))
    assert {var.name for var in env.ENV_VARS} == documented


def test_every_knob_is_classified():
    for var in env.ENV_VARS:
        assert type(var.fingerprint_relevant) is bool, var.name


def test_only_the_registry_reads_knobs():
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for root in ("src", "tools")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path != REGISTRY
        for line, name in env_reads(path.read_text())
    ]
    assert offenders == []


def test_reads_are_seen_through_literals_and_constants():
    source = textwrap.dedent("""
        import os
        from os import environ

        JOBS = "REPRO_JOBS"
        a = os.environ.get("REPRO_CHECK")
        b = os.environ[JOBS]
        c = os.getenv("REPRO_ENGINE", "event")
        d = environ.get(JOBS)
        os.environ["REPRO_CHECK"] = "1"
        del os.environ["REPRO_CHECK"]
        e = os.environ.get("HOME")
    """)
    assert sorted(env_reads(source)) == [
        (6, "REPRO_CHECK"),
        (7, "REPRO_JOBS"),
        (8, "REPRO_ENGINE"),
        (9, "REPRO_JOBS"),
    ]

"""Contract-aware static analysis for the simulator.

``repro.lint`` is a small plugin framework (stdlib ``ast`` only) whose
passes encode the *repository's own contracts* — the invariants generic
linters cannot know:

* DET001–DET009 — the determinism rules (randomness, wall clocks, set
  iteration, float key equality, mutable defaults, banned imports in
  the telemetry, policy, obs and serve packages); DET008 keeps
  :mod:`repro.obs` a pure observer with no wall-clock or RNG access.
* FPR100 — every ``SystemConfig`` field must reach the result-cache
  fingerprint, or sweeps silently read stale cached results.
* ENV200 — every ``REPRO_*`` environment read must go through the
  declared registry module (:mod:`repro.env`) and be documented and
  classified fingerprint-relevant or semantics-free.
* POL300 — ``SchedulingPolicy`` subclasses: hooks are armed, flags are
  set rather than derived properties overridden, the registry can reach
  the class.
* WAKE400 — event-engine wake functions return on every path and
  derive times from simulated cycles only.
* HOT500 — the scheduler/legality hot paths stay free of per-call
  formatting, sorting temporaries, and module-level mutable state, and
  every named hot-path root still names a function.

Run ``repro-fqms lint`` (or ``python -m repro.lint``) for the CLI;
see ``docs/INTERNALS.md`` ("Static analysis") for the rule catalog and
how to write a pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .core import (
    Finding,
    LintPass,
    LintReport,
    SourceFile,
    sort_findings,
)
from .project import Project
from .registry import make_passes, register, registered_rules

__all__ = [
    "Finding",
    "LintPass",
    "LintReport",
    "Project",
    "SourceFile",
    "make_passes",
    "register",
    "registered_rules",
    "rule_titles",
    "run_lint",
]


def rule_titles() -> Dict[str, str]:
    """Rule id → one-line description, for emitters and ``--list-rules``."""
    return {p.rule: p.title for p in make_passes()}


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Iterable[str]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Run the selected passes (default: all) over ``paths``.

    Suppressions (``# lint: allow(RULE, reason)`` and the legacy
    ``# det: allow(reason)``) are applied here, after every pass has
    reported; suppressed findings are retained on the report for
    accounting but carry no exit-code weight.
    """
    project = Project.load(paths, root=root)
    passes = make_passes(rules)
    by_path = {str(file.path): file for file in project.files}

    raw: List[Finding] = []
    for file in project.files:
        if file.parse_error is not None:
            raw.append(file.parse_error)
    for lint_pass in passes:
        for file in project.parsed():
            raw.extend(lint_pass.check_file(file, project))
        raw.extend(lint_pass.check_project(project))

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        file = by_path.get(str(finding.path))
        if file is not None and file.suppressed(finding):
            suppressed.append(finding)
        else:
            findings.append(finding)

    return LintReport(
        findings=sort_findings(findings),
        suppressed=sort_findings(suppressed),
        rules=[p.rule for p in passes],
        files_checked=len(project.files),
    )

"""The single registry of ``REPRO_*`` environment knobs.

Every environment variable the simulator reads is declared here, with
an explicit classification:

* ``fingerprint_relevant=True`` — the knob changes simulation *inputs*
  (and therefore results).  Each one must reach the result-cache
  fingerprint some way: ``REPRO_ENGINE`` rides in ``SystemConfig.engine``
  (fingerprinted via ``asdict``), ``REPRO_SIM_CYCLES`` sets the default
  ``cycles`` argument (a fingerprint payload key), ``REPRO_CACHE_SALT``
  *is* the fingerprint's salt.
* ``fingerprint_relevant=False`` — the knob is semantics-free: it may
  change speed, logging, checking, or cache placement, but a run's
  results are bit-identical across every setting (the differential
  harnesses in ``tests/`` enforce this for the engine-adjacent ones).

The ENV200 lint pass enforces the discipline mechanically: any literal
``os.environ`` read of a ``REPRO_*`` name outside this module is a
finding, as is a declared knob missing from the README's env-var table.
New knobs are added by declaring an :class:`EnvVar` here, reading it
through the accessors below, and documenting it — the lint fails until
all three are done.

Reads are intentionally *not* cached here: several call sites resolve
at import time, others per call, and the pre-registry behaviour of each
site is preserved exactly by keeping the accessors stateless.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EnvVar:
    """One declared environment knob."""

    name: str
    fingerprint_relevant: bool
    description: str


ENV_VARS = (
    EnvVar(
        "REPRO_ENGINE",
        fingerprint_relevant=True,
        description="Simulation engine ('event' or 'cycle'); becomes "
        "SystemConfig.engine, which the cache fingerprint covers.",
    ),
    EnvVar(
        "REPRO_CACHE_SALT",
        fingerprint_relevant=True,
        description="Overrides the source-derived code salt baked into "
        "every result-cache fingerprint.",
    ),
    EnvVar(
        "REPRO_SIM_CYCLES",
        fingerprint_relevant=True,
        description="Default measurement window in cycles; the run "
        "window is a fingerprint payload key.",
    ),
    EnvVar(
        "REPRO_CHECK",
        fingerprint_relevant=False,
        description="Enables the runtime protocol/invariant checkers "
        "(pure observers; results are unchanged).",
    ),
    EnvVar(
        "REPRO_TRACE",
        fingerprint_relevant=False,
        description="Enables run telemetry/tracing (pure observer).",
    ),
    EnvVar(
        "REPRO_TRACE_PERIOD",
        fingerprint_relevant=False,
        description="Telemetry sampling period in cycles.",
    ),
    EnvVar(
        "REPRO_TRACE_RING",
        fingerprint_relevant=False,
        description="Telemetry per-thread lifecycle ring capacity.",
    ),
    EnvVar(
        "REPRO_JOBS",
        fingerprint_relevant=False,
        description="Default worker count for parallel sweeps; results "
        "are bit-identical at any job count.",
    ),
    EnvVar(
        "REPRO_CACHE_DIR",
        fingerprint_relevant=False,
        description="Result-cache root directory.",
    ),
    EnvVar(
        "REPRO_NO_CACHE",
        fingerprint_relevant=False,
        description="Disables the on-disk result cache entirely.",
    ),
    EnvVar(
        "REPRO_MEMO_CAP",
        fingerprint_relevant=False,
        description="Upper bound on in-process memoized results (LRU).",
    ),
    EnvVar(
        "REPRO_BENCH_STRICT",
        fingerprint_relevant=False,
        description="Makes the benchmark harnesses enforce absolute "
        "baselines instead of reporting only.",
    ),
    EnvVar(
        "REPRO_UPDATE_GOLDEN",
        fingerprint_relevant=False,
        description="Test-suite only: rewrite golden report files "
        "instead of asserting against them.",
    ),
    EnvVar(
        "REPRO_OBS",
        fingerprint_relevant=False,
        description="Attaches the engine-internals metrics registry "
        "(repro.obs) to every freshly simulated run (pure observer; "
        "results are bit-identical either way).",
    ),
    EnvVar(
        "REPRO_OBS_PHASES",
        fingerprint_relevant=False,
        description="With REPRO_OBS: also time the event-loop phases "
        "(wall clock, write-only; never a simulation input).",
    ),
    EnvVar(
        "REPRO_OBS_MANIFEST",
        fingerprint_relevant=False,
        description="Directory for per-run schema-validated manifests "
        "written by the runner and sweep workers.",
    ),
    EnvVar(
        "REPRO_SERVE",
        fingerprint_relevant=False,
        description="Root directory of the repro.serve experiment "
        "service (socket address file, result store, manifests); "
        "placement only, never a simulation input.",
    ),
    EnvVar(
        "REPRO_SERVE_WORKERS",
        fingerprint_relevant=False,
        description="Concurrent worker processes of the experiment "
        "service job pool; results are bit-identical at any count.",
    ),
    EnvVar(
        "REPRO_SERVE_RETRIES",
        fingerprint_relevant=False,
        description="Resubmission budget for jobs whose worker crashed "
        "or timed out (run_many and the serve scheduler share it); a "
        "retried run recomputes the identical result.",
    ),
    EnvVar(
        "REPRO_SERVE_TIMEOUT",
        fingerprint_relevant=False,
        description="Per-job wall-clock timeout in seconds for the "
        "experiment service's workers; a timed-out job is retried, "
        "never partially recorded.",
    ),
)

_DECLARED = {var.name: var for var in ENV_VARS}


def declared(name: str) -> EnvVar:
    """The declaration for ``name``; KeyError if undeclared.

    Accessors funnel through this so an undeclared read fails loudly at
    the first call rather than silently adding an unaudited knob.
    """
    return _DECLARED[name]


def raw(name: str, default: Optional[str] = None) -> Optional[str]:
    """The raw value (or ``default``), exactly as ``os.environ.get``."""
    declared(name)
    return os.environ.get(name, default)


def text(name: str, default: str = "") -> str:
    """The value as a string, ``default`` when unset."""
    declared(name)
    return os.environ.get(name, default)


def flag(name: str) -> bool:
    """Tri-state off convention: unset, ``"0"``, and ``"false"`` (any
    case, surrounding whitespace ignored) are off; anything else is on.

    The convention shared by ``REPRO_CHECK`` and ``REPRO_TRACE``.
    """
    declared(name)
    value = os.environ.get(name, "")
    return value.strip().lower() not in ("", "0", "false")


def truthy(name: str) -> bool:
    """Python truthiness of the raw value (empty string is off)."""
    declared(name)
    return bool(os.environ.get(name))


def snapshot() -> dict:
    """Every declared knob currently set, as ``{name: raw value}``.

    The env stamp run manifests carry: a reader can tell which knobs
    shaped (or, for the semantics-free ones, merely accompanied) a
    recorded run without trusting the producing shell's history.
    """
    return {
        var.name: os.environ[var.name]
        for var in ENV_VARS
        if var.name in os.environ
    }


def positive_int(name: str, default: int) -> int:
    """A positive-integer knob: unset/empty means ``default``.

    Raises ``ValueError`` for a non-integer or non-positive setting —
    a silently clamped knob would hide the typo that disabled it.
    """
    declared(name)
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    parsed = int(value)
    if parsed <= 0:
        raise ValueError(f"{name} must be positive, got {parsed}")
    return parsed


def positive_float(name: str, default: float) -> float:
    """A positive-float knob (timeouts): unset/empty means ``default``."""
    declared(name)
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    parsed = float(value)
    if parsed <= 0:
        raise ValueError(f"{name} must be positive, got {parsed}")
    return parsed

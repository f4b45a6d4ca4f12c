"""Persistent content-addressed result store for simulation runs.

Every figure in the evaluation is a sweep of *independent, fully
deterministic* simulations, so a run is reproducible from its inputs
alone: the :class:`~repro.sim.config.SystemConfig`, the workload
profiles, the run window (cycles + warmup), and the seed.  This module
fingerprints those inputs — plus a *code salt* derived from the
package sources, so any change to simulator code invalidates stale
entries — and stores each :class:`~repro.sim.system.SimResult` as a
small JSON document under a content-addressed path.

The cache is transparent: a hit returns a ``SimResult`` equal to what
a fresh simulation would produce (JSON round-trips Python floats
exactly).  Layering, fastest first:

1. the in-process memo in :mod:`repro.sim.runner` (object identity),
2. this on-disk store (survives across processes and pytest runs),
3. a fresh simulation (whose result is written back to both).

Configuration:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro-fqms``).
* ``REPRO_NO_CACHE=1`` — disable the disk layer entirely.
* ``REPRO_CACHE_SALT`` — override the source-derived code salt
  (used by tests; also handy to pin a salt across checkouts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from .. import env
from .system import SimResult, ThreadResult

#: Bump when the stored JSON layout changes shape.
SCHEMA_VERSION = 1

#: Default cache root when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-fqms")

_code_salt_memo: Optional[str] = None


def code_salt() -> str:
    """Digest of every ``repro`` source file (or ``REPRO_CACHE_SALT``).

    Baked into every fingerprint so a simulator code change can never
    satisfy a lookup with results computed by older code.
    """
    override = env.raw("REPRO_CACHE_SALT")
    if override:
        return override
    global _code_salt_memo
    if _code_salt_memo is None:
        digest = hashlib.sha256()
        package_root = Path(__file__).resolve().parent.parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_salt_memo = digest.hexdigest()[:16]
    return _code_salt_memo


def _profile_payload(profile: Any) -> Any:
    """Canonical content of one workload profile.

    Profiles are fingerprinted by *content*, not name, so a test that
    registers a modified profile under an existing name cannot hit a
    stale entry.
    """
    if dataclasses.is_dataclass(profile) and not isinstance(profile, type):
        return {type(profile).__name__: dataclasses.asdict(profile)}
    return repr(profile)


def fingerprint(
    config: Any,
    profiles: Sequence[Any],
    cycles: int,
    warmup: int,
    seed: int,
) -> str:
    """Content hash identifying one simulation run."""
    payload = {
        "schema": SCHEMA_VERSION,
        "salt": code_salt(),
        "config": dataclasses.asdict(config),
        "profiles": [_profile_payload(p) for p in profiles],
        "cycles": cycles,
        "warmup": warmup,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- SimResult <-> JSON ----------------------------------------------------


def result_to_json(result: SimResult) -> Dict[str, Any]:
    """Plain-JSON form of a :class:`SimResult` (exact float round-trip)."""
    return {
        "schema": SCHEMA_VERSION,
        "policy": result.policy,
        "cycles": result.cycles,
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "data_bus_utilization": result.data_bus_utilization,
        "bank_utilization": result.bank_utilization,
        "refreshes": result.refreshes,
        "extras": dict(result.extras),
    }


def result_from_json(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` stored by :func:`result_to_json`.

    ``extras`` is a *required* payload key: the engine counters ride in
    it, and silently defaulting them away would make cache hits
    distinguishable from fresh runs.  A payload without it (hand-edited
    or written by a pre-``extras`` schema) raises ``KeyError``, which
    :meth:`ResultCache.get` treats as a miss — the run is simply
    re-simulated and re-stored.
    """
    return SimResult(
        policy=payload["policy"],
        cycles=payload["cycles"],
        threads=[ThreadResult(**t) for t in payload["threads"]],
        data_bus_utilization=payload["data_bus_utilization"],
        bank_utilization=payload["bank_utilization"],
        refreshes=payload.get("refreshes", 0),
        extras=dict(payload["extras"]),
    )


# -- the store -------------------------------------------------------------


class ResultCache:
    """Content-addressed on-disk store of simulation results.

    Entries live at ``<root>/<key[:2]>/<key>.json``; writes go through
    a temporary file and ``os.replace`` so concurrent writers (the
    parallel engine's workers, or several pytest sessions) can never
    leave a torn entry behind.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """The stored result for ``key``, or None (corrupt counts as miss)."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if payload.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            result = result_from_json(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins).

        Best-effort: an unwritable cache root (read-only filesystem,
        a file where the directory should be, disk full) must degrade
        to "no cache", never kill a sweep mid-run.
        """
        path = self.path_for(key)
        payload = json.dumps(result_to_json(result), sort_keys=True)
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


# -- process-wide active cache --------------------------------------------

_UNSET = object()
_active: Any = _UNSET


def active_cache() -> Optional[ResultCache]:
    """The process-wide cache, configured from the environment on first use."""
    global _active
    if _active is _UNSET:
        if env.truthy("REPRO_NO_CACHE"):
            _active = None
        else:
            root = env.raw("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
            _active = ResultCache(root)
    return _active


def configure_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None, enabled: bool = True
) -> Optional[ResultCache]:
    """Explicitly set the process-wide cache (CLI ``--cache-dir``/``--no-cache``).

    ``enabled=False`` turns the disk layer off; otherwise ``cache_dir``
    (or the environment/default resolution) selects the root.
    """
    global _active
    if not enabled:
        _active = None
    elif cache_dir is not None:
        _active = ResultCache(cache_dir)
    else:
        _active = _UNSET
        return active_cache()
    return _active

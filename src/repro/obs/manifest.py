"""Schema-validated run/bench/profile manifests: one writer for all.

A *manifest* is the queryable record of one unit of measured work — a
simulation run, a benchmark invocation, or a profiling session.  Every
producer (the runner, ``run_many`` workers, the bench scripts,
``tools/profile_run.py``) writes through :func:`write_manifest`, so
every record shares one envelope::

    {
      "schema": "repro.obs/1",
      "kind": "run" | "bench" | "profile",
      "host": {"python": ..., "platform": ...},
      "env": {<declared REPRO_* knobs currently set>},
      "metrics": {"dotted.name": <number>, ...},
      "labels": {"dotted.name": "<string>", ...},
      ...kind-specific fields...
    }

``metrics`` is the flat numeric namespace ``repro-fqms perf`` compares
across snapshots; :func:`flatten` folds any nested JSON payload into it
(so migrated BENCH_*.json files keep their legacy ``data`` block
verbatim *and* expose every numeric leaf under dotted paths).

Deliberately absent: wall-clock timestamps.  A manifest describes a
deterministic computation; stamping write time would make re-emitting
the same run produce a different document.  Provenance beyond the host
stamp belongs to the filesystem and VCS.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import env

#: Manifest envelope schema identifier; bump on shape changes.
MANIFEST_SCHEMA = "repro.obs/1"

#: Accepted manifest kinds.
MANIFEST_KINDS = ("run", "bench", "profile")


def host_stamp() -> Dict[str, str]:
    """The interpreter/platform stamp shared by every manifest."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def flatten(
    payload: Any, prefix: str = "", out: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Numeric leaves of ``payload`` as a flat ``dotted.path -> float`` map.

    Dict keys and list indexes become path components; booleans and
    strings are skipped (they are labels, not metrics).  The map is the
    comparison namespace of ``repro-fqms perf``.
    """
    if out is None:
        out = {}
    if isinstance(payload, bool):
        return out
    if isinstance(payload, (int, float)):
        if prefix:
            out[prefix] = float(payload)
        return out
    if isinstance(payload, dict):
        for key in sorted(payload):
            sub = f"{prefix}.{key}" if prefix else str(key)
            flatten(payload[key], sub, out)
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            sub = f"{prefix}.{i}" if prefix else str(i)
            flatten(item, sub, out)
    return out


def new_manifest(
    kind: str,
    metrics: Optional[Dict[str, float]] = None,
    labels: Optional[Dict[str, str]] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """A fresh envelope of ``kind`` with the shared header filled in."""
    payload: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "host": host_stamp(),
        "env": env.snapshot(),
        "metrics": dict(metrics or {}),
        "labels": dict(labels or {}),
    }
    payload.update(fields)
    return payload


# -- validation ------------------------------------------------------------


def _check_str_map(value: Any, where: str, problems: List[str]) -> None:
    if not isinstance(value, dict):
        problems.append(f"{where} must be an object")
        return
    for key, item in value.items():
        if not isinstance(key, str) or not isinstance(item, str):
            problems.append(f"{where}[{key!r}] must map string to string")
            return


def validate_manifest(payload: Any) -> List[str]:
    """Structural problems with ``payload`` (empty list = valid).

    Checks the envelope and the kind-specific required fields; the one
    gate every writer and loader shares, so corruption surfaces as a
    named problem instead of a downstream KeyError.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["manifest must be a JSON object"]
    if payload.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    kind = payload.get("kind")
    if kind not in MANIFEST_KINDS:
        problems.append(
            f"kind must be one of {MANIFEST_KINDS}, got {kind!r}"
        )
    host = payload.get("host")
    if not isinstance(host, dict) or not isinstance(host.get("python"), str):
        problems.append("host must be an object with a 'python' string")
    _check_str_map(payload.get("env"), "env", problems)
    _check_str_map(payload.get("labels"), "labels", problems)
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for name, value in metrics.items():
            if (
                not isinstance(name, str)
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
            ):
                problems.append(
                    f"metrics[{name!r}] must map string to number"
                )
                break
    if kind == "run":
        if not isinstance(payload.get("fingerprint"), str):
            problems.append("run manifest needs a 'fingerprint' string")
        if not isinstance(payload.get("policy"), str):
            problems.append("run manifest needs a 'policy' string")
        workload = payload.get("workload")
        if not isinstance(workload, list) or not all(
            isinstance(name, str) for name in workload
        ):
            problems.append("run manifest needs a 'workload' string list")
        window = payload.get("window")
        if not isinstance(window, dict) or not all(
            isinstance(window.get(k), int) for k in ("cycles", "warmup", "seed")
        ):
            problems.append(
                "run manifest needs a 'window' object with integer "
                "cycles/warmup/seed"
            )
        result = payload.get("result")
        if not isinstance(result, dict) or not isinstance(
            result.get("digest"), str
        ):
            problems.append(
                "run manifest needs a 'result' object with a 'digest' string"
            )
    elif kind == "bench":
        if not isinstance(payload.get("bench"), str):
            problems.append("bench manifest needs a 'bench' string")
        if not isinstance(payload.get("data"), dict):
            problems.append("bench manifest needs a 'data' object")
        if not isinstance(payload.get("strict_gate"), (bool, type(None))):
            problems.append("bench 'strict_gate' must be boolean or null")
    elif kind == "profile":
        if not isinstance(payload.get("command"), str):
            problems.append("profile manifest needs a 'command' string")
    return problems


class ManifestError(ValueError):
    """An invalid manifest reached a writer or loader."""


def write_manifest(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> Path:
    """Validate and atomically write ``payload``; returns the final path.

    The single choke point every producer goes through: an invalid
    document can never land on disk, and concurrent writers (pool
    workers) can never leave a torn file behind.
    """
    problems = validate_manifest(payload)
    if problems:
        raise ManifestError("; ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read and validate one manifest; raises :class:`ManifestError`."""
    with open(path) as handle:
        payload = json.load(handle)
    problems = validate_manifest(payload)
    if problems:
        raise ManifestError(f"{path}: " + "; ".join(problems))
    return payload


def load_metrics(path: Union[str, os.PathLike]) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """(payload, flat metrics) for a manifest *or* a legacy BENCH file.

    Pre-migration ``BENCH_*.json`` files carry no ``schema`` key; their
    numeric leaves are flattened directly so ``repro-fqms perf`` can
    compare historical snapshots against migrated ones.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "schema" in payload:
        problems = validate_manifest(payload)
        if problems:
            raise ManifestError(f"{path}: " + "; ".join(problems))
        return payload, dict(payload["metrics"])
    return payload, flatten(payload)


# -- run manifests ---------------------------------------------------------


def result_digest(result: Any) -> str:
    """Content hash of a :class:`~repro.sim.system.SimResult`.

    Built on the cache's canonical JSON form, so two bit-identical
    results always digest identically (and an engine or obs toggle
    that changed anything shows up as a digest change).
    """
    from ..sim.cache import result_to_json  # lazy: avoids import cycle

    blob = json.dumps(result_to_json(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_manifest(
    *,
    fingerprint: str,
    policy: str,
    workload: Sequence[str],
    cycles: int,
    warmup: int,
    seed: int,
    result: Any,
    source: str = "fresh",
    obs: Optional[Any] = None,
    attempts: int = 0,
    tenant: Optional[str] = None,
    spec_payload: Optional[Dict[str, Any]] = None,
    embed_result: bool = False,
) -> Dict[str, Any]:
    """The manifest payload for one finished simulation run.

    ``source`` labels how the result was obtained (``fresh``, ``memo``,
    ``disk``, ``cache``, ``store``); ``obs`` (a :class:`~repro.obs.RunObs`)
    contributes the engine-internals metrics when the run carried one.

    The serve-store extensions are all optional and additive:
    ``attempts`` counts crash resubmissions the run survived (surfacing
    ``retried`` jobs in the durable record), ``tenant`` labels the
    submitting tenant, ``spec_payload`` preserves the declarative
    :class:`~repro.sim.parallel.RunSpec` fields, and ``embed_result``
    inlines the full cache-canonical result JSON so the document alone
    can reconstitute a ``SimResult`` (what makes the result store
    *queryable* rather than digest-only).
    """
    metrics: Dict[str, float] = {}
    labels: Dict[str, str] = {"run.source": str(source)}
    if tenant is not None:
        labels["run.tenant"] = str(tenant)
    if obs is not None:
        metrics.update(obs.registry.metrics())
    metrics["run.attempts"] = float(attempts)
    metrics["result.cycles"] = float(result.cycles)
    for i, thread in enumerate(result.threads):
        metrics[f"thread.{i}.ipc"] = thread.ipc
        metrics[f"thread.{i}.mean_read_latency"] = thread.mean_read_latency
    for key, value in result.extras.items():
        metrics[f"extras.{key}"] = float(value)
    from ..sim.cache import active_cache  # lazy: avoids import cycle

    disk = active_cache()
    if disk is not None:
        metrics["result_cache.hits"] = float(disk.hits)
        metrics["result_cache.misses"] = float(disk.misses)
        metrics["result_cache.stores"] = float(disk.stores)
    result_field: Dict[str, Any] = {"digest": result_digest(result)}
    if embed_result:
        from ..sim.cache import result_to_json  # lazy: avoids import cycle

        result_field["payload"] = result_to_json(result)
    fields: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "policy": policy,
        "workload": list(workload),
        "window": {"cycles": int(cycles), "warmup": int(warmup), "seed": int(seed)},
        "result": result_field,
    }
    if spec_payload is not None:
        fields["spec"] = dict(spec_payload)
    return new_manifest("run", metrics=metrics, labels=labels, **fields)


def emit_run_manifest(
    directory: Union[str, os.PathLike],
    **kwargs: Any,
) -> Path:
    """Write one run manifest into ``directory`` (fingerprint-named).

    Filenames are content-derived, so re-running the same spec
    overwrites its own record instead of accumulating duplicates.
    """
    payload = run_manifest(**kwargs)
    name = f"run-{payload['fingerprint'][:16]}.json"
    return write_manifest(Path(directory) / name, payload)


# -- bench records ---------------------------------------------------------


def bench_record(
    name: str,
    data: Dict[str, Any],
    strict_gate: Optional[bool] = None,
) -> Dict[str, Any]:
    """A bench-kind manifest wrapping a script's measurement payload.

    ``data`` is preserved verbatim (the shape each script historically
    wrote) and every numeric leaf is additionally exposed under
    ``metrics`` for ``repro-fqms perf``.
    """
    return new_manifest(
        "bench",
        metrics=flatten(data),
        bench=name,
        data=dict(data),
        strict_gate=strict_gate,
    )


def write_bench_record(
    path: Union[str, os.PathLike],
    name: str,
    data: Dict[str, Any],
    strict_gate: Optional[bool] = None,
) -> Path:
    """The shared BENCH_*.json writer used by every benchmark script."""
    return write_manifest(path, bench_record(name, data, strict_gate=strict_gate))

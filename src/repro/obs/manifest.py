"""Schema-validated run manifests: the result store's one record format.

A *manifest* is the queryable record of one finished simulation run.
The result store (:mod:`repro.serve.store`) writes every run through
:func:`write_manifest`, and every record shares one envelope::

    {
      "schema": "repro.obs/1",
      "kind": "run",
      "host": {"python": ..., "platform": ...},
      "env": {<declared REPRO_* knobs currently set>},
      "metrics": {"dotted.name": <number>, ...},
      "labels": {"dotted.name": "<string>", ...},
      "fingerprint": ..., "policy": ..., "workload": [...],
      "window": {...}, "result": {"digest": ..., ...}
    }

``metrics`` is the flat numeric namespace ``repro-fqms results
--aggregate`` reads: the result's cycles, per-thread IPC and latency,
and its extras (``extras.engine_*`` among them).

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
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import env

#: Manifest envelope schema identifier; bump on shape changes.
MANIFEST_SCHEMA = "repro.obs/1"

#: The one manifest kind.
MANIFEST_KIND = "run"


def host_stamp() -> Dict[str, str]:
    """The interpreter/platform stamp every manifest and BENCH record carries."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


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

    Checks the envelope and the run fields; the one gate every writer
    and loader shares, so corruption surfaces as a named problem
    instead of a downstream KeyError.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["manifest must be a JSON object"]
    if payload.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if payload.get("kind") != MANIFEST_KIND:
        problems.append(
            f"kind must be {MANIFEST_KIND!r}, got {payload.get('kind')!r}"
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
    return problems


class ManifestError(ValueError):
    """An invalid manifest reached a writer or loader."""


def write_manifest(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> Path:
    """Validate and atomically write ``payload``; returns the final path.

    The single choke point every producer goes through: an invalid
    document can never land on disk, and concurrent writers (processes
    sharing a store root) can never leave a torn file behind.
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
    attempts: int = 0,
    tenant: Optional[str] = None,
    spec_payload: Optional[Dict[str, Any]] = None,
    embed_result: bool = False,
) -> Dict[str, Any]:
    """The manifest payload for one finished simulation run.

    ``source`` labels how the result was obtained (``fresh``, ``memo``,
    ``disk``, ``cache``, ``store``).  Engine counters ride along as
    ``extras.engine_*`` metrics, copied from the result's extras.  The
    metrics depend on the run alone, never on what else this process
    did before, so re-emitting a run produces the same document.

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
    metrics["run.attempts"] = float(attempts)
    metrics["result.cycles"] = float(result.cycles)
    for i, thread in enumerate(result.threads):
        metrics[f"thread.{i}.ipc"] = thread.ipc
        metrics[f"thread.{i}.mean_read_latency"] = thread.mean_read_latency
    for key, value in result.extras.items():
        metrics[f"extras.{key}"] = float(value)
    result_field: Dict[str, Any] = {"digest": result_digest(result)}
    if embed_result:
        from ..sim.cache import result_to_json  # lazy: avoids import cycle

        result_field["payload"] = result_to_json(result)
    payload: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": MANIFEST_KIND,
        "host": host_stamp(),
        "env": env.snapshot(),
        "metrics": metrics,
        "labels": labels,
        "fingerprint": fingerprint,
        "policy": policy,
        "workload": list(workload),
        "window": {"cycles": int(cycles), "warmup": int(warmup), "seed": int(seed)},
        "result": result_field,
    }
    if spec_payload is not None:
        payload["spec"] = dict(spec_payload)
    return payload


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

"""The queryable result store: durable manifests plus an index.

``run_many`` and the figure drivers historically left results in two
places results go to be forgotten: an in-process memo and a
content-addressed disk cache keyed by opaque fingerprints.  The store
is the third, *queryable* layer: an append-only directory of run
manifests (one per distinct run, fingerprint-named, each embedding the
declarative spec and the full cache-canonical result payload) plus a
line-oriented index for cheap filtering.

Layout under ``root``::

    runs/run-<fp16>.json   # schema-validated manifests (atomic writes)
    index.jsonl            # one JSON line per recorded run

Every manifest shares one envelope::

    {
      "schema": "repro.obs/1",
      "kind": "run",
      "host": {"python": ..., "platform": ...},
      "env": {<declared REPRO_* knobs currently set>},
      "metrics": {"dotted.name": <number>, ...},
      "labels": {"dotted.name": "<string>", ...},
      "fingerprint": ..., "policy": ..., "workload": [...],
      "window": {...}, "spec": {...},
      "result": {"digest": ..., "payload": {...}}
    }

``metrics`` is the flat numeric namespace :meth:`ResultStore.aggregate`
reads: the result's cycles, per-thread IPC and latency, and its extras
(``extras.engine_*`` among them).  Manifests deliberately carry no
wall-clock timestamps: a manifest describes a deterministic
computation, so re-recording the same run produces the same document.

The index is a pure acceleration structure: :meth:`ResultStore.rebuild`
regenerates it from the manifests alone, and a corrupted or truncated
line (or manifest) is tolerated — skipped, counted, and reported via
:attr:`ResultStore.problems` — never fatal.  Records are idempotent by
fingerprint, so resubmitting a sweep converges instead of accumulating.

The store plugs into ``run_many(store=...)`` through the two-method
duck type it defined: :meth:`get_result` (cache layer 3) and
:meth:`record` (write-back).  The fairness tournament and the figure
drivers pass a store through, so every evaluation run lands in one
queryable place.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import env
from ..sim.cache import result_from_json, result_to_json
from ..sim.parallel import RunSpec
from ..sim.system import SimResult
from .spec import spec_payload

#: Manifest envelope schema identifier; bump on shape changes.
MANIFEST_SCHEMA = "repro.obs/1"

#: The one manifest kind.
MANIFEST_KIND = "run"

#: Subdirectory holding the per-run manifests.
RUNS_DIR = "runs"

#: The index file name under the store root.
INDEX_NAME = "index.jsonl"

#: The :class:`StoreEntry` fields :meth:`ResultStore.aggregate` groups by.
GROUP_FIELDS = ("policy", "workload", "seed", "tenant", "source")


def host_stamp() -> Dict[str, str]:
    """The interpreter/platform stamp every manifest and BENCH record carries."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- manifests -------------------------------------------------------------


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

    The single choke point every record goes through: an invalid
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


def result_digest(result: SimResult) -> str:
    """Content hash of a result's cache-canonical JSON form.

    Two bit-identical results always digest identically, and an engine
    change that altered anything shows up as a digest change.
    """
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
    result: SimResult,
    source: str = "fresh",
    attempts: int = 0,
    tenant: Optional[str] = None,
    spec_payload: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The manifest payload for one finished simulation run.

    ``source`` labels how the result was obtained (``fresh``, ``memo``,
    ``disk``, ``cache``, ``store``).  Engine counters ride along as
    ``extras.engine_*`` metrics, copied from the result's extras.  The
    metrics depend on the run alone, never on what else this process
    did before, so re-recording a run produces the same document.

    ``attempts`` counts crash resubmissions the run survived (surfacing
    ``retried`` jobs in the durable record), ``tenant`` labels the
    submitting tenant, and ``spec_payload`` preserves the declarative
    :class:`~repro.sim.parallel.RunSpec` fields.  The full
    cache-canonical result JSON is inlined, so the document alone can
    reconstitute a ``SimResult``.
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
        "result": {
            "digest": result_digest(result),
            "payload": result_to_json(result),
        },
    }
    if spec_payload is not None:
        payload["spec"] = dict(spec_payload)
    return payload


# -- the store -------------------------------------------------------------


@dataclass(frozen=True)
class StoreEntry:
    """One indexed run: the filterable fields plus the manifest path."""

    fingerprint: str
    file: str
    policy: str
    workload: Tuple[str, ...]
    cycles: int
    warmup: int
    seed: int
    shares: Optional[Tuple[float, ...]]
    source: str
    tenant: Optional[str]
    attempts: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "file": self.file,
            "policy": self.policy,
            "workload": list(self.workload),
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.seed,
            "shares": list(self.shares) if self.shares is not None else None,
            "source": self.source,
            "tenant": self.tenant,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "StoreEntry":
        shares = payload.get("shares")
        return cls(
            fingerprint=str(payload["fingerprint"]),
            file=str(payload["file"]),
            policy=str(payload["policy"]),
            workload=tuple(str(n) for n in payload["workload"]),
            cycles=int(payload["cycles"]),
            warmup=int(payload["warmup"]),
            seed=int(payload["seed"]),
            shares=tuple(float(s) for s in shares) if shares is not None else None,
            source=str(payload.get("source", "fresh")),
            tenant=payload.get("tenant"),
            attempts=int(payload.get("attempts", 0)),
        )


class ResultStore:
    """Append-only manifest store with an index and filter/aggregate queries."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root).expanduser()
        self.runs_dir = self.root / RUNS_DIR
        self.index_path = self.root / INDEX_NAME
        self._entries: Dict[str, StoreEntry] = {}
        #: Human-readable notes about tolerated damage (corrupt index
        #: lines, unreadable manifests); surfaced by status/results.
        self.problems: List[str] = []
        self._load_index()

    def __len__(self) -> int:
        return len(self._entries)

    # -- loading -----------------------------------------------------------

    def _load_index(self) -> None:
        try:
            lines = self.index_path.read_text().splitlines()
        except OSError:
            return
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = StoreEntry.from_json(json.loads(line))
            except (ValueError, KeyError, TypeError):
                self.problems.append(
                    f"{self.index_path.name}:{number}: corrupt index line skipped"
                )
                continue
            self._entries[entry.fingerprint] = entry

    def rebuild(self) -> int:
        """Regenerate the index from the manifests; returns the run count.

        The recovery path for a lost or damaged index: every readable
        manifest under ``runs/`` becomes an entry, unreadable ones are
        reported in :attr:`problems`, and the index file is rewritten
        atomically.
        """
        self._entries = {}
        self.problems = []
        if self.runs_dir.is_dir():
            for path in sorted(self.runs_dir.glob("run-*.json")):
                try:
                    manifest = load_manifest(path)
                    entry = self._entry_from_manifest(path.name, manifest)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    self.problems.append(
                        f"{RUNS_DIR}/{path.name}: unreadable manifest "
                        f"skipped ({type(exc).__name__})"
                    )
                    continue
                self._entries[entry.fingerprint] = entry
        self._rewrite_index()
        return len(self._entries)

    def _entry_from_manifest(
        self, file_name: str, manifest: Dict[str, Any]
    ) -> StoreEntry:
        window = manifest["window"]
        spec_block = manifest.get("spec") or {}
        shares = spec_block.get("shares")
        labels = manifest.get("labels", {})
        attempts = manifest.get("metrics", {}).get("run.attempts", 0)
        return StoreEntry(
            fingerprint=manifest["fingerprint"],
            file=file_name,
            policy=manifest["policy"],
            workload=tuple(manifest["workload"]),
            cycles=int(window["cycles"]),
            warmup=int(window["warmup"]),
            seed=int(window["seed"]),
            shares=tuple(float(s) for s in shares) if shares is not None else None,
            source=str(labels.get("run.source", "fresh")),
            tenant=labels.get("run.tenant"),
            attempts=int(attempts),
        )

    def _rewrite_index(self) -> None:
        blob = "".join(
            json.dumps(self._entries[fp].to_json(), sort_keys=True) + "\n"
            for fp in sorted(self._entries)
        )
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        tmp.write_text(blob)
        os.replace(tmp, self.index_path)

    # -- the run_many duck type -------------------------------------------

    def get_result(self, spec: RunSpec) -> Optional[SimResult]:
        """The stored result for ``spec``, or None (damage counts as miss)."""
        entry = self._entries.get(spec.fingerprint())
        if entry is None:
            return None
        path = self.runs_dir / entry.file
        try:
            manifest = load_manifest(path)
            payload = manifest["result"]["payload"]
            return result_from_json(payload)
        except (OSError, ManifestError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(
                f"{RUNS_DIR}/{entry.file}: result unreadable "
                f"({type(exc).__name__}); treated as a miss"
            )
            return None

    def record(
        self,
        spec: RunSpec,
        result: SimResult,
        source: str = "fresh",
        tenant: Optional[str] = None,
        attempts: int = 0,
    ) -> Optional[StoreEntry]:
        """Persist one run (idempotent by fingerprint); returns its entry.

        Best-effort on I/O failure (an unwritable store degrades to "no
        store", never kills a sweep); a manifest that fails validation
        is a programming error and raises.
        """
        fingerprint = spec.fingerprint()
        existing = self._entries.get(fingerprint)
        if existing is not None:
            return existing
        manifest = run_manifest(
            fingerprint=fingerprint,
            policy=spec.policy,
            workload=spec.names,
            cycles=spec.cycles,
            warmup=spec.warmup,
            seed=spec.seed,
            result=result,
            source=source,
            attempts=attempts,
            tenant=tenant,
            spec_payload=spec_payload(spec),
        )
        # Fingerprint-named, so re-recording a run overwrites its own
        # file instead of accumulating duplicates.
        name = f"run-{fingerprint[:16]}.json"
        try:
            path = write_manifest(self.runs_dir / name, manifest)
        except OSError as exc:
            self.problems.append(
                f"store write failed for {fingerprint[:16]} "
                f"({type(exc).__name__}); run not recorded"
            )
            return None
        entry = StoreEntry(
            fingerprint=fingerprint,
            file=path.name,
            policy=spec.policy,
            workload=spec.names,
            cycles=spec.cycles,
            warmup=spec.warmup,
            seed=spec.seed,
            shares=spec.shares,
            source=source,
            tenant=tenant,
            attempts=attempts,
        )
        self._entries[fingerprint] = entry
        line = (json.dumps(entry.to_json(), sort_keys=True) + "\n").encode()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.index_path, "ab+") as handle:
                # A crash mid-append leaves a line with no newline; start
                # on a fresh line so this record is not glued onto it.
                end = handle.seek(0, os.SEEK_END)
                if end:
                    handle.seek(end - 1)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
        except OSError:
            self.problems.append(
                f"index append failed for {fingerprint[:16]}; "
                "run rebuild() to restore the index"
            )
        return entry

    # -- queries -----------------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """Every indexed run, fingerprint-sorted (the deterministic order)."""
        return [self._entries[fp] for fp in sorted(self._entries)]

    def query(
        self,
        policy: Optional[str] = None,
        workload: Optional[Sequence[str]] = None,
        shares: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
        source: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> List[StoreEntry]:
        """Indexed runs matching every given filter, fingerprint-sorted."""
        want_workload = tuple(workload) if workload is not None else None
        want_shares = (
            tuple(float(s) for s in shares) if shares is not None else None
        )
        out = []
        for entry in self.entries():
            if policy is not None and entry.policy != policy:
                continue
            if want_workload is not None and entry.workload != want_workload:
                continue
            if want_shares is not None and entry.shares != want_shares:
                continue
            if seed is not None and entry.seed != seed:
                continue
            if source is not None and entry.source != source:
                continue
            if tenant is not None and entry.tenant != tenant:
                continue
            out.append(entry)
        return out

    def metrics(self, entry: StoreEntry) -> Dict[str, float]:
        """The flat metric table of one entry's manifest ({} on damage)."""
        try:
            manifest = load_manifest(self.runs_dir / entry.file)
            return dict(manifest.get("metrics", {}))
        except (OSError, ManifestError, ValueError) as exc:
            self.problems.append(
                f"{RUNS_DIR}/{entry.file}: metrics unreadable "
                f"({type(exc).__name__})"
            )
            return {}

    def aggregate(
        self,
        metric: str,
        by: str = "policy",
        **filters: Any,
    ) -> Dict[str, float]:
        """Mean of ``metric`` over matching runs, grouped by a field.

        ``by`` names a :class:`StoreEntry` field, one of
        :data:`GROUP_FIELDS`; runs whose manifests lack the metric are
        skipped.  Group keys are strings (workload mixes render as
        ``a+b``) and the result is key-sorted.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for entry in self.query(**filters):
            value = self.metrics(entry).get(metric)
            if value is None:
                continue
            field = getattr(entry, by)
            key = "+".join(field) if isinstance(field, tuple) else str(field)
            sums[key] = sums.get(key, 0.0) + float(value)
            counts[key] = counts.get(key, 0) + 1
        return {key: sums[key] / counts[key] for key in sorted(sums)}

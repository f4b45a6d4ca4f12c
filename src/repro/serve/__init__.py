"""``repro.serve``: the fair-queued asynchronous experiment service.

The evaluation's figure drivers run sweeps synchronously: expand specs,
``run_many``, read results.  That shape breaks down at thousands of
runs shared between several users (or several figure drivers): batches
queue head-of-line behind each other, a crashed worker takes its batch
down, and results evaporate into whichever process ran them.  This
package is the long-running answer — and it *dogfoods the paper*: the
job scheduler is the same start-time/finish-time fair queuing the
simulated memory controller uses, applied to the service's own job
queue, with per-tenant φ shares and virtual-finish-time accounting.

Layout (one concern per module):

* :mod:`repro.serve.clock` — the single wall-clock module under
  ``serve/`` (DET009 confines ``time`` imports here).
* :mod:`repro.serve.spec` — declarative sweep specs: policy × workload
  × φ × window × seed grids, expanded to deduplicated
  :class:`~repro.sim.parallel.RunSpec` lists.
* :mod:`repro.serve.queue` — the fair job scheduler: per-tenant
  virtual start/finish tags, weighted by configurable shares.
* :mod:`repro.serve.store` — the queryable result store: append-only
  directory of schema-validated run manifests plus an index, with
  filter/aggregate queries; pluggable into ``run_many(store=...)``.
  The manifest format and its one atomic writer live here too.
* :mod:`repro.serve.service` — the asyncio orchestrator: worker
  subprocess pool, per-job timeouts, crash detection with bounded
  retry/backoff, graceful drain, the fleet dashboard rendered from its
  job records (progress rides each job's result pipe), per-tenant
  slowdown/unfairness metrics.
* :mod:`repro.serve.protocol` — the JSON-lines submit/status/results
  protocol over a unix (or loopback TCP) socket.
* :mod:`repro.serve.cli` — ``repro-fqms serve|submit|status|results``,
  and ``sweep``, which runs one grid through an in-process service.

Determinism contract: simulation *results* never depend on the
service — a job is executed by the same :func:`repro.sim.parallel.
execute_spec` a synchronous sweep would use, and retry counts, tenant
names, and scheduling order never enter cache fingerprints.  The wall
clock exists here only to time out and pace *jobs*, not simulations.
"""

from __future__ import annotations

from .queue import FairJobQueue, Job
from .spec import SweepSpec, spec_from_payload, spec_payload
from .store import ResultStore, StoreEntry

__all__ = [
    "FairJobQueue",
    "Job",
    "ResultStore",
    "StoreEntry",
    "SweepSpec",
    "spec_from_payload",
    "spec_payload",
]

"""Engine observability: metrics registry, manifests, fleet streaming.

``repro.obs`` records how the simulator *ran* — engine counters, result
digests, ``run_many`` fleet state — the way ``repro.telemetry`` records
what the simulated requests did.  It adds no hook to the simulator:
per-layer performance attribution is measured from outside by
``benchmarks/e2e/spans.py``, and every run's free-running engine
counters already ride ``SimResult.extras`` as ``engine_*`` keys, which
run manifests carry as ``extras.engine_*`` metrics.

Layout:

* :mod:`repro.obs.registry` — the metrics registry (serve's headline
  gauges).
* :mod:`repro.obs.engine` — owns the ``engine_*`` extras block.
* :mod:`repro.obs.manifest` — the schema-validated run/bench/profile
  manifest records and the one shared writer.
* :mod:`repro.obs.fleet` — worker heartbeats over a multiprocessing
  queue and the live terminal fleet dashboard.
* :mod:`repro.obs.perfcli` / :mod:`repro.obs.sweepcli` — the
  ``repro-fqms perf`` and ``repro-fqms sweep`` subcommands.

Knob (declared in :mod:`repro.env`): ``REPRO_OBS_MANIFEST=DIR`` makes
runner/parallel write one manifest per executed run into ``DIR``.
"""

from __future__ import annotations

from typing import Optional

from .. import env
from .registry import MetricsRegistry

OBS_MANIFEST_ENV_VAR = "REPRO_OBS_MANIFEST"


def manifest_dir() -> Optional[str]:
    """``REPRO_OBS_MANIFEST``: directory for per-run manifests, or None."""
    value = env.raw(OBS_MANIFEST_ENV_VAR)
    return value if value else None


__all__ = [
    "MetricsRegistry",
    "OBS_MANIFEST_ENV_VAR",
    "manifest_dir",
]

"""Engine observability: metrics registry, manifests, fleet streaming.

``repro.obs`` records how the simulator *ran* — engine counters, result
digests, worker progress — the way ``repro.telemetry`` records what the
simulated requests did.  It adds no hook to the simulator: per-layer
performance attribution is measured from outside by
``benchmarks/e2e/spans.py``, and every run's free-running engine
counters already ride ``SimResult.extras`` as ``engine_*`` keys, which
run manifests carry as ``extras.engine_*`` metrics.

Layout:

* :mod:`repro.obs.registry` — the metrics registry (serve's headline
  gauges).
* :mod:`repro.obs.engine` — owns the ``engine_*`` extras block.
* :mod:`repro.obs.manifest` — the schema-validated run/bench/profile
  manifest records and the one shared writer; the result store
  (:mod:`repro.serve.store`) writes every run manifest through it.
* :mod:`repro.obs.fleet` — experiment-service worker heartbeats over a
  multiprocessing queue and the terminal fleet dashboard.
* :mod:`repro.obs.perfcli` — the ``repro-fqms perf`` subcommand.
"""

from __future__ import annotations

from .registry import MetricsRegistry

__all__ = ["MetricsRegistry"]

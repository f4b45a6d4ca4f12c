"""Engine observability: run manifests, engine extras, fleet streaming.

``repro.obs`` records how the simulator *ran* — engine counters, result
digests, worker progress — the way ``repro.telemetry`` records what the
simulated requests did.  It adds no hook to the simulator: per-layer
performance attribution is measured from outside by
``benchmarks/e2e/spans.py``, and every run's free-running engine
counters already ride ``SimResult.extras`` as ``engine_*`` keys, which
run manifests carry as ``extras.engine_*`` metrics.  Performance
verdicts belong to ``benchmarks/e2e/run.py compare``.

Layout:

* :mod:`repro.obs.manifest` — the schema-validated run manifest and
  its one atomic writer; the result store (:mod:`repro.serve.store`)
  writes every run through it.
* :mod:`repro.obs.engine` — owns the ``engine_*`` extras block.
* :mod:`repro.obs.fleet` — experiment-service worker heartbeats over a
  multiprocessing queue and the terminal fleet dashboard.
"""

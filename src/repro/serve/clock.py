"""The one wall-clock module under ``repro.serve`` (DET009's harness).

The experiment service genuinely needs host time — job timeouts,
retry backoff pacing, tenant busy-second accounting — and the
determinism contract genuinely bans it everywhere results are
computed.  The resolution: confine every ``time`` import under
``serve/`` to this single registered module (DET009), and keep the
hazard contained by construction:

* Nothing here ever flows into a simulation: timeouts kill *worker
  processes*, backoff paces *resubmissions*, and busy-seconds ride
  *service metrics* — a retried or slow job recomputes the identical
  bit-identical result.
* The scheduler (:mod:`repro.serve.queue`) is wall-clock-free: virtual
  time advances on job *costs* (simulated cycles), so dispatch order
  is a pure function of submission order and shares, unit-testable
  without sleeping.
"""

from __future__ import annotations

import time  # lint: allow(DET009, the registered serve wall-clock module: timeouts/backoff/busy-second accounting pace jobs and feed metrics; nothing here ever becomes a simulation input)


def monotonic() -> float:
    """Monotonic seconds for deadlines and busy-time accounting."""
    return time.monotonic()  # lint: allow(DET002, harness-side deadline clock; never a simulation input)


def sleep(seconds: float) -> None:
    """Blocking sleep (retry backoff in synchronous callers)."""
    time.sleep(seconds)

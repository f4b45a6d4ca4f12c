"""Fleet progress streaming for the experiment service's workers.

Workers heartbeat (run id, state, simulated-cycle progress) over a
``multiprocessing.Manager`` queue to the service process, where a
:class:`FleetMonitor` folds them into a :class:`FleetState` — the
``repro-fqms status`` dashboard and the ``repro-fqms sweep --progress``
view.  A Manager queue is used because it survives a SIGKILLed worker.

The one hard constraint is bit-identity: progress reporting must not
perturb the simulation.  Chunking ``run_cycles`` to emit between
chunks would change ``engine_event_target_calls`` in the result
extras, forking cached results — so instead each worker runs the
simulation exactly as before and a daemon *thread* samples
``system.now`` (a single int attribute read, safe under the GIL) every
:data:`HEARTBEAT_INTERVAL_S` seconds and posts it to the queue.  The
simulation thread never blocks on, or branches for, the heartbeat.

Queue plumbing: the service hands its queue's picklable proxy to each
worker as an argument (:func:`repro.sim.parallel.execute_spec`'s
``heartbeats``), and pumps the monitor from its scheduler tick and on
every ``status`` call.  A worker that dies mid-run simply stops
heartbeating; the service marks the job ``retried`` or ``lost`` itself.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..stats.report import sparkline

#: Seconds between worker heartbeat samples.
HEARTBEAT_INTERVAL_S = 0.2

#: States a run can report; ``lost`` and ``retried`` (a crash-orphaned
#: run awaiting resubmission) come from the serve scheduler.
RUN_STATES = ("queued", "running", "retried", "done", "cached", "error", "lost")

#: States that end a run's stream.
TERMINAL_STATES = ("done", "cached", "error", "lost")


def heartbeat_event(
    run_id: str, state: str, cycle: int = 0, total: int = 0
) -> Dict[str, Any]:
    """One picklable heartbeat record (the only shape on the queue)."""
    return {"run": run_id, "state": state, "cycle": int(cycle), "total": int(total)}


def post(queue: Any, event: Dict[str, Any]) -> None:
    """Best-effort put: a dead manager must not take the simulation down."""
    try:
        queue.put_nowait(event)
    except Exception:
        pass


class WorkerHeartbeat:
    """Samples a running system's clock from a daemon thread.

    ``start`` launches the sampler; ``finish`` stops it and posts the
    terminal event.  Reading ``system.now`` from another thread is safe
    (single int attribute, GIL-atomic) and free for the simulation —
    the engine neither checks a flag nor takes a lock.
    """

    __slots__ = ("_queue", "_run_id", "_total", "_system", "_stop", "_thread")

    def __init__(self, queue: Any, run_id: str, total_cycles: int):
        self._queue = queue
        self._run_id = run_id
        self._total = int(total_cycles)
        self._system: Any = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self, system: Any) -> None:
        self._system = system
        post(self._queue, heartbeat_event(self._run_id, "running", 0, self._total))
        thread = threading.Thread(target=self._sample, daemon=True)
        self._thread = thread
        thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL_S):
            post(
                self._queue,
                heartbeat_event(
                    self._run_id, "running", self._system.now, self._total
                ),
            )

    def finish(self, state: str = "done") -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        cycle = self._system.now if self._system is not None else 0
        post(self._queue, heartbeat_event(self._run_id, state, cycle, self._total))


class RunProgress:
    """Dashboard state for one run: latest sample plus cycle history."""

    __slots__ = ("run_id", "state", "cycle", "total", "history")

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.state = "queued"
        self.cycle = 0
        self.total = 0
        self.history: List[float] = []

    @property
    def fraction(self) -> float:
        return self.cycle / self.total if self.total else 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class FleetState:
    """Aggregates heartbeat events into a renderable fleet picture."""

    def __init__(self) -> None:
        self.runs: Dict[str, RunProgress] = {}

    def expect(self, run_id: str) -> RunProgress:
        """Pre-register a run so the dashboard shows it as queued."""
        progress = self.runs.get(run_id)
        if progress is None:
            progress = RunProgress(run_id)
            self.runs[run_id] = progress
        return progress

    def observe(self, event: Dict[str, Any]) -> None:
        """Fold one heartbeat into the picture (malformed events ignored)."""
        if not isinstance(event, dict):
            return
        run_id = event.get("run")
        state = event.get("state")
        if not isinstance(run_id, str) or state not in RUN_STATES:
            return
        progress = self.expect(run_id)
        if progress.terminal:
            return  # late heartbeat from an already-finished run
        progress.state = state
        cycle = event.get("cycle")
        total = event.get("total")
        if isinstance(cycle, int) and cycle >= 0:
            progress.cycle = cycle
            progress.history.append(float(cycle))
        if isinstance(total, int) and total > 0:
            progress.total = total

    @property
    def done_count(self) -> int:
        return sum(1 for p in self.runs.values() if p.terminal)

    def render(self, width: int = 16) -> str:
        """The dashboard block: one sparkline-annotated line per run."""
        lines = [
            f"fleet: {self.done_count}/{len(self.runs)} runs finished"
        ]
        label_width = max((len(r) for r in self.runs), default=0)
        for run_id in sorted(self.runs):
            progress = self.runs[run_id]
            spark = sparkline(
                progress.history, lo=0.0, hi=float(progress.total or 1), width=width
            ).ljust(width)
            pct = f"{progress.fraction * 100.0:5.1f}%"
            lines.append(
                f"  {run_id.ljust(label_width)}  [{spark}] {pct}  {progress.state}"
            )
        return "\n".join(lines)


class FleetMonitor:
    """Service-side pump: drains the heartbeat queue into the state."""

    def __init__(self, queue: Any, state: Optional[FleetState] = None):
        self.queue = queue
        self.state = state if state is not None else FleetState()

    def pump(self) -> int:
        """Drain every queued event; returns how many were folded in."""
        drained = 0
        while True:
            try:
                event = self.queue.get_nowait()
            except Exception:
                break
            self.state.observe(event)
            drained += 1
        return drained

"""Fleet heartbeats: worker sampling, state folding, the service-side pump."""

import queue

from repro.obs import fleet
from repro.obs.fleet import (
    FleetMonitor,
    FleetState,
    WorkerHeartbeat,
    heartbeat_event,
)


class TestFleetState:
    def test_expect_registers_queued_run(self):
        state = FleetState()
        progress = state.expect("vpr+art:FQ-VFTF@s0")
        assert progress.state == "queued"
        assert not progress.terminal
        assert state.done_count == 0

    def test_observe_folds_progress(self):
        state = FleetState()
        state.observe(heartbeat_event("r1", "running", 500, 2000))
        progress = state.runs["r1"]
        assert progress.state == "running"
        assert progress.fraction == 0.25
        assert progress.history == [500.0]

    def test_malformed_events_are_ignored(self):
        state = FleetState()
        state.observe("not a dict")
        state.observe({"run": 42, "state": "running"})
        state.observe({"run": "r1", "state": "exploded"})
        state.observe({"run": "r1"})  # no state at all
        assert state.runs == {}

    def test_late_heartbeat_after_terminal_is_dropped(self):
        state = FleetState()
        state.observe(heartbeat_event("r1", "done", 2000, 2000))
        state.observe(heartbeat_event("r1", "running", 100, 2000))
        assert state.runs["r1"].state == "done"
        assert state.runs["r1"].cycle == 2000

    def test_render_includes_every_run(self):
        state = FleetState()
        state.observe(heartbeat_event("r1", "running", 1000, 2000))
        state.expect("r2")
        block = state.render()
        assert "1/2 runs finished" not in block  # running is not terminal
        assert "r1" in block and "r2" in block
        assert "50.0%" in block


class TestMonitor:
    def test_pump_drains_the_queue_into_the_state(self):
        q = queue.Queue()
        monitor = FleetMonitor(q)
        q.put(heartbeat_event("r1", "running", 10, 100))
        q.put(heartbeat_event("r1", "done", 100, 100))
        assert monitor.pump() == 2
        assert monitor.state.runs["r1"].state == "done"
        assert monitor.state.done_count == 1
        assert monitor.pump() == 0  # empty queue

    def test_post_swallows_dead_queue(self):
        class _Dead:
            def put_nowait(self, event):
                raise BrokenPipeError("manager gone")

        fleet.post(_Dead(), heartbeat_event("r1", "running"))  # must not raise


class TestWorkerHeartbeat:
    def test_sampler_posts_running_then_terminal(self):
        class _System:
            now = 1234

        q = queue.Queue()
        heartbeat = WorkerHeartbeat(q, "r1", total_cycles=5000)
        heartbeat.start(_System())
        heartbeat.finish("done")
        events = []
        while True:
            try:
                events.append(q.get_nowait())
            except queue.Empty:
                break
        assert events[0] == heartbeat_event("r1", "running", 0, 5000)
        assert events[-1] == heartbeat_event("r1", "done", 1234, 5000)

    def test_error_finish_carries_error_state(self):
        class _System:
            now = 7

        q = queue.Queue()
        heartbeat = WorkerHeartbeat(q, "r1", total_cycles=100)
        heartbeat.start(_System())
        heartbeat.finish("error")
        last = None
        while True:
            try:
                last = q.get_nowait()
            except queue.Empty:
                break
        assert last["state"] == "error"

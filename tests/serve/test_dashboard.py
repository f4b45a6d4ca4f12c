"""The fleet dashboard: rendered from the service's own job records.

Rows are keyed by ``parallel.run_label``; a job's row shows its state
and the last progress sample its worker sent over the result pipe.
The live test runs one real worker process and checks that its mid-run
samples reach the job record.
"""

import asyncio
import multiprocessing

import pytest

from repro.serve import queue as serve_queue
from repro.serve.queue import Job
from repro.serve.service import TERMINAL_STATES, ExperimentService, dashboard
from repro.serve.spec import SweepSpec
from repro.sim import parallel
from repro.sim.cache import result_to_json
from repro.sim.retry import RetryPolicy

SPEC = parallel.group_spec(("vpr", "art"), "FQ-VFTF", 2000, 500, 0)
LABEL = "vpr+art:FQ-VFTF@s0/c2000w500"


def job(job_id, state, progress=0, spec=SPEC):
    record = Job(job_id, "alice", spec, 1.0)
    record.state = state
    record.progress = progress
    return record


def rows(block):
    """Dashboard lines after the header, keyed by their run label."""
    return {line.split()[0]: line for line in block.splitlines()[1:]}


class TestRows:
    def test_one_row_per_run_label(self):
        other = parallel.group_spec(("vpr", "art"), "FQ-VFTF", 4000, 1000, 0)
        block = dashboard([job(1, "queued"), job(2, "queued", spec=other)])
        assert block.splitlines()[0] == "fleet: 0/2 runs finished"
        assert set(rows(block)) == {LABEL, parallel.run_label(other)}

    def test_jobs_sharing_a_label_share_a_row(self):
        # The furthest job shows, whatever its place in submission order.
        block = dashboard([job(1, "queued"), job(2, "running", 1250)])
        assert block.splitlines()[0] == "fleet: 0/1 runs finished"
        assert "running" in rows(block)[LABEL]

    def test_first_terminal_job_keeps_the_row(self):
        block = dashboard([job(1, "done"), job(2, "cached")])
        assert block.splitlines()[0] == "fleet: 1/1 runs finished"
        assert rows(block)[LABEL].endswith("done")

    def test_submit_time_cache_hits_are_rows(self):
        block = dashboard([], cache_hits={LABEL})
        assert block.splitlines()[0] == "fleet: 1/1 runs finished"
        assert rows(block)[LABEL].endswith("100.0%  cached")

    def test_no_runs(self):
        assert dashboard([]) == "fleet: 0/0 runs finished"


class TestTerminalStates:
    @pytest.mark.parametrize("state", TERMINAL_STATES)
    def test_terminal_states_count_as_finished(self, state):
        block = dashboard([job(1, state)])
        assert block.splitlines()[0] == "fleet: 1/1 runs finished"

    @pytest.mark.parametrize("state", ["queued", "running", "retried"])
    def test_other_states_do_not(self, state):
        block = dashboard([job(1, state)])
        assert block.splitlines()[0] == "fleet: 0/1 runs finished"


class TestRender:
    def test_running_row_shows_its_last_sample(self):
        line = rows(dashboard([job(1, "running", 1250)]))[LABEL]
        assert line == f"  {LABEL}  [########        ]  50.0%  running"

    def test_done_and_cached_rows_read_full(self):
        # A worker's last sample can predate the end of its run.
        for state in ("done", "cached"):
            line = rows(dashboard([job(1, state, 100)]))[LABEL]
            assert line.endswith(f"[{'#' * 16}] 100.0%  {state}")

    def test_error_row_keeps_the_progress_it_reached(self):
        line = rows(dashboard([job(1, "error", 625)]))[LABEL]
        assert line.endswith("[####            ]  25.0%  error")

    def test_labels_align(self):
        other = parallel.solo_spec("art", 2.0, 2000, 500, 0)
        block = dashboard([job(1, "queued"), job(2, "queued", spec=other)])
        starts = {line.index("[") for line in block.splitlines()[1:]}
        assert len(starts) == 1


class RecordingJob(Job):
    """A job record that keeps every progress value stored on it."""

    def __init__(self, *args):
        self.samples = []
        super().__init__(*args)

    @property
    def progress(self):
        return self.samples[-1]

    @progress.setter
    def progress(self, value):
        self.samples.append(value)


class FakePipe:
    """The sending end of a result pipe; ``broken`` makes sends fail."""

    def __init__(self, broken=False):
        self.broken = broken
        self.sent = []

    def send(self, message):
        if self.broken:
            raise BrokenPipeError("service gone")
        self.sent.append(message)


class TestLiveProgress:
    SPEC = parallel.group_spec(("vpr", "art"), "FR-FCFS", 12000, 3000, 0)

    def test_sampler_sends_cycles_without_perturbing_the_run(self, monkeypatch):
        plain = result_to_json(parallel.execute_spec(self.SPEC))
        monkeypatch.setattr(parallel, "PROGRESS_INTERVAL_S", 0.001)
        pipe = FakePipe()
        sampled = parallel.execute_spec(self.SPEC, pipe)
        assert result_to_json(sampled) == plain
        assert pipe.sent, "no progress sample in the whole run"
        for kind, cycle in pipe.sent:
            assert kind == "progress" and 0 <= cycle <= 15000

    def test_failed_send_ends_the_sampler_quietly(self, monkeypatch):
        plain = result_to_json(parallel.execute_spec(self.SPEC))
        monkeypatch.setattr(parallel, "PROGRESS_INTERVAL_S", 0.001)
        sampled = parallel.execute_spec(self.SPEC, FakePipe(broken=True))
        assert result_to_json(sampled) == plain

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the shortened sample interval reaches the worker through fork",
    )
    def test_real_worker_progress_reaches_the_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "PROGRESS_INTERVAL_S", 0.002)
        monkeypatch.setattr(serve_queue, "Job", RecordingJob)
        sweep = SweepSpec(
            workloads=(("vpr", "art"),), policies=("FR-FCFS",),
            cycles=20000, warmup=5000,
        )
        service = ExperimentService(
            tmp_path, workers=1, retry_policy=RetryPolicy(retries=0),
        )

        async def scenario():
            await service.start()
            service.submit_sweep("alice", sweep)
            await asyncio.wait_for(service.drain(), timeout=120)
            await service.stop()

        asyncio.run(scenario())
        (record,) = service.jobs.values()
        assert record.state == "done"
        total = 20000 + 5000
        assert any(0 < cycle < total for cycle in record.samples), record.samples
        (line,) = service.status()["dashboard"].splitlines()[1:]
        assert line.endswith("100.0%  done")

"""Exporters: Perfetto schema validation and interval-dump round-trips."""

import json

import pytest

from repro.check.harness import QUAD_WORKLOAD
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.telemetry import RunTelemetry
from repro.telemetry.driver import run_traced
from repro.telemetry.export import (
    BANK_PID,
    THREAD_PID,
    load_intervals,
    perfetto_trace,
    validate_trace,
    write_intervals_csv,
    write_intervals_jsonl,
    write_trace,
)
from repro.telemetry.sampler import INTERVAL_COLUMNS
from repro.workloads.spec2000 import profile


@pytest.fixture(scope="module")
def traced():
    return run_traced(
        [profile("vpr"), profile("art")],
        "FQ-VFTF",
        cycles=4_000,
        warmup=1_000,
        sample_period=1_000,
        with_targets=False,
    )


class TestPerfettoSchema:
    def test_real_trace_validates_clean(self, traced):
        trace = perfetto_trace(traced.telemetry, fair_shares=[0.4, 0.6])
        problems = validate_trace(trace)
        assert problems == [], "\n".join(problems)

    def test_trace_structure(self, traced):
        trace = perfetto_trace(traced.telemetry, fair_shares=[0.4, 0.6])
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C"}
        # Thread metadata names every simulated thread.
        thread_meta = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["pid"] == THREAD_PID
        ]
        assert thread_meta == ["T0 vpr", "T1 art"]
        # Bank tracks exist and carry DRAM command slices.
        bank_slices = [
            e for e in events if e["ph"] == "X" and e["pid"] == BANK_PID
        ]
        assert bank_slices
        assert all(e["dur"] > 0 for e in bank_slices)
        # Counters include the fair-share target series.
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        assert "T0 fair_share_target" in counter_names
        assert "T1 bus_share" in counter_names
        assert trace["otherData"]["time_unit"] == "dram_cycles"
        assert "lifecycles_dropped" in trace["otherData"]["truncation"]

    def test_write_trace_is_loadable_json(self, traced, tmp_path):
        trace = perfetto_trace(traced.telemetry)
        path = tmp_path / "trace.json"
        write_trace(path, trace)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == trace["traceEvents"]

    def test_validator_catches_corruption(self, traced):
        trace = perfetto_trace(traced.telemetry)
        good = trace["traceEvents"]
        cases = [
            ({"traceEvents": "nope"}, "traceEvents"),
            ({"traceEvents": good + [{"ph": "B", "name": "x"}]}, "ph"),
            (
                {"traceEvents": good + [{"ph": "X", "name": "x", "pid": 0,
                                         "tid": 0, "ts": 5, "dur": 0}]},
                "dur",
            ),
            (
                {"traceEvents": good + [{"ph": "X", "name": "x", "pid": 0,
                                         "tid": 0, "ts": -1, "dur": 2}]},
                "ts",
            ),
            (
                {"traceEvents": good + [{"ph": "C", "name": "x", "pid": 0,
                                         "tid": 0, "ts": 5}]},
                "args",
            ),
            (
                {"traceEvents": good + [{"ph": "M", "name": "oddball",
                                         "pid": 0, "tid": 0, "args": {}}]},
                "metadata",
            ),
        ]
        for corrupted, needle in cases:
            problems = validate_trace(corrupted)
            assert problems, f"expected a problem mentioning {needle!r}"
            assert any(needle in p for p in problems), problems


class TestBankTracks:
    def test_two_channel_bank_log_matches_each_controller(self):
        """Every command lands on its issuing channel's bank tracks.

        A closed-page auto-precharge carries no request, so its channel
        must come from the issuing controller, not from a request.
        """
        config = SystemConfig(
            num_cores=len(QUAD_WORKLOAD), policy="FQ-VFTF", num_channels=2
        )
        system = CmpSystem(config, [profile(name) for name in QUAD_WORKLOAD])
        telemetry = RunTelemetry(system)
        system.attach(telemetry)
        system.run(8_000, warmup=2_000)
        log = telemetry.bank_log
        assert log.dropped == 0
        for channel, controller in enumerate(system.controllers):
            logged = {}
            for bank in log.banks():
                if bank[0] == channel:
                    for event in log.events(*bank):
                        logged[event[1]] = logged.get(event[1], 0) + 1
            issued = {
                kind.name: count
                for kind, count in controller.stats.commands_issued.items()
                if count
            }
            assert logged == issued, channel


class TestIntervalDumps:
    def test_csv_round_trip(self, traced, tmp_path):
        samples = traced.telemetry.samples()
        path = tmp_path / "intervals.csv"
        write_intervals_csv(path, samples, num_threads=2)
        rows = load_intervals(path)
        assert len(rows) == len(samples) * 2
        assert set(rows[0]) == set(INTERVAL_COLUMNS)
        assert rows[0]["cycle"] == samples[0].cycle
        assert rows[1]["thread"] == 1.0
        assert rows[0]["bus_utilization"] == samples[0].bus_utilization[0]

    def test_jsonl_round_trip_matches_csv(self, traced, tmp_path):
        samples = traced.telemetry.samples()
        csv_path = tmp_path / "intervals.csv"
        jsonl_path = tmp_path / "intervals.jsonl"
        write_intervals_csv(csv_path, samples, num_threads=2)
        write_intervals_jsonl(jsonl_path, samples, num_threads=2)
        assert load_intervals(csv_path) == load_intervals(jsonl_path)

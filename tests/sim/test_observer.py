"""The observer contract: one event stream, whatever engine runs it.

A recording :class:`~repro.observer.Observer` attached through
:meth:`CmpSystem.attach` next to the runtime checkers hears every
submit, accept, command, arbitration, refresh, completion and fill.
Across pair and quad mixes, one and two channels, and four policies,
with tREFI shortened so refreshes land inside the run:

* the stream (sampling aside) is identical under both engines;
* its per-kind counts match the run's own totals and the checkers';
* a tracer sharing a :class:`~repro.observer.Fanout` with the checkers
  records exactly what a tracer attached alone records.
"""

import dataclasses

import pytest

from repro.check.harness import DEFAULT_WORKLOAD, QUAD_WORKLOAD
from repro.dram.timing import DDR2Timing
from repro.observer import Observer
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.telemetry import RunTelemetry
from repro.workloads.spec2000 import profile

CYCLES = 6_000
WARMUP = 1_500
TIMING = DDR2Timing(t_refi=3_000)
POLICIES = ("FR-FCFS", "FQ-VFTF", "BLISS", "MISE")


class Recorder(Observer):
    """Records every event; requests are numbered by first appearance.

    ``MemoryRequest.seq`` is a process-global counter that NACKed
    submit attempts also consume, and the cycle engine makes more of
    them, so it only keys the numbering and never enters the stream.
    """

    def __init__(self, system):
        self.events = []
        self._ids = {}
        self._channel_of = {id(dram): i for i, dram in enumerate(system.drams)}

    def _id(self, request):
        if request is None:
            return None
        return self._ids.setdefault(request.seq, len(self._ids))

    def on_submit(self, request, now):
        self.events.append(("submit", self._id(request), now))

    def on_accept(self, request, now):
        self.events.append(("accept", self._id(request), request.channel, now))

    def on_command(self, scheduler, cand, now):
        self.events.append((
            "command", self._channel_of[id(scheduler.dram)], cand.kind.name,
            cand.rank, cand.bank, cand.row, self._id(cand.request), now,
        ))

    def on_arbitration(self, now, ready):
        self.events.append(("arbitration", ready, now))

    def on_refresh(self, now):
        self.events.append(("refresh", now))

    def on_complete(self, request, now):
        self.events.append(("complete", self._id(request), now))

    def on_fill(self, thread, line, now):
        self.events.append(("fill", thread, line, now))

    def finalize(self, now):
        self.events.append(("finalize", now))


def _system(mix, channels, policy, engine, check):
    config = SystemConfig(
        num_cores=len(mix), policy=policy, num_channels=channels,
        engine=engine, timing=TIMING,
    )
    return CmpSystem(config, [profile(name) for name in mix], check=check)


def _traced_fields(telemetry):
    log = telemetry.bank_log
    return (
        [dataclasses.asdict(sample) for sample in telemetry.samples()],
        telemetry.summary(),
        [(bank, log.events(*bank)) for bank in log.banks()],
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("mix", [DEFAULT_WORKLOAD, QUAD_WORKLOAD], ids=["pair", "quad"])
def test_observer_contract(mix, channels, policy):
    streams = {}
    for engine in ("cycle", "event"):
        system = _system(mix, channels, policy, engine, check=True)
        recorder = Recorder(system)
        system.attach(recorder)
        telemetry = None
        if engine == "event":
            telemetry = RunTelemetry(system)
            system.attach(telemetry)
        system.run(CYCLES, warmup=WARMUP)
        streams[engine] = recorder.events

        kinds = {}
        for event in recorder.events:
            kinds[event[0]] = kinds.get(event[0], 0) + 1
        commands = sum(
            sum(c.stats.commands_issued.values()) for c in system.controllers
        )
        accepted = sum(sum(c.stats.requests_accepted) for c in system.controllers)
        refreshes = sum(dram.refresh_count for dram in system.drams)
        checked = system.check_summary()
        assert kinds["command"] == commands == checked["commands_checked"]
        assert kinds["arbitration"] == commands
        assert kinds["accept"] == accepted
        assert kinds["complete"] == checked["requests_completed"]
        assert kinds.get("refresh", 0) == refreshes == checked["refreshes_checked"]
        assert refreshes >= channels
        assert kinds["finalize"] == 1

        if telemetry is not None:
            alone = _system(mix, channels, policy, engine, check=False)
            reference = RunTelemetry(alone)
            alone.attach(reference)
            alone.run(CYCLES, warmup=WARMUP)
            assert _traced_fields(telemetry) == _traced_fields(reference)

    assert streams["event"] == streams["cycle"]

"""Property-based fuzzing of the controller against the DRAM model.

Arbitrary request streams drive the controller with a
:class:`~repro.check.RunChecker` attached, so the independent protocol
sanitizer sees every command and every refresh: every command sequence
any policy emits must satisfy every bank, rank, and channel constraint,
refresh included, and every accepted request must eventually complete
(no starvation, no lost requests).  The same streams check the wake-up
contract: a controller never sleeps through a cycle at which some bank
offers a ready command.
"""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import RunChecker
from repro.controller.address_map import AddressMap
from repro.controller.controller import CommandLog, MemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import get_policy
from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing
from repro.observer import Fanout

AMAP = AddressMap()

#: Just above tRFC (510), so most streams run into a refresh.
T_REFI = 600

#: Arrivals every 30 cycles across every bank, past ``T_REFI``.
CROSSING_STREAM = [(i % 2, i % 8, i % 4, i, i % 3 == 0, 30) for i in range(24)]

request_strategy = st.tuples(
    st.integers(0, 1),                      # thread
    st.integers(0, 7),                      # bank
    st.integers(0, 3),                      # row
    st.integers(0, 31),                     # column
    st.booleans(),                          # is_write
    st.integers(0, 30),                     # arrival gap
)


def _drive(controller, stream, after_tick):
    """Feed ``stream`` and tick every cycle until everything completes.

    ``after_tick(now)`` runs after each tick.  Returns the first cycle
    not ticked.
    """
    accepted = []
    now = 0
    pending = list(stream)
    while pending or not all(
        r.done and r.completed_at < now for r in accepted
    ):
        while pending and pending[0][5] <= 0:
            thread, bank, row, column, is_write, _ = pending.pop(0)
            request = MemoryRequest(
                thread_id=thread,
                kind=RequestKind.WRITE if is_write else RequestKind.READ,
                address=AMAP.encode(0, bank, row, column),
                arrival_time=now,
            )
            if controller.try_enqueue(request):
                accepted.append(request)
        if pending:
            head = pending[0]
            pending[0] = head[:5] + (head[5] - 1,)
        controller.tick(now)
        after_tick(now)
        now += 1
        assert now < 500_000, "requests starved"
    return now


@pytest.mark.parametrize("policy", ["FR-FCFS", "FR-VFTF", "FQ-VFTF"])
@given(stream=st.lists(request_strategy, min_size=1, max_size=40))
@example(stream=CROSSING_STREAM)
@settings(max_examples=25, deadline=None)
def test_no_timing_violations_and_all_complete(policy, stream):
    timing = DDR2Timing(t_refi=T_REFI)
    dram = DramSystem(timing, enable_refresh=True)
    controller = MemoryController(
        dram, AMAP, num_threads=2, policy=get_policy(policy)
    )
    checker = RunChecker(controller)
    log = CommandLog()
    controller.observer = Fanout(checker, log)
    # Every tick raises on a protocol violation.
    now = _drive(controller, stream, lambda now: None)
    # Liveness: every accepted request finished and freed its buffer.
    for extra in range(5):
        controller.tick(now + extra)
    assert controller.buffers.total_occupancy() == 0
    checker.finalize(now + 5)
    assert checker.protocol.commands_checked == len(log.entries)
    assert checker.protocol.refreshes_checked == dram.refresh_count
    # No row opens once a refresh is due until one has started, so a
    # stream that activated past the first deadline must have refreshed.
    if any(
        c.kind is CommandType.ACTIVATE and c.cycle >= T_REFI
        for c in log.entries
    ):
        assert dram.refresh_count >= 1


@given(
    stream=st.lists(request_strategy, min_size=5, max_size=30),
    seed_policy=st.sampled_from(["FR-FCFS", "FQ-VFTF"]),
)
@settings(max_examples=15, deadline=None)
def test_fcfs_no_thread_starves_within_queue(stream, seed_policy):
    """Completion order sanity: a request never waits for more than the
    whole rest of the accepted queue plus bounded bank service."""
    dram = DramSystem(DDR2Timing(), enable_refresh=False)
    controller = MemoryController(dram, AMAP, 2, policy=get_policy(seed_policy))
    accepted = []
    for thread, bank, row, column, is_write, _ in stream:
        request = MemoryRequest(
            thread_id=thread,
            kind=RequestKind.WRITE if is_write else RequestKind.READ,
            address=AMAP.encode(0, bank, row, column),
            arrival_time=0,
        )
        if controller.try_enqueue(request):
            accepted.append(request)
    now = 0
    while not all(r.done for r in accepted):
        controller.tick(now)
        now += 1
        assert now < 200_000
    worst = max(r.completed_at for r in accepted)
    # Generous bound: full conflict service per request, serialized.
    per_request = dram.timing.t_rc + dram.timing.t_rp + dram.timing.burst
    assert worst <= len(accepted) * per_request + 1000


@pytest.mark.parametrize(
    "policy, write_drain",
    [("FR-FCFS", "fcfs"), ("FR-VFTF", "fcfs"), ("FQ-VFTF", "fcfs"),
     ("FQ-VFTF", "watermark")],
)
@given(stream=st.lists(request_strategy, min_size=1, max_size=30))
@example(stream=CROSSING_STREAM)
@settings(max_examples=15, deadline=None)
def test_sleep_skips_only_cycles_without_a_ready_command(
    policy, write_drain, stream
):
    """After every tick, no cycle strictly between ``now`` and
    ``_sleep_until`` has a ready candidate.  Each new sleep is probed
    cycle by cycle on a deep copy of the controller, asking every bank
    scheduler directly, with no cached bound in the way."""
    dram = DramSystem(DDR2Timing(t_refi=T_REFI), enable_refresh=True)
    controller = MemoryController(
        dram, AMAP, num_threads=2, policy=get_policy(policy),
        write_drain=write_drain,
    )
    probed = [None]

    def probe(now):
        sleep = controller._sleep_until
        stats = controller.stats
        # A window needs probing again only once the sleep or the queued
        # and issued work changed; completions move no readiness.
        state = (sleep, sum(stats.requests_accepted), sum(stats.command_counts))
        if sleep <= now + 1 or state == probed[0]:
            return
        probed[0] = state
        frozen = copy.deepcopy(controller)
        for t in range(now + 1, sleep):
            draining = frozen.dram.refresh_due(t)
            for scheduler in frozen.bank_schedulers:
                cand = scheduler.candidate(t, draining)
                assert cand is None or not cand.ready, (
                    f"slept through a ready {cand.kind.name} on bank "
                    f"{cand.bank} at {t} (tick {now}, sleep until {sleep})"
                )

    _drive(controller, stream, probe)

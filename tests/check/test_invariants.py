"""SchedulerInvariantChecker: clean runs pass, broken invariants fire."""

import pytest

from repro.check import InvariantViolation
from repro.controller.bank_scheduler import CandidateCommand
from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.commands import CommandType
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2000 import profile


def checked_system(policy, cores=2):
    config = SystemConfig(policy=policy, num_cores=cores, seed=0)
    profiles = [profile(name) for name in ("vpr", "art")[:cores]]
    return CmpSystem(config, profiles, check=True)


def make_request(thread_id=0, bank=0, seq=None, vft=0.0, arrival=0):
    """A read to row 0 of ``bank``; ``vft`` is the request's VFT stamp."""
    request = MemoryRequest(
        thread_id=thread_id,
        kind=RequestKind.READ,
        address=0,
        arrival_time=arrival,
        bank=bank,
        virtual_finish_time=vft,
    )
    if seq is not None:
        request.seq = seq
    return request


def cas_for(request, now=0):
    return CandidateCommand(
        kind=CommandType.READ,
        rank=request.rank,
        bank=request.bank,
        row=request.row,
        ready=True,
        key=(0,),
        request=request,
        charge_thread=request.thread_id,
        charge_arrival=float(request.arrival_time),
    )


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ["FR-FCFS", "FR-VFTF", "FQ-VFTF"])
    def test_real_run_satisfies_all_invariants(self, policy):
        system = checked_system(policy)
        system.run(30_000)  # run() calls finalize(); any violation raises
        counters = system.check_summary()
        assert counters["commands_checked"] > 0
        assert counters["requests_accepted"] > 0
        assert counters["requests_completed"] > 0
        assert counters["requests_completed"] <= counters["requests_retired"]

    def test_inversion_check_active_only_under_fq_bank_rule(self):
        fq = checked_system("FQ-VFTF").checkers[0].invariants
        frfcfs = checked_system("FR-FCFS").checkers[0].invariants
        assert fq.check_inversion
        assert not frfcfs.check_inversion

    def test_inversion_bound_defaults_to_tras(self):
        system = checked_system("FQ-VFTF")
        checker = system.checkers[0].invariants
        assert checker.inversion_bound == system.controller.dram.timing.t_ras


class TestConservation:
    def test_duplicate_accept(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        request = make_request()
        inv.on_accept(request, 100)
        with pytest.raises(InvariantViolation) as info:
            inv.on_accept(request, 101)
        assert info.value.invariant == "conservation"

    def test_cas_for_request_never_accepted(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        with pytest.raises(InvariantViolation) as info:
            inv.on_command(cas_for(make_request()), 100)
        assert info.value.invariant == "conservation"

    def test_spurious_completion(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        request = make_request()
        request.completed_at = 90
        with pytest.raises(InvariantViolation) as info:
            inv.on_complete(request, 100)
        assert info.value.invariant == "conservation"

    def test_delivery_before_data_transfer(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        request = make_request()
        inv.on_accept(request, 10)
        inv.on_command(cas_for(request), 20)
        request.completed_at = 300  # data lands after the delivery cycle
        with pytest.raises(InvariantViolation) as info:
            inv.on_complete(request, 200)
        assert info.value.invariant == "conservation"

    def test_finalize_catches_unbalanced_ledger(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        inv.accepted = 5  # claim traffic the event stream never showed
        with pytest.raises(InvariantViolation) as info:
            inv.finalize(1000)
        assert info.value.invariant == "conservation"


class TestMonotonicity:
    def test_vft_register_decrease(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = system.checkers[0].invariants
        thread = system.controller.vtms[0]
        assert thread.bank_finish[0] > 0.0  # the run produced traffic
        thread.bank_finish[0] -= 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_vft_registers(0, system.now)
        assert info.value.invariant == "vft-monotone"

    def test_channel_register_decrease(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = system.checkers[0].invariants
        thread = system.controller.vtms[0]
        assert thread.channel_finish > 0.0
        thread.channel_finish -= 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_vft_registers(0, system.now)
        assert info.value.invariant == "vft-monotone"

    def test_virtual_clock_backwards(self):
        system = checked_system("FQ-VFTF")
        system.run(30_000)
        inv = system.checkers[0].invariants
        assert inv._clock_shadow > 0.0
        # The live clock may have advanced past the last observation, so
        # rewind it below the checker's shadow to model a backwards step.
        system.controller.vtms.clock = inv._clock_shadow - 1.0
        with pytest.raises(InvariantViolation) as info:
            inv._check_clocks(system.now)
        assert info.value.invariant == "virtual-clock"


class TestBoundedInversion:
    """The checker keys pending requests from the VTMS registers."""

    def _committed(self):
        """A checked FQ-VFTF controller whose bank (0, 0) is committed.

        Thread 1 has consumed bank 0 service, so its registers put its
        VFT far behind thread 0's: ``laggard`` arrived first and carries
        the lower VFT stamp, yet ``urgent`` has the earliest VFT.
        """
        system = checked_system("FQ-VFTF")
        inv = system.checkers[0].invariants
        for _ in range(10):
            system.controller.vtms[1].on_command_issued(
                CommandType.READ, 0, arrival=0.0
            )
        laggard = make_request(thread_id=1, vft=10.0, arrival=0)
        urgent = make_request(thread_id=0, vft=50.0, arrival=1)
        inv.on_accept(laggard, 10)
        inv.on_accept(urgent, 11)
        view = inv.banks[(0, 0)]
        view.open = True
        view.last_activate = 100
        return inv, urgent, laggard

    def test_committed_bank_must_serve_earliest_vft(self):
        inv, urgent, laggard = self._committed()
        now = 100 + inv.inversion_bound  # the bank is committed
        with pytest.raises(InvariantViolation) as info:
            inv.on_command(cas_for(laggard), now)
        assert info.value.invariant == "bounded-inversion"

    def test_before_the_bound_any_order_is_legal(self):
        inv, urgent, laggard = self._committed()
        inv.on_command(cas_for(laggard), 100 + inv.inversion_bound - 1)
        assert inv.retired == 1

    def test_committed_bank_serving_earliest_is_legal(self):
        inv, urgent, laggard = self._committed()
        inv.on_command(cas_for(urgent), 100 + inv.inversion_bound)
        assert inv.retired == 1

    def test_key_follows_the_live_bank_row(self):
        # Table 3: with row 0 open, thread 0's request is a row hit and
        # its VFT falls below a closed-bank estimate.
        system = checked_system("FQ-VFTF")
        inv = system.checkers[0].invariants
        request = make_request(thread_id=0)
        closed = inv._priority_key(request)
        system.controller.dram.issue(CommandType.ACTIVATE, 0, 0, 0, 0)
        assert inv._priority_key(request) < closed


class TestAcceptOrder:
    def test_thread_accepts_must_rise_in_arrival_seq_order(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        first = make_request(thread_id=0, arrival=5)
        older = make_request(thread_id=0, arrival=4)
        inv.on_accept(first, 10)
        with pytest.raises(InvariantViolation) as info:
            inv.on_accept(older, 11)
        assert info.value.invariant == "accept-order"

    def test_equal_arrival_needs_a_larger_seq(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        inv.on_accept(make_request(thread_id=0, arrival=5, seq=20), 10)
        with pytest.raises(InvariantViolation) as info:
            inv.on_accept(make_request(thread_id=0, arrival=5, seq=19), 10)
        assert info.value.invariant == "accept-order"

    def test_other_threads_are_independent(self):
        inv = checked_system("FQ-VFTF").checkers[0].invariants
        inv.on_accept(make_request(thread_id=0, arrival=5), 10)
        inv.on_accept(make_request(thread_id=1, arrival=4), 10)
        assert inv.accepted == 2

    def test_arrival_accounting_vft_must_rise(self):
        inv = checked_system("FQ-VFTF-ARR").checkers[0].invariants
        inv.on_accept(make_request(thread_id=0, arrival=1, vft=300.0), 10)
        with pytest.raises(InvariantViolation) as info:
            inv.on_accept(make_request(thread_id=0, arrival=2, vft=300.0), 11)
        assert info.value.invariant == "accept-order"

    def test_real_arrival_accounting_run_is_in_order(self):
        system = checked_system("FQ-VFTF-ARR")
        system.run(20_000)  # any out-of-order accept raises
        assert system.check_summary()["requests_accepted"] > 0

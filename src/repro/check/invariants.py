"""Scheduler invariant checker: VTMS monotonicity, bounded inversion,
request conservation.

Observes the controller through the same event hooks as the protocol
sanitizer and asserts the fair-queuing properties the paper's
correctness argument rests on:

* **VFT register monotonicity** — each thread's per-bank and channel
  last-virtual-finish-time registers never decrease (they advance by
  ``max(arrival, R) + positive``, so any decrease is an accounting
  bug).
* **Virtual clock monotonicity** — the FQ real clock (which pauses
  during refresh) never runs backwards, including across idle
  fast-forward skips.
* **Bounded priority inversion** (paper §3.3) — under an FQ policy,
  once a bank has been continuously active for the inversion bound
  ``x`` (default t_RAS), any request-driven command issued on that
  bank must serve the earliest-virtual-finish-time request among the
  bank's pending requests.  The checker computes every pending
  request's key itself, from the thread's VTMS registers and the live
  bank's row state (Eqs 3 and 7 with Table 3's service times), rather
  than reading the VFT stamps the scheduler writes or calling its key
  function.
* **Accept order** — each thread's requests reach a controller in
  ``(arrival_time, seq)`` order and, under arrival accounting, with
  rising fixed VFTs (``C.R_i`` only grows).  The scheduler keys only
  each thread's oldest request per command kind, which is sound only
  in that order.
* **Request conservation** — every request the controller accepts is
  CAS-issued at most once and completes at most once; nothing
  completes that was never accepted, and the accept/issue/complete
  ledgers balance at the end of a run.

Violations raise :class:`InvariantViolation` naming the invariant and
the offending event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..dram.commands import CommandType
from .protocol import CheckError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..controller.bank_scheduler import CandidateCommand
    from ..controller.controller import MemoryController
    from ..controller.request import MemoryRequest


class InvariantViolation(CheckError):
    """A scheduler invariant was broken.

    Attributes:
        invariant: Short identifier of the violated property.
        cycle: Cycle of the offending event.
    """

    def __init__(self, invariant: str, message: str, cycle: int):
        self.invariant = invariant
        self.cycle = cycle
        super().__init__(
            f"scheduler invariant violation [{invariant}] at cycle "
            f"{cycle}: {message}"
        )


class _BankView:
    """The checker's own view of one bank's scheduling state."""

    __slots__ = ("open", "last_activate", "pending")

    def __init__(self) -> None:
        self.open = False
        self.last_activate = 0
        self.pending: Set["MemoryRequest"] = set()


class SchedulerInvariantChecker:
    """Asserts scheduler invariants for one memory controller.

    The checker only *reads* controller state (policy flags, VTMS
    registers, the banks' open rows); all other bookkeeping it bases
    verdicts on is derived from the observed event stream.
    """

    def __init__(self, controller: "MemoryController"):
        self.controller = controller
        self.policy = controller.policy
        self.vtms = controller.vtms
        self.dram = controller.dram
        num_banks = controller.dram.num_banks
        self.banks: Dict[Tuple[int, int], _BankView] = {
            (rank, bank): _BankView()
            for rank in range(controller.dram.num_ranks)
            for bank in range(num_banks)
        }
        #: The FQ bank rule's bound x, resolved the way the controller
        #: resolves it (explicit override, else t_RAS).
        bound = self.policy.inversion_bound
        if bound is None:
            bound = controller.dram.timing.t_ras
        self.inversion_bound = bound
        #: The §3.3 bounded-inversion invariant arms only for the
        #: FQ family — policies running the bank-commit rule.  Other
        #: policies (FR-FCFS, FR-VFTF, BLISS, MISE) permit unbounded
        #: inversion by design.  It also needs the scheduler's visible
        #: queue to equal the accepted-minus-retired set, which holds
        #: only under the paper's FCFS write scheduling (watermark
        #: draining hides writes from the queue).
        self.check_inversion = (
            self.policy.fq_family and controller.write_drain == "fcfs"
        )
        #: Thread -> ``(arrival_time, seq, virtual_finish_time)`` of its
        #: last accept (the accept-order invariant).
        self._last_accept: Dict[int, Tuple[int, int, float]] = {}
        # Conservation ledgers (request seq -> lifecycle stage).
        self._pending_seqs: Set[int] = set()
        self._inflight_seqs: Set[int] = set()
        self.accepted = 0
        self.retired = 0
        self.completed = 0
        # Monotonicity shadows.
        self._clock_shadow = 0.0
        self._bank_finish_shadow: List[List[float]] = []
        self._channel_finish_shadow: List[float] = []
        if self.vtms is not None:
            self._bank_finish_shadow = [
                [0.0] * num_banks * controller.dram.num_ranks
                for _ in range(len(self.vtms))
            ]
            self._channel_finish_shadow = [0.0] * len(self.vtms)

    # -- priority key (independent re-derivation) --------------------------

    def _priority_key(self, request: "MemoryRequest") -> Tuple:
        """Re-derive the policy ordering key from the VTMS registers.

        Mirrors the *specification* of :meth:`repro.core.policies.
        Policy.request_key` without calling the scheduler: the VST is
        Eq 3, ``max(Ra, B_j.R)``, and the VFT Eq 7,
        ``max(VST + B.L/φ, C.R) + C.L/φ``, over the thread's registers
        now, with ``B.L`` the Table 3 service time of the live bank's
        row state.  Arrival accounting's VFT is the one the controller
        fixed at accept.  A scheduler keying from stale or wrong
        estimates therefore shows up as a disagreement here.
        """
        policy = self.policy
        if not policy.uses_vtms:
            return (request.arrival_time, request.seq)
        if policy.arrival_accounting:
            vft = request.virtual_finish_time
        else:
            thread = self.vtms[request.thread_id]  # type: ignore[index]
            dram = self.dram
            index = request.rank * dram.num_banks + request.bank
            start = max(thread.oldest_arrival, thread.bank_finish[index])
            if policy.start_time_priority:
                return (start, request.arrival_time, request.seq)
            open_row = dram.bank(request.rank, request.bank).open_row
            timing = dram.timing
            if open_row is None:
                service = timing.service_closed
            elif open_row == request.row:
                service = timing.service_row_hit
            else:
                service = timing.service_conflict
            share = thread.share
            vft = max(start + service / share, thread.channel_finish)
            vft += timing.burst * (1.0 / share)
        return (vft, request.arrival_time, request.seq)

    # -- shared monotonicity checks ----------------------------------------

    def _check_clocks(self, now: int) -> None:
        if self.vtms is None:
            return
        clock = self.vtms.clock
        if clock < self._clock_shadow:
            raise InvariantViolation(
                "virtual-clock",
                f"FQ real clock moved backwards: {clock} < "
                f"{self._clock_shadow}",
                now,
            )
        self._clock_shadow = clock

    def _check_vft_registers(self, thread_id: int, now: int) -> None:
        if self.vtms is None:
            return
        thread = self.vtms[thread_id]
        shadows = self._bank_finish_shadow[thread_id]
        for bank, value in enumerate(thread.bank_finish):
            if value < shadows[bank]:
                raise InvariantViolation(
                    "vft-monotone",
                    f"thread {thread_id} bank {bank} finish-time register "
                    f"decreased: {value} < {shadows[bank]}",
                    now,
                )
            shadows[bank] = value
        if thread.channel_finish < self._channel_finish_shadow[thread_id]:
            raise InvariantViolation(
                "vft-monotone",
                f"thread {thread_id} channel finish-time register "
                f"decreased: {thread.channel_finish} < "
                f"{self._channel_finish_shadow[thread_id]}",
                now,
            )
        self._channel_finish_shadow[thread_id] = thread.channel_finish

    # -- observation hooks -------------------------------------------------

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        seq = request.seq
        if seq in self._pending_seqs or seq in self._inflight_seqs:
            raise InvariantViolation(
                "conservation",
                f"request seq={seq} accepted twice",
                now,
            )
        order = (request.arrival_time, seq, request.virtual_finish_time)
        last = self._last_accept.get(request.thread_id)
        if last is not None and (
            order[:2] <= last[:2]
            or self.policy.arrival_accounting and order[2] <= last[2]
        ):
            raise InvariantViolation(
                "accept-order",
                f"thread {request.thread_id} accepted (arrival_time, seq, "
                f"fixed VFT) {order} after {last}",
                now,
            )
        self._last_accept[request.thread_id] = order
        self._pending_seqs.add(seq)
        self.accepted += 1
        self.banks[(request.rank, request.bank)].pending.add(request)
        self._check_clocks(now)
        self._check_vft_registers(request.thread_id, now)

    def on_command(self, cand: "CandidateCommand", now: int) -> None:
        view = self.banks[(cand.rank, cand.bank)]
        request = cand.request

        if (
            self.check_inversion
            and request is not None
            and view.open
            and now - view.last_activate >= self.inversion_bound
        ):
            # Committed mode: the bank must serve the earliest-VFT
            # pending request, whatever command that request needs.
            expected = min(view.pending, key=self._priority_key)
            if request is not expected:
                raise InvariantViolation(
                    "bounded-inversion",
                    f"bank ({cand.rank},{cand.bank}) active "
                    f"{now - view.last_activate} >= bound "
                    f"{self.inversion_bound} cycles but issued "
                    f"{cand.kind.value} for seq={request.seq} "
                    f"(key={self._priority_key(request)}) instead of "
                    f"seq={expected.seq} "
                    f"(key={self._priority_key(expected)})",
                    now,
                )

        if cand.kind is CommandType.ACTIVATE:
            view.open = True
            view.last_activate = now
        elif cand.kind is CommandType.PRECHARGE:
            view.open = False

        if cand.kind.is_cas and request is not None:
            seq = request.seq
            if seq not in self._pending_seqs:
                raise InvariantViolation(
                    "conservation",
                    f"CAS issued for seq={seq} which is not pending "
                    f"(duplicate issue or never accepted)",
                    now,
                )
            self._pending_seqs.discard(seq)
            self._inflight_seqs.add(seq)
            self.retired += 1
            view.pending.discard(request)

        self._check_clocks(now)
        if cand.charge_thread is not None:
            self._check_vft_registers(cand.charge_thread, now)

    def on_refresh(self, now: int) -> None:
        for view in self.banks.values():
            view.open = False
        self._check_clocks(now)

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        seq = request.seq
        if seq not in self._inflight_seqs:
            raise InvariantViolation(
                "conservation",
                f"completion for seq={seq} with no CAS in flight "
                f"(duplicate or spurious completion)",
                now,
            )
        if request.completed_at is None or request.completed_at > now:
            raise InvariantViolation(
                "conservation",
                f"seq={seq} delivered at {now} before its data completed "
                f"(completed_at={request.completed_at})",
                now,
            )
        self._inflight_seqs.discard(seq)
        self.completed += 1

    def finalize(self, now: int) -> None:
        """End-of-run balance: accepted == retired + still pending."""
        if self.accepted != self.retired + len(self._pending_seqs):
            raise InvariantViolation(
                "conservation",
                f"{self.accepted} accepted != {self.retired} retired + "
                f"{len(self._pending_seqs)} still pending",
                now,
            )
        if self.retired != self.completed + len(self._inflight_seqs):
            raise InvariantViolation(
                "conservation",
                f"{self.retired} retired != {self.completed} completed + "
                f"{len(self._inflight_seqs)} in flight",
                now,
            )

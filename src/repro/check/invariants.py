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
  bank's pending requests.  The checker re-derives the priority key
  from the request fields rather than calling the scheduler's key
  function.
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
    registers); all bookkeeping it bases verdicts on is derived from
    the observed event stream.
    """

    def __init__(self, controller: "MemoryController"):
        self.controller = controller
        self.policy = controller.policy
        self.vtms = controller.vtms
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
        """Re-derive the policy ordering key from request fields.

        Mirrors the *specification* of :meth:`repro.core.policies.
        Policy.request_key` without calling it, so a bug in the
        scheduler's memoized key path shows up as a disagreement here.
        """
        if self.policy.uses_vtms:
            if self.policy.start_time_priority:
                return (
                    request.virtual_start_time,
                    request.arrival_time,
                    request.seq,
                )
            return (
                request.virtual_finish_time,
                request.arrival_time,
                request.seq,
            )
        return (request.arrival_time, request.seq)

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

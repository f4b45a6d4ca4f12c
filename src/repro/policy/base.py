"""The pluggable scheduling-policy protocol.

Every memory-scheduling policy — the paper's three schedulers, the
ablation variants, and the post-paper additions (BLISS, MISE) — is a
:class:`SchedulingPolicy`.  The controller and the bank/channel
schedulers dispatch through this protocol only; nothing outside this
package may assume a concrete policy class.

A policy contributes up to four things:

1. **A priority key** (:meth:`SchedulingPolicy.request_key`): the
   per-request ordering tuple, lower = higher priority.  It must be a
   per-thread prefix followed by ``(arrival_time, seq)``: the prefix
   may read only the request's thread, policy state and the VTMS
   stamps (``virtual_start_time``/``virtual_finish_time``), which the
   bank scheduler writes from live registers just before each call
   and which agree for a thread's requests of one Table 3 row class.
   The bank scheduler relies on that shape: it keys only each
   thread's oldest request per command kind, afresh on every pass.
   The ``key_over_cas`` class flag shapes how the schedulers consume
   the key: False (default) keeps Rixner's CAS-over-RAS level above
   it; True ranks the policy key *above* the CAS-over-RAS preference
   (BLISS: a non-blacklisted thread's activate beats a blacklisted
   thread's ready row hit).  Ready commands always rank above
   not-ready ones.

2. **Lifecycle hooks** (``on_arrival`` / ``on_issue`` /
   ``on_complete``) and a per-cycle **epoch hook** (``on_cycle``),
   dispatched by the controller when ``has_hooks`` is True.  Hooks
   observe and update *policy-owned* state only; they must never touch
   controller or DRAM state.

3. **An event-engine wake time** (:meth:`next_event_time`).  The
   event engine only calls ``tick`` (and therefore ``on_cycle``) at
   stepped cycles, so a policy whose state changes at interval
   boundaries MUST publish each boundary here; the controller folds it
   into its own wake time and the engine steps that cycle.  The
   obligations mirror the rest of the engine contract: the answer may
   be conservative (too early just steps a no-op cycle) but never too
   late, and ``on_cycle`` must be a no-op at non-boundary cycles so
   the per-cycle oracle (which calls it every cycle) stays
   bit-identical to the event engine (which calls it only at stepped
   cycles).

4. **An optional bank-commit rule** (``fq_bank_rule`` plus
   ``inversion_bound``): the paper's §3.3 bounded-priority-inversion
   behaviour.  Policies in this family (``fq_family``) arm the
   :mod:`repro.check` inversion invariant.

Determinism contract: policy state may only depend on simulated cycles
and observed simulator events — importing ``time``, ``datetime`` or
``random`` anywhere under ``repro/policy/`` is a DET007 lint error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycle)
    from ..controller.bank_scheduler import CandidateCommand
    from ..controller.request import MemoryRequest


class SchedulingPolicy:
    """Base class and protocol for memory-scheduler priority policies.

    Subclasses override :meth:`request_key` (required) and whichever
    flags and hooks their mechanism needs.  The defaults describe the
    simplest possible policy: stateless, no VTMS, no bank-commit rule,
    no hooks.
    """

    #: Short identifier used in reports and the result cache.
    name: str = "?"
    #: Whether request keys come from VTMS virtual finish/start times
    #: (the controller builds per-thread VTMS state when True).
    uses_vtms: bool = False
    #: Whether the §3.3 bounded-inversion bank-commit rule is active.
    fq_bank_rule: bool = False
    #: The bound ``x`` in cycles; ``None`` selects t_RAS at scheduler
    #: construction time (the paper's choice).
    inversion_bound: Optional[int] = None
    #: Paper §3.2 solution 1: finish-times fixed at arrival.
    arrival_accounting: bool = False
    #: Paper §2.3: earliest virtual *start*-time priority.
    start_time_priority: bool = False
    #: True ranks the policy key above the CAS-over-RAS preference.
    key_over_cas: bool = False
    #: True when the controller must dispatch the lifecycle/epoch hooks
    #: below; False keeps the hook sites at one pointer test each.
    has_hooks: bool = False

    @property
    def fq_family(self) -> bool:
        """True for policies with the §3.3 bank-commit rule.

        The :mod:`repro.check` inversion invariant arms only for this
        family; other policies have no bounded-inversion obligation.
        """
        return self.fq_bank_rule

    def key_field_names(self) -> Tuple[str, ...]:
        """Labels for the components of :meth:`request_key`, in order.

        Used by telemetry to annotate lifecycle records' priority keys
        and by reports; purely descriptive.
        """
        return ("arrival_time", "seq")

    def request_key(self, request: "MemoryRequest") -> Tuple:
        """Ordering key — lower compares as higher priority.

        A per-thread prefix, then ``(arrival_time, seq)``; see the
        module docstring.
        """
        raise NotImplementedError

    # -- lifecycle hooks (dispatched only when ``has_hooks``) --------------

    def on_arrival(self, request: "MemoryRequest", now: int) -> None:
        """The controller accepted ``request`` at cycle ``now``."""

    def on_issue(self, cand: "CandidateCommand", now: int) -> None:
        """The channel scheduler issued ``cand`` at cycle ``now``."""

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        """``request``'s data finished on the bus at cycle ``now``."""

    def on_cycle(self, now: int) -> None:
        """Top-of-tick epoch hook for interval-based policies.

        Called every controller tick.  Must be a no-op except at the
        boundaries published by :meth:`next_event_time` — the event
        engine only steps those cycles, and both engines must observe
        identical policy state.
        """

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle at which :meth:`on_cycle` does work.

        ``None`` means the policy never needs a wake-up of its own.
        A conservative (early) answer is safe; a late one breaks the
        event engine's bit-identity with the per-cycle oracle.

        The answer must be an **absolute** cycle number derived from
        policy state, not an offset from ``now``: the sharded wake
        index caches it per channel until the controller next ticks,
        so two calls with different ``now`` values between the same
        pair of ticks must return the same boundary.
        """
        return None

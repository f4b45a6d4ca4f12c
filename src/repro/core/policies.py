"""Scheduling priority policies: FR-FCFS, FR-VFTF, FQ-VFTF.

All three share the first two priority levels from Rixner et al.:
(1) ready commands before not-ready commands, (2) CAS commands before
RAS commands.  They differ in the third level — the per-request
ordering key — and in whether the bounded-priority-inversion FQ bank
rule (paper §3.3) is active:

* **FR-FCFS** orders by earliest arrival time.
* **FR-VFTF** orders by earliest virtual finish-time (VTMS), but keeps
  pure first-ready bank scheduling, so it remains vulnerable to bank
  priority chaining.
* **FQ-VFTF** orders by earliest virtual finish-time *and* bounds bank
  priority-inversion: once a bank has been active for ``x`` cycles
  (default x = t_RAS) the bank scheduler commits to the earliest-VFT
  request and waits for its first command to become ready.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..controller.request import MemoryRequest
from ..policy.base import SchedulingPolicy


@dataclass(frozen=True)
class Policy(SchedulingPolicy):
    """A paper-policy instance of the :class:`SchedulingPolicy` protocol.

    The five paper policies (and the bounded ablation variant) are all
    stateless value objects of this one dataclass: keys read only
    request fields and the VTMS stamps the bank scheduler writes just
    before each call, no hooks are needed, and the flags below select
    the behaviour.

    Attributes:
        name: Short identifier used in reports ("FR-FCFS", ...).
        uses_vtms: Whether request keys come from VTMS finish-times.
        fq_bank_rule: Whether the bounded-inversion bank rule is on.
        inversion_bound: The bound ``x`` in cycles; ``None`` selects the
            paper's choice of t_RAS at scheduler construction time.
    """

    name: str
    uses_vtms: bool = False
    fq_bank_rule: bool = False
    inversion_bound: Optional[int] = None
    #: Paper §3.2 solution 1: compute finish-times at arrival assuming
    #: an average bank service, instead of deferring to schedule time.
    arrival_accounting: bool = False
    #: Paper §2.3: prioritize earliest virtual *start*-time instead of
    #: earliest virtual finish-time (VirtualClock-style).
    start_time_priority: bool = False

    def key_field_names(self) -> Tuple[str, ...]:
        if self.uses_vtms:
            if self.start_time_priority:
                return ("virtual_start_time", "arrival_time", "seq")
            return ("virtual_finish_time", "arrival_time", "seq")
        return ("arrival_time", "seq")

    def request_key(self, request: MemoryRequest) -> Tuple:
        """Ordering key — lower compares as higher priority."""
        if self.uses_vtms:
            if self.start_time_priority:
                return (
                    request.virtual_start_time,
                    request.arrival_time,
                    request.seq,
                )
            return (request.virtual_finish_time, request.arrival_time, request.seq)
        return (request.arrival_time, request.seq)


FR_FCFS = Policy(name="FR-FCFS")
FR_VFTF = Policy(name="FR-VFTF", uses_vtms=True)
FQ_VFTF = Policy(name="FQ-VFTF", uses_vtms=True, fq_bank_rule=True)
#: The paper's §3.2 "first solution": finish-times fixed at arrival
#: from an assumed average bank service.  Evaluated as an ablation.
FQ_VFTF_ARR = Policy(
    name="FQ-VFTF-ARR",
    uses_vtms=True,
    fq_bank_rule=True,
    arrival_accounting=True,
)
#: §2.3's alternative discipline: earliest virtual start-time first.
FQ_VSTF = Policy(
    name="FQ-VSTF",
    uses_vtms=True,
    fq_bank_rule=True,
    start_time_priority=True,
)

#: The paper's own policies, by name.  The full runtime registry —
#: which also holds BLISS, MISE, and anything user-registered — lives
#: in :mod:`repro.policy.registry`; this dict stays paper-only.
POLICIES = {p.name: p for p in (FR_FCFS, FR_VFTF, FQ_VFTF, FQ_VFTF_ARR, FQ_VSTF)}


def get_policy(name: str) -> Policy:
    """Look up a *paper* policy by name (case-insensitive).

    For the full registry (paper + post-paper + user-registered
    policies) use :func:`repro.policy.resolve` instead.
    """
    key = name.upper().replace("_", "-")
    if key not in POLICIES:
        raise KeyError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        )
    return POLICIES[key]


def fq_vftf_with_bound(inversion_bound: int) -> Policy:
    """FQ-VFTF with an explicit priority-inversion bound (ablation A)."""
    if inversion_bound < 0:
        raise ValueError(f"inversion bound must be >= 0, got {inversion_bound}")
    return Policy(
        name=f"FQ-VFTF(x={inversion_bound})",
        uses_vtms=True,
        fq_bank_rule=True,
        inversion_bound=inversion_bound,
    )

"""repro.check — independent runtime cross-checks of the simulator.

Three layers, all deliberately re-implemented rather than shared with
the code they check:

* :mod:`repro.check.protocol` — a DDR2 protocol sanitizer that
  validates every issued command against its own timing ledger.
* :mod:`repro.check.invariants` — a scheduler invariant checker for
  the fair-queuing properties (VFT monotonicity, virtual-clock
  monotonicity, bounded priority inversion, request conservation).
* the DET rules of :mod:`repro.lint` — a static determinism lint run
  in CI (``repro-fqms lint``; not imported here).

Checks are opt-in: pass ``--check`` on the CLI or set ``REPRO_CHECK=1``
in the environment.  The environment variable is the propagation
mechanism — worker processes of the parallel experiment engine inherit
it, so checked runs stay checked across a process pool.  When enabled,
a :class:`RunChecker` attaches to each memory controller; when a check
fails the run dies immediately with a :class:`CheckError` subclass
carrying the offending event.

Checked and unchecked runs must be bit-identical: the checkers only
observe, never steer, and ``REPRO_CHECK`` is deliberately *not* part of
:class:`~repro.sim.config.SystemConfig` (so result-cache fingerprints
do not fork on it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .. import env
from .invariants import InvariantViolation, SchedulerInvariantChecker
from .protocol import CheckError, DramProtocolSanitizer, ProtocolViolation

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..controller.bank_scheduler import CandidateCommand
    from ..controller.controller import MemoryController
    from ..controller.request import MemoryRequest

__all__ = [
    "CheckError",
    "DramProtocolSanitizer",
    "InvariantViolation",
    "ProtocolViolation",
    "RunChecker",
    "SchedulerInvariantChecker",
    "checks_enabled",
]

#: Environment switch for the runtime checkers.
CHECK_ENV_VAR = "REPRO_CHECK"


def checks_enabled() -> bool:
    """True when runtime checking is requested via the environment.

    Any value other than the empty string, ``"0"``, or ``"false"``
    (case-insensitive) enables checking.
    """
    return env.flag(CHECK_ENV_VAR)


class RunChecker:
    """Protocol sanitizer + invariant checker for one memory controller.

    The controller calls the four observation hooks from its own event
    sites; each hook fans out to both layers.  All hooks raise a
    :class:`CheckError` subclass on the first violation.
    """

    def __init__(self, controller: "MemoryController"):
        dram = controller.dram
        self.protocol = DramProtocolSanitizer(
            dram.timing,
            num_ranks=dram.num_ranks,
            num_banks=dram.num_banks,
        )
        self.invariants = SchedulerInvariantChecker(controller)

    def on_accept(self, request: "MemoryRequest", now: int) -> None:
        self.invariants.on_accept(request, now)

    def on_command(self, cand: "CandidateCommand", now: int) -> None:
        self.protocol.on_command(cand.kind, cand.rank, cand.bank, cand.row, now)
        self.invariants.on_command(cand, now)

    def on_refresh(self, now: int) -> None:
        self.protocol.on_refresh(now)
        self.invariants.on_refresh(now)

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        self.invariants.on_complete(request, now)

    def finalize(self, now: int) -> None:
        """End-of-run invariants (request conservation balance)."""
        self.invariants.finalize(now)

    def summary(self) -> Dict[str, int]:
        """Counters proving the checkers actually saw traffic."""
        return {
            "commands_checked": self.protocol.commands_checked,
            "refreshes_checked": self.protocol.refreshes_checked,
            "requests_accepted": self.invariants.accepted,
            "requests_retired": self.invariants.retired,
            "requests_completed": self.invariants.completed,
        }

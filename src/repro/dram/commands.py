"""SDRAM command vocabulary.

The paper groups *read*/*write* as **CAS commands** and
*activate*/*precharge* as **RAS commands**; refresh is issued by the
controller's refresh engine, never by a bank scheduler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CommandType(enum.Enum):
    """The five SDRAM commands the model issues.

    ``is_cas`` (column / data-moving) and ``is_ras`` (row / bank
    management) are plain member attributes, not properties: the
    scheduler consults them on every candidate comparison, making them
    one of the hottest reads in the simulator.  ``slot`` is the
    member's definition index, so per-kind counters and tables can be
    lists indexed by it instead of dicts keyed by the member (hashing
    an enum member runs Python-level ``Enum.__hash__``).
    """

    # Bare annotations declare non-member instance attributes (filled
    # in below), so type checkers know every member carries them.
    is_cas: bool
    is_ras: bool
    slot: int

    ACTIVATE = "activate"
    PRECHARGE = "precharge"
    READ = "read"
    WRITE = "write"
    REFRESH = "refresh"


for _slot, _member in enumerate(CommandType):
    _member.slot = _slot
    _member.is_cas = _member in (CommandType.READ, CommandType.WRITE)
    _member.is_ras = _member in (CommandType.ACTIVATE, CommandType.PRECHARGE)
del _slot, _member


@dataclass
class Command:
    """A single SDRAM command bound for a specific bank.

    Attributes:
        kind: The command type.
        bank: Target bank index.
        row: Target row (activates and CAS bookkeeping).
        request: The memory request this command serves, if any.
            Refresh commands carry no request.
    """

    kind: CommandType
    bank: int
    row: int = 0
    request: Optional[object] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        req = f" req={self.request}" if self.request is not None else ""
        return f"<{self.kind.value} bank={self.bank} row={self.row}{req}>"

"""Memory request objects and their lifecycle.

A request is created by a core's cache hierarchy (a demand read miss
or a dirty-line writeback), mapped to (rank, bank, row, column) by the
address mapper, and held in the controller's transaction buffer until
its CAS command has issued to the SDRAM.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


class RequestKind(enum.Enum):
    """Demand read (fills a cache line) or writeback (evicted dirty line)."""

    READ = "read"
    WRITE = "write"


_sequence = itertools.count()


def _next_sequence() -> int:
    return next(_sequence)


@dataclass(eq=False)
class MemoryRequest:
    """One cache-line-sized memory transaction.

    Attributes:
        thread_id: Hardware thread (core) that generated the request.
        kind: Read or writeback.
        address: Physical byte address of the cache line.
        arrival_time: Cycle the request arrived at the memory controller.
        rank / bank / row / column: Decoded SDRAM coordinates.
        seq: Global monotonically increasing tie-breaker; two requests
            never compare equal under FCFS ordering.
        virtual_arrival: Arrival time on the FQ scheduler's real clock
            (which pauses during refresh periods).
        virtual_start_time / virtual_finish_time: VTMS start- and
            finish-time estimates (Eqs 3 and 7), stamped by
            :meth:`~repro.controller.bank_scheduler.BankScheduler.key`
            each time the bank scheduler keys the request, so they are
            current only right after a key; arrival accounting fixes
            the finish time at accept.
        cas_issued_at: Cycle the data-moving command issued, or None.
        completed_at: Cycle the last data beat transferred, or None.
    """

    thread_id: int
    kind: RequestKind
    address: int
    arrival_time: int
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    seq: int = field(default_factory=_next_sequence)
    #: True for hardware-prefetch reads: they move data and consume
    #: bandwidth like demand reads but are excluded from the demand
    #: read-latency statistics.
    prefetch: bool = False
    virtual_arrival: float = 0.0
    virtual_start_time: float = 0.0
    virtual_finish_time: float = 0.0
    cas_issued_at: Optional[int] = None
    completed_at: Optional[int] = None

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is RequestKind.WRITE

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def latency(self) -> int:
        """Cycles from controller arrival to data completion."""
        if self.completed_at is None:
            raise ValueError("request has not completed")
        return self.completed_at - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind.value} t{self.thread_id} addr={self.address:#x} "
            f"b{self.bank} r{self.row} @{self.arrival_time}>"
        )

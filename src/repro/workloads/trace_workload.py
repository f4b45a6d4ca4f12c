"""Trace-file-driven workloads.

The synthetic profiles stand in for the paper's proprietary SPEC
traces, but the simulator is equally happy replaying *recorded* traces
(the format of :mod:`repro.cpu.trace`).  A :class:`TraceWorkload`
wraps a trace file — or an in-memory record list — behind the same
interface :class:`~repro.workloads.synthetic.BenchmarkProfile`
provides to the system builder: a name, a per-core trace iterator, and
a prewarm stream of (addresses, writes) chunks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from ..cpu.trace import TraceRecord, read_trace
from .synthetic import CHUNK, PrewarmChunk


@dataclass(frozen=True)
class TraceWorkload:
    """A recorded reference stream usable anywhere a profile is.

    Attributes:
        name: Label used in results.
        path: Trace file (``repro.cpu.trace`` text format), or None
            when ``records`` supplies the stream directly.
        records: In-memory record list (takes precedence over ``path``).
        repeat: Loop the trace when the simulation outlives it; a
            finite trace otherwise simply lets the core run dry.
        prewarm_records: How many leading records to push through the
            L2 before timing starts.
    """

    name: str
    path: Optional[Union[str, Path]] = None
    records: Optional[Sequence[TraceRecord]] = None
    repeat: bool = True
    prewarm_records: int = 10_000

    def __post_init__(self) -> None:
        if self.path is None and self.records is None:
            raise ValueError(f"{self.name}: needs a path or records")
        if self.prewarm_records < 0:
            raise ValueError(f"{self.name}: prewarm_records must be >= 0")

    def _raw_iter(self) -> Iterator[TraceRecord]:
        if self.records is not None:
            return iter(self.records)
        return read_trace(self.path)

    def make_trace(self, seed: int, base_address: int) -> Iterator[TraceRecord]:
        """Per-core trace stream, rebased to the core's address slice.

        ``seed`` is accepted for interface parity with synthetic
        profiles; recorded traces replay verbatim.
        """
        def rebased() -> Iterator[TraceRecord]:
            while True:
                for record in self._raw_iter():
                    if base_address:
                        record = TraceRecord(
                            inst_gap=record.inst_gap,
                            is_write=record.is_write,
                            address=record.address + base_address,
                            dep=record.dep,
                        )
                    yield record
                if not self.repeat:
                    return

        return rebased()

    @property
    def reads_file(self) -> bool:
        """True when the stream is read from ``path``.

        The stream is then a function of the file's current content,
        not of this object's value, so system builds never restore a
        memoized warm L2 image for it.
        """
        return self.records is None

    def prewarm_stream(self, seed: int, base_address: int) -> Iterator[PrewarmChunk]:
        """Leading references used to warm the L2.

        Yields (addresses, writes) chunks of at most
        :data:`~repro.workloads.synthetic.CHUNK` references: the first
        ``prewarm_records`` references of :meth:`make_trace`'s stream.
        """
        records = itertools.islice(
            self.make_trace(seed, base_address), self.prewarm_records
        )
        while True:
            chunk = list(itertools.islice(records, CHUNK))
            if not chunk:
                return
            yield [r.address for r in chunk], [r.is_write for r in chunk]


def workload_from_records(
    name: str, records: List[TraceRecord], repeat: bool = True
) -> TraceWorkload:
    """Convenience constructor for in-memory traces."""
    return TraceWorkload(name=name, records=list(records), repeat=repeat)

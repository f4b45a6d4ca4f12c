"""Synthetic benchmark trace generation.

The paper's evaluation uses proprietary 100M-instruction SPEC CPU2000
sampled traces.  We substitute parameterized synthetic reference
streams.  Every behaviour the paper's results depend on is an explicit
parameter:

* **intensity** — mean instruction gap between L2-reaching references,
  shaped into bursts (``burst_len`` refs spaced ``burst_gap`` apart,
  then ``inter_burst_gap``); frequent long bursts are exactly the
  access pattern the paper says FR-FCFS unfairly rewards;
* **memory-level parallelism** — ``dep_frac`` builds dependence chains
  (a reference waits for its predecessor), reproducing the low-MLP,
  preemption-latency-sensitive behaviour of vpr/twolf;
* **row locality** — ``row_locality`` continues sequential streams
  within an SDRAM row, creating the row-hit runs that cause bank
  priority chaining;
* **footprint** — ``working_set_lines`` sets the L2 hit rate
  (cache-resident benchmarks like crafty barely touch memory);
* **write mix** — ``write_frac`` stores dirty lines that return to
  memory as writebacks.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..cpu.trace import TraceRecord

#: One prewarm chunk: the byte addresses of consecutive references and,
#: index for index, whether each is a store.
PrewarmChunk = Tuple[List[int], List[bool]]

#: References per draw.  Prewarm streams yield chunks of at most this
#: many, and the live trace refills its buffer this many at a time, so
#: neither holds more than one chunk of its stream in memory.
CHUNK = 64


@dataclass(frozen=True)
class BenchmarkProfile:
    """Parameters describing one synthetic benchmark's memory behaviour."""

    name: str
    burst_len: float
    burst_gap: float
    inter_burst_gap: float
    row_locality: float
    num_streams: int
    working_set_lines: int
    dep_frac: float
    write_frac: float

    def __post_init__(self) -> None:
        if self.burst_len < 1:
            raise ValueError(f"{self.name}: burst_len must be >= 1")
        if self.burst_gap < 0 or self.inter_burst_gap < 0:
            raise ValueError(f"{self.name}: gaps must be >= 0")
        for frac_name in ("row_locality", "dep_frac", "write_frac"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {frac_name} must be in [0, 1]")
        if self.num_streams < 1:
            raise ValueError(f"{self.name}: need at least one stream")
        if self.working_set_lines < self.num_streams:
            raise ValueError(f"{self.name}: working set smaller than stream count")

    def mean_gap(self) -> float:
        """Expected instruction gap per reference."""
        per_burst = self.burst_gap * (self.burst_len - 1) + self.inter_burst_gap
        return per_burst / self.burst_len

    def make_trace(self, seed: int, base_address: int) -> "SyntheticTraceGenerator":
        """Per-core infinite trace stream (the workload interface)."""
        return SyntheticTraceGenerator(self, seed=seed, base_address=base_address)

    def prewarm_stream(self, seed: int, base_address: int) -> Iterator[PrewarmChunk]:
        """Leading references used to warm the L2 before timing starts.

        Yields (addresses, writes) chunks of at most :data:`CHUNK`
        references: the first ``min(4 * working_set_lines, 40_000)``
        references of :meth:`make_trace`'s stream.  A twin generator
        (same seed) draws them, so the live trace is unaffected.
        Cache-resident benchmarks would otherwise spend millions of
        cycles compulsory-missing their footprint.
        """
        twin = SyntheticTraceGenerator(self, seed=seed, base_address=base_address)
        left = min(4 * self.working_set_lines, 40_000)
        while left > 0:
            _, addresses, writes, _ = twin.draw(min(left, CHUNK))
            left -= len(addresses)
            yield addresses, writes


class SyntheticTraceGenerator:
    """Deterministic (seeded) infinite reference stream for one profile."""

    LINE_BYTES = 64

    def __init__(self, profile: BenchmarkProfile, seed: int = 0, base_address: int = 0):
        if base_address < 0:
            # Prewarm addresses never become TraceRecords, so nothing
            # downstream would catch a negative address.
            raise ValueError(f"base_address must be >= 0, got {base_address}")
        self.profile = profile
        self.base_address = base_address
        # zlib.crc32 is stable across processes (unlike hash(), which is
        # randomized per interpreter run) so traces are reproducible.
        name_hash = zlib.crc32(profile.name.encode())
        self._rng = random.Random(name_hash ^ (seed * 0x9E3779B1) ^ base_address)
        self._streams: List[int] = [
            self._rng.randrange(profile.working_set_lines)
            for _ in range(profile.num_streams)
        ]
        self._burst_left = 0
        self._stream_idx = 0
        #: Drawn references not yet served by :meth:`__next__`, as
        #: (gap, address, is_write, dep) tuples.
        self._pending: Iterator[Tuple[int, int, bool, int]] = iter(())

    def draw(self, count: int) -> Tuple[List[int], List[int], List[bool], List[int]]:
        """Draw the next ``count`` references as columns.

        Returns (gaps, addresses, writes, deps).  This loop is the only
        consumer of the generator's RNG, and each reference makes the
        same calls in the same order — burst length when a burst
        starts, gap, stream step, store flag, dependence flag — so the
        stream does not depend on how it is split into draws.
        """
        profile = self.profile
        rng = self._rng
        random_ = rng.random
        expovariate = rng.expovariate
        randrange = rng.randrange
        burst_gap = profile.burst_gap
        inter_burst_gap = profile.inter_burst_gap
        mean_extra = profile.burst_len - 1.0
        burst_rate = 1.0 / burst_gap if burst_gap > 0 else 0.0
        inter_rate = 1.0 / inter_burst_gap if inter_burst_gap > 0 else 0.0
        extra_rate = 1.0 / mean_extra if mean_extra > 0 else 0.0
        row_locality = profile.row_locality
        write_frac = profile.write_frac
        dep_frac = profile.dep_frac
        footprint = profile.working_set_lines
        num_streams = profile.num_streams
        streams = self._streams
        idx = self._stream_idx
        burst_left = self._burst_left
        base = self.base_address
        line_bytes = self.LINE_BYTES
        gaps: List[int] = []
        addresses: List[int] = []
        writes: List[bool] = []
        deps: List[int] = []
        add_gap = gaps.append
        add_address = addresses.append
        add_write = writes.append
        add_dep = deps.append
        for _ in range(count):
            if burst_left > 0:
                burst_left -= 1
                add_gap(int(expovariate(burst_rate)) if burst_gap > 0 else 0)
            else:
                # Start a new burst: geometric length with the given mean.
                burst_left = int(expovariate(extra_rate)) if mean_extra > 0 else 0
                add_gap(int(expovariate(inter_rate)) if inter_burst_gap > 0 else 0)
            idx = (idx + 1) % num_streams
            if random_() < row_locality:
                line = (streams[idx] + 1) % footprint
            else:
                line = randrange(footprint)
            streams[idx] = line
            add_address(base + line * line_bytes)
            add_write(random_() < write_frac)
            add_dep(1 if random_() < dep_frac else 0)
        self._stream_idx = idx
        self._burst_left = burst_left
        return gaps, addresses, writes, deps

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        fields = next(self._pending, None)
        if fields is None:
            gaps, addresses, writes, deps = self.draw(CHUNK)
            self._pending = zip(gaps, addresses, writes, deps)
            fields = next(self._pending)
        gap, address, is_write, dep = fields
        return TraceRecord(inst_gap=gap, is_write=is_write, address=address, dep=dep)

    def take(self, count: int) -> List[TraceRecord]:
        """Materialize the next ``count`` records (testing, trace files)."""
        return [next(self) for _ in range(count)]

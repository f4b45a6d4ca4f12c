"""Set-associative write-back caches with LRU replacement and MSHRs.

Models the private cache levels of the paper's Table 5 configuration.
The cache operates on line addresses; the hierarchy layer handles
line-size alignment, fills, and writeback propagation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2
    mshrs: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"size {self.size_bytes} not divisible by assoc*line "
                f"({self.assoc}*{self.line_bytes})"
            )
        num_sets = self.size_bytes // (self.assoc * self.line_bytes)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


#: Paper Table 5 cache levels.
L1I_CONFIG = CacheConfig(size_bytes=32 * 1024, assoc=4, latency=2, mshrs=8)
L1D_CONFIG = CacheConfig(size_bytes=32 * 1024, assoc=4, latency=2, mshrs=16)
L2_CONFIG = CacheConfig(size_bytes=512 * 1024, assoc=8, latency=12, mshrs=16)

#: A cache's contents as :meth:`Cache.snapshot` captures them: per set,
#: its (line, dirty) pairs in LRU order, least recently used first.
CacheImage = Tuple[Tuple[Tuple[int, bool], ...], ...]


class Cache:
    """One cache level.  Keys are line addresses (byte addr >> offset)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._set_mask = config.num_sets - 1
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _set_for(self, line: int) -> "OrderedDict[int, bool]":
        return self._sets[line & self._set_mask]

    def lookup(self, line: int, mark_dirty: bool = False) -> bool:
        """Probe for ``line``; updates LRU and dirty state on a hit."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if mark_dirty:
                cache_set[line] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without disturbing LRU or counters (for tests/invariants)."""
        return line in self._set_for(line)

    def is_dirty(self, line: int) -> bool:
        cache_set = self._set_for(line)
        return cache_set.get(line, False)

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``line``; returns the evicted (line, was_dirty) if any."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if dirty:
                cache_set[line] = True
            return None
        evicted: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.config.assoc:
            victim, victim_dirty = cache_set.popitem(last=False)
            evicted = (victim, victim_dirty)
            if victim_dirty:
                self.writebacks += 1
        cache_set[line] = dirty
        return evicted

    def warm(self, lines: Iterable[int], dirty: Iterable[bool]) -> None:
        """Install ``lines`` in order, each dirty when ``dirty`` says so.

        The batch form of one :meth:`fill` per line: the same contents,
        LRU order, dirty bits and ``writebacks`` count, with victims
        dropped instead of returned.  System builds warm each core's L2
        through it.
        """
        sets = self._sets
        mask = self._set_mask
        assoc = self.config.assoc
        writebacks = 0
        for line, is_dirty in zip(lines, dirty):
            cache_set = sets[line & mask]
            if line in cache_set:
                cache_set.move_to_end(line)
                if is_dirty:
                    cache_set[line] = True
                continue
            if len(cache_set) >= assoc and cache_set.popitem(last=False)[1]:
                writebacks += 1
            cache_set[line] = is_dirty
        self.writebacks += writebacks

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns True if it was present and dirty."""
        cache_set = self._set_for(line)
        return bool(cache_set.pop(line, False))

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def snapshot(self) -> CacheImage:
        """The contents (lines, LRU order, dirty bits) as an immutable image.

        Counters are not part of the image.  Being immutable, one image
        can seed any number of caches through :meth:`restore`.
        """
        return tuple(tuple(cache_set.items()) for cache_set in self._sets)

    def restore(self, image: CacheImage) -> None:
        """Replace the contents with ``image``; counters are untouched.

        ``image`` must come from a cache of the same geometry.  Every
        set becomes a new dict, so caches restored from one image share
        no mutable state.
        """
        self._sets = [OrderedDict(pairs) for pairs in image]


class MshrFile:
    """Miss-status handling registers: outstanding line misses with merging.

    Multiple references to the same missing line share one entry (a
    *secondary* miss); the entry count bounds a core's memory-level
    parallelism exactly as in the paper's configuration.
    """

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError(f"need at least one MSHR, got {entries}")
        self.entries = entries
        self._outstanding: Dict[int, List[object]] = {}

    def __len__(self) -> int:
        return len(self._outstanding)

    @property
    def full(self) -> bool:
        return len(self._outstanding) >= self.entries

    def outstanding(self, line: int) -> bool:
        return line in self._outstanding

    def allocate(self, line: int, waiter: object) -> bool:
        """Register ``waiter`` for ``line``.

        Returns True if the line now has an MSHR (newly allocated or
        merged); False when the file is full and the line is new.
        """
        if line in self._outstanding:
            self._outstanding[line].append(waiter)
            return True
        if self.full:
            return False
        self._outstanding[line] = [waiter]
        return True

    def complete(self, line: int) -> List[object]:
        """Retire the MSHR for ``line``; returns its waiters."""
        if line not in self._outstanding:
            raise KeyError(f"no MSHR outstanding for line {line:#x}")
        return self._outstanding.pop(line)

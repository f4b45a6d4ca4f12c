"""The metrics registry: named counters, gauges, and timers.

The registry is the *cold* half of the observability layer: a flat
``dotted.name -> float`` table, filled in at finalize time and
serialized into run manifests.  The
*hot* half is the ``__slots__`` counter struct
(:class:`KeyCacheCounters`) that hot loops bump through plain
attribute adds behind ``x is None`` guards — the
same shape as the checker/telemetry hooks — and that
:meth:`~repro.obs.RunObs.finalize` harvests into the registry once per
run.  Nothing on a hot path ever touches a dict lookup or a string.

Metric names are dotted paths (``engine.steps``,
``wakeindex.stale_pops``, ``phase.targeting_s``); the manifest schema
flattens nested structures to the same convention, so
``repro-fqms perf`` compares every source of numbers through one key
space.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class MetricsRegistry:
    """Flat table of named counters/gauges (floats)."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, float] = {}

    # -- writers -----------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        self._metrics[name] = self._metrics.get(name, 0.0) + float(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set ``name`` to ``value`` (last write wins)."""
        self._metrics[name] = float(value)

    def timer(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the timer ``name``.

        Timers are counters in seconds; the ``_s`` suffix convention
        marks them in manifests.
        """
        self.count(name, seconds)

    # -- readers -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Name-sorted copy of every numeric metric."""
        return {name: self._metrics[name] for name in sorted(self._metrics)}

    def get(self, name: str, default: float = 0.0) -> float:
        return self._metrics.get(name, default)

    def items(self) -> Iterable[Tuple[str, float]]:
        return self.metrics().items()

    def __len__(self) -> int:
        return len(self._metrics)


class KeyCacheCounters:
    """Hot counters for the per-request policy-key memo.

    ``hits``/``misses`` track the ``request.key_cache`` memo on the
    memoizing scheduler paths; ``uncached`` counts key builds by
    policies that opted out of the memo (``memoize_keys=False`` —
    BLISS, MISE), where hit/miss is not a meaningful split.
    """

    __slots__ = ("hits", "misses", "uncached")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.uncached = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

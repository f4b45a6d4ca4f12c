"""The metrics registry: named counters, gauges, and timers.

A flat ``dotted.name -> float`` table (``serve.busy_share_err``,
``serve.queue_wait_s``); the manifest schema flattens nested
structures to the same convention, so ``repro-fqms perf`` compares
every source of numbers through one key space.
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


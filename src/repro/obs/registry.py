"""Metrics registry: named counters, gauges and histograms.

One pipeline for every number the system produces.  Engines (through
``repro.runtime.metrics``), the fault layer and the job drivers all
publish into a :class:`MetricsRegistry`; reports and the benchmark
JSON hook read a :meth:`~MetricsRegistry.snapshot` back out.  This
replaced the pre-obs split where ``repro.metrics.collector`` and
``repro.runtime.RuntimeMetrics`` each kept their own partial copy of
the accounting; ``RuntimeMetrics`` is now :mod:`repro.obs.usage`'s view
over the same dict the kernel collector publishes here.

Naming convention: dotted lowercase paths, one family per subsystem —
``transport.*`` (request/response kernel), ``shuffle.*`` (one-way
kernel), ``faults.*`` (the fault injector), ``usage.*`` (cluster
resources), ``routing.*`` (decision mix), ``cache.*``, ``jobs.*``.

A process-wide :func:`ambient_registry` exists so call sites that have
no registry threaded to them (e.g. a bare ``JoinJob.run`` inside an
experiment harness) still emit into the pipeline; per-run registries
passed explicitly take no input from it.
"""

from __future__ import annotations

from typing import Any


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of a named distribution (no buckets kept)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create store of named metrics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Access (creation is implicit, like every metrics facade)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter or gauge (0.0 when absent)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def counters_matching(self, prefix: str) -> dict[str, float]:
        """``name -> value`` for every counter under ``prefix``."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of everything, JSON-serializable."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (used between benchmark runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


_AMBIENT = MetricsRegistry()


def ambient_registry() -> MetricsRegistry:
    """The process-wide registry fed by un-threaded call sites."""
    return _AMBIENT

"""Process-wide metrics registry (counters, gauges, histograms).

Storage and query layers publish labeled series into one shared
:data:`REGISTRY` — disk reads split by file and sequentiality, buffer
pool hits/misses/evictions, per-method query counters, batch group
sizes, planner decisions.  Publication is disabled by default; every
instrumented site guards with ``if REGISTRY.enabled:``, so the cost on
the hot path is a single attribute check until someone opts in
(``repro.obs.metrics.REGISTRY.enable()``, or the CLI's
``--metrics-out`` flag).

The model is intentionally tiny and prometheus-shaped: a metric has a
name, help text, and a family of label-keyed series; histograms keep
cumulative bucket counts plus sum/count.  :meth:`MetricsRegistry.collect`
returns a JSON-safe dump; :func:`repro.obs.export.render_prometheus`
renders the text exposition.
"""

from __future__ import annotations

import threading


def _key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set."""
    return tuple(sorted(labels.items()))


class Metric:
    """Common shape of one named family of labeled series.

    Every mutation and every snapshot-style reader takes the metric's
    own lock: the read-modify-write in :meth:`Counter.inc` (and the
    row mutation in :meth:`Histogram.observe`) would otherwise lose
    updates under concurrent publishers such as the batch query
    engine's workers.
    """

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def series(self) -> dict[tuple, float]:
        """Label-tuple → value mapping (live view)."""
        return self._series

    def value(self, **labels) -> float:
        """Current value of one labeled series (0.0 when never touched)."""
        with self._lock:
            return self._series.get(_key(labels), 0.0)

    def reset(self) -> None:
        """Drop every series."""
        with self._lock:
            self._series.clear()

    def collect(self) -> dict:
        """JSON-safe dump of the family."""
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "series": [{"labels": dict(key), "value": value}
                           for key, value in sorted(self._series.items())],
            }


class Counter(Metric):
    """Monotonically increasing labeled counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = _key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(Metric):
    """Labeled value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        with self._lock:
            self._series[_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        key = _key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


#: Default histogram buckets, sized for page counts and candidate
#: counts (exponential, upper bounds; +inf is implicit).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
                   16384, 65536)


class Histogram(Metric):
    """Labeled histogram with cumulative bucket counts + sum/count."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histograms need at least one bucket bound")
        # label key -> [bucket counts..., +inf count, sum, count]
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labeled series."""
        key = _key(labels)
        with self._lock:
            row = self._series.get(key)
            if row is None:
                row = [0] * (len(self.buckets) + 1) + [0.0, 0]
                self._series[key] = row
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    row[i] += 1
                    break
            else:
                row[len(self.buckets)] += 1
            row[-2] += value
            row[-1] += 1

    def value(self, **labels) -> float:
        """Observation count of one labeled series."""
        with self._lock:
            row = self._series.get(_key(labels))
            return float(row[-1]) if row is not None else 0.0

    def sum(self, **labels) -> float:
        """Sum of observed values of one labeled series."""
        with self._lock:
            row = self._series.get(_key(labels))
            return float(row[-2]) if row is not None else 0.0

    def mean(self, **labels) -> float:
        """Mean observed value (0.0 when empty)."""
        with self._lock:
            row = self._series.get(_key(labels))
            if row is None or not row[-1]:
                return 0.0
            return row[-2] / row[-1]

    def collect(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "buckets": list(self.buckets),
                "series": [
                    {"labels": dict(key),
                     "bucket_counts": list(row[:len(self.buckets) + 1]),
                     "sum": row[-2], "count": row[-1]}
                    for key, row in sorted(self._series.items())
                ],
            }


class MetricsRegistry:
    """Names → metric families; the process-wide instance is
    :data:`REGISTRY`."""

    def __init__(self) -> None:
        self.enabled = False
        self._metrics: dict[str, Metric] = {}

    # -- registration (idempotent) ------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` named ``name``."""
        return self._register(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` named ``name``."""
        return self._register(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        """Get or create the :class:`Histogram` named ``name``."""
        return self._register(name, Histogram, help=help, buckets=buckets)

    def _register(self, name: str, cls, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        """Start recording at every instrumented site."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (already-collected series are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every series of every family (registrations stay)."""
        for metric in self._metrics.values():
            metric.reset()

    def get(self, name: str) -> Metric:
        """Look up a registered family by name (KeyError when absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- export -------------------------------------------------------------

    def collect(self) -> dict:
        """JSON-safe dump of every family with at least one series."""
        return {
            "metrics": [m.collect() for _, m in sorted(self._metrics.items())
                        if m.series()],
        }


#: The process-wide registry every instrumented layer publishes into.
REGISTRY = MetricsRegistry()

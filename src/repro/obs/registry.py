"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the single metrics surface for the fleet (DESIGN.md
§14).  Every layer — ``repro serve``'s query service, the dispatch
worker loop, campaign retry accounting, kernel throughput — registers
plain named metrics here, and two render paths read them back out:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format, served on ``GET /metrics``;
* :meth:`MetricsRegistry.snapshot` — a JSON-friendly dict, served on
  ``GET /metrics.json`` and embedded in smoke-test artifacts.

Design rules:

* **Fixed histogram buckets.**  Bucket boundaries are chosen at
  construction and never change, so concurrent scrapes always see a
  coherent cumulative distribution and cross-host aggregation is
  well-defined.
* **Snapshot stability.**  Each histogram guards its counts with a
  lock; a snapshot taken concurrently with ``observe()`` calls always
  satisfies ``sum(bucket_counts) == count`` and ``count`` matches the
  number of observations folded into ``sum``.

Nothing here touches simulated state: metrics are host-side
observability and are never folded into fingerprints.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "CYCLES_PER_SEC_BUCKETS",
    "get_registry",
    "reset_registry",
]

#: Default latency buckets (seconds).  Chosen to straddle the serve
#: path's realistic range: sub-millisecond store hits up to multi-second
#: cold simulations.  Fixed forever — see module docstring.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Buckets for kernel throughput (simulated cycles per host second).
CYCLES_PER_SEC_BUCKETS: Tuple[float, ...] = (
    1e3,
    3e3,
    1e4,
    3e4,
    1e5,
    3e5,
    1e6,
    3e6,
    1e7,
)


def _format_value(value: float) -> str:
    """Render a sample value in Prometheus text format."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - defensive
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(val))}"' for key, val in sorted(merged.items())
    )
    return "{" + inner + "}"


class _Metric:
    """Shared identity for registry metrics."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Dict[str, str]):
        self.name = name
        self.help = help_text
        self.labels = dict(labels)
        self._lock = threading.Lock()

    def label_suffix(self) -> str:
        return _render_labels(self.labels)


class Counter(_Metric):
    """Monotonically increasing counter: ``inc()`` it, read ``value``."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help_text, labels or {})
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decrements")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{self.label_suffix()}={self._value})"


class Gauge(_Metric):
    """A value that can go up and down (pool depth, in-flight count)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help_text, labels or {})
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{self.label_suffix()}={self._value})"


class Histogram(_Metric):
    """Cumulative histogram with fixed bucket boundaries.

    ``observe(v)`` folds ``v`` into the first bucket whose upper bound
    is ``>= v`` (Prometheus ``le`` semantics); values above the largest
    boundary land only in the implicit ``+Inf`` bucket.  Zero and
    negative durations fold into the smallest bucket — a zero-duration
    observation is still one observation.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labels: Optional[Dict[str, str]] = None,
    ):
        super().__init__(name, help_text, labels or {})
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket boundaries must be distinct")
        self.bounds: Tuple[float, ...] = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts: List[int] = [0] * (len(bounds) + 1)
        self._sum: float = 0.0
        self._count: int = 0
        self._max: float = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, object]:
        """A coherent view: bucket counts, sum and count move together."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
            peak = self._max
        cumulative: List[int] = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": [
                {"le": bound, "count": cumulative[i]}
                for i, bound in enumerate(self.bounds)
            ]
            + [{"le": "+Inf", "count": cumulative[-1]}],
            "count": total,
            "sum": acc,
            "max": peak,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}{self.label_suffix()} n={self._count})"


class MetricsRegistry:
    """Thread-safe get-or-create home for every metric in a process.

    Metrics are keyed by ``(name, sorted labels)``; asking twice for the
    same key returns the same object, asking for an existing name with a
    different metric kind raises.  Rendering walks a stable sorted
    order so scrapes diff cleanly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Metric] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, str]) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get_or_create(self, cls, name: str, help_text: str, labels: Dict[str, str], **kwargs):
        key = self._key(name, labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help_text, labels=dict(labels), **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # Render paths
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly snapshot of every metric."""
        out: List[Dict[str, object]] = []
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry.update(metric.snapshot())
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            out.append(entry)
        return {"metrics": out}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        seen_headers: set = set()
        for metric in self.metrics():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                for bucket in snap["buckets"]:  # type: ignore[index]
                    le = bucket["le"]
                    le_text = "+Inf" if le == "+Inf" else _format_value(float(le))
                    labels = _render_labels(metric.labels, {"le": le_text})
                    lines.append(
                        f"{metric.name}_bucket{labels} {bucket['count']}"
                    )
                suffix = metric.label_suffix()
                lines.append(
                    f"{metric.name}_sum{suffix} {_format_value(snap['sum'])}"
                )
                lines.append(f"{metric.name}_count{suffix} {snap['count']}")
            else:
                lines.append(
                    f"{metric.name}{metric.label_suffix()} "
                    f"{_format_value(metric.value)}"  # type: ignore[attr-defined]
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------

_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (what ``repro serve`` scrapes)."""
    return _DEFAULT


def reset_registry() -> MetricsRegistry:
    """Replace the process-wide registry (tests only)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = MetricsRegistry()
        return _DEFAULT

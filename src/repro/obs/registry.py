"""The metrics registry: counters, gauges, fixed-bucket histograms.

Pure Python, no dependencies: an instrument is a tiny ``__slots__``
object the owning component holds directly, so the hot-path cost of
``counter.inc()`` is one attribute store.  The registry is only
consulted at creation and snapshot time.

Identity is ``name`` plus a sorted label set (per-station,
per-priority, per-BSS, ...), rendered Prometheus-style in snapshots::

    ap_admitted{kind=new}  ->  17

Components hold their instruments as plain attributes (or dicts of
them keyed by label value) and use them directly: ``counter.inc()``
writes, ``counter.value`` reads.
"""

from __future__ import annotations

import bisect
import typing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DELAY_BUCKETS",
]

#: default access-delay histogram bounds (seconds) — chosen around the
#: paper's QoS budgets (30 ms voice jitter, 50 ms video delay)
DELAY_BUCKETS: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.010, 0.020, 0.030, 0.050, 0.075, 0.100, 0.250,
)


class Counter:
    """Monotonically increasing value (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit overflow bucket catches everything above the last edge.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: typing.Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the
        bucket holding the q-th observation; inf for overflow)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.bucket_counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def snapshot(self) -> dict[str, typing.Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.bucket_counts)
                if c
            },
        }


def _key(name: str, labels: dict[str, typing.Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Creates, owns and snapshots instruments (see module docstring).

    Parameters
    ----------
    labels:
        Constant labels stamped on the registry itself (e.g. the BSS
        id); reported once per snapshot, not per instrument.
    """

    def __init__(self, **labels: typing.Any) -> None:
        self.labels = dict(labels)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: periodic snapshots appended by :meth:`start_snapshots`
        self.snapshots: list[dict[str, typing.Any]] = []

    # -- instrument factories (get-or-create) ------------------------------
    def counter(self, name: str, **labels: typing.Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: typing.Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        bounds: typing.Sequence[float] = DELAY_BUCKETS,
        **labels: typing.Any,
    ) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    def expose(
        self,
    ) -> tuple[
        dict[str, Counter], dict[str, Gauge], dict[str, Histogram]
    ]:
        """Live instrument maps ``(counters, gauges, histograms)``.

        Keys are the flattened ``name{label=value,...}`` identities.
        This is the read surface the Prometheus text renderer
        (:mod:`repro.serve.metrics`) walks: unlike :meth:`snapshot` it
        keeps the full bucket layout of every histogram, which the
        cumulative ``_bucket`` series needs.
        """
        return dict(self._counters), dict(self._gauges), dict(self._histograms)

    # -- snapshotting -------------------------------------------------------
    def snapshot(self, now: float | None = None) -> dict[str, typing.Any]:
        """One deterministic point-in-time view of every instrument."""
        out: dict[str, typing.Any] = {
            "labels": dict(sorted(self.labels.items())),
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].snapshot()
                for k in sorted(self._histograms)
            },
        }
        if now is not None:
            out["t"] = now
        return out

    def start_snapshots(self, sim, interval: float) -> None:
        """Record a snapshot every ``interval`` simulated seconds."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")

        def tick() -> None:
            self.snapshots.append(self.snapshot(now=sim.now))
            sim.call_in(interval, tick)

        sim.call_in(interval, tick)

"""Prometheus text-exposition (0.0.4) rendering of a MetricsRegistry.

:meth:`MetricsRegistry.expose <repro.obs.registry.MetricsRegistry.expose>`
lists each instrument with its name and label pairs; this module
renders them in the Prometheus plain-text format a scraper expects::

    # TYPE serve_requests_total counter
    serve_requests_total{endpoint="/query",status="200"} 17
    # TYPE serve_request_seconds histogram
    serve_request_seconds_bucket{endpoint="/query",le="0.005"} 12
    serve_request_seconds_bucket{endpoint="/query",le="+Inf"} 17
    serve_request_seconds_sum{endpoint="/query"} 0.042
    serve_request_seconds_count{endpoint="/query"} 17

Histogram buckets are cumulative (each ``le`` bucket counts every
observation at or below its edge) with the mandatory ``+Inf`` bucket
equal to ``_count``, matching what ``prometheus_client`` emits.  Label
values are escaped per the spec (backslash, double quote, newline);
output lines are sorted so a scrape of an unchanged registry is
byte-identical.
"""

from __future__ import annotations

import math
import typing

from ..obs.registry import Histogram, MetricsRegistry

__all__ = ["render_prometheus"]

#: characters that must be escaped inside a label value
_ESCAPES = (("\\", r"\\"), ('"', r"\""), ("\n", r"\n"))


def _escape(value: str) -> str:
    for raw, escaped in _ESCAPES:
        value = value.replace(raw, escaped)
    return value


def _labels_text(
    labels: typing.Sequence[tuple[str, str]],
    extra: typing.Sequence[tuple[str, str]] = (),
) -> str:
    merged = list(labels) + list(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in merged)
    return "{" + inner + "}"


def _number(value: float) -> str:
    """Prometheus-friendly number: integers bare, floats via repr, and
    the non-finite values as the text format spells them."""
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_histogram(
    name: str, labels: typing.Sequence[tuple[str, str]], hist: Histogram
) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.bucket_counts):
        cumulative += count
        lines.append(
            f"{name}_bucket"
            f"{_labels_text(labels, [('le', _number(float(bound)))])} "
            f"{cumulative}"
        )
    lines.append(
        f"{name}_bucket{_labels_text(labels, [('le', '+Inf')])} "
        f"{hist.count}"
    )
    lines.append(f"{name}_sum{_labels_text(labels)} {_number(hist.total)}")
    lines.append(f"{name}_count{_labels_text(labels)} {hist.count}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's instruments as Prometheus 0.0.4 text.

    The registry's own constant labels are stamped on every sample;
    families are emitted in sorted-name order with one ``# TYPE``
    header each, so consecutive scrapes of an unchanged registry are
    byte-identical.
    """
    constant = tuple(sorted(
        (k, str(v)) for k, v in registry.labels.items()
    ))
    counters, gauges, histograms = registry.expose()

    families: dict[str, tuple[str, list[str]]] = {}

    def family(name: str, kind: str) -> list[str]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (kind, [])
        return entry[1]

    for name, labels, counter in counters:
        family(name, "counter").append(
            f"{name}{_labels_text(constant + labels)} "
            f"{_number(counter.value)}"
        )
    for name, labels, gauge in gauges:
        family(name, "gauge").append(
            f"{name}{_labels_text(constant + labels)} "
            f"{_number(gauge.value)}"
        )
    for name, labels, histogram in histograms:
        family(name, "histogram").extend(
            _render_histogram(name, constant + labels, histogram)
        )

    lines: list[str] = []
    for name in sorted(families):
        kind, samples = families[name]
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")

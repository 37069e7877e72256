"""Prometheus 0.0.4 text rendering of the metrics registry."""

import pytest

from repro.obs import MetricsRegistry
from repro.serve import render_prometheus


def test_counters_gauges_and_type_headers():
    reg = MetricsRegistry()
    reg.counter("requests", endpoint="/query", status=200).inc(3)
    reg.counter("requests", endpoint="/healthz", status=200).inc()
    reg.gauge("depth").set(2.5)
    text = render_prometheus(reg)
    assert text == (
        "# TYPE depth gauge\n"
        "depth 2.5\n"
        "# TYPE requests counter\n"
        'requests{endpoint="/healthz",status="200"} 1\n'
        'requests{endpoint="/query",status="200"} 3\n'
    )


def test_histogram_buckets_are_cumulative_with_inf():
    reg = MetricsRegistry()
    h = reg.histogram("latency", (0.01, 0.1))
    for v in (0.005, 0.05, 0.05, 5.0):
        h.observe(v)
    text = render_prometheus(reg)
    assert 'latency_bucket{le="0.01"} 1' in text
    assert 'latency_bucket{le="0.1"} 3' in text  # cumulative, not 2
    assert 'latency_bucket{le="+Inf"} 4' in text
    assert "latency_count 4" in text
    assert "latency_sum 5.105" in text
    assert "# TYPE latency histogram" in text


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.counter("odd", path='a"b\\c\nd').inc()
    text = render_prometheus(reg)
    assert 'odd{path="a\\"b\\\\c\\nd"} 1' in text


@pytest.mark.parametrize("value, rendered", [
    ("a,b", 'route="a,b"'),
    ("k=v", 'route="k=v"'),
    ('say "hi"', 'route="say \\"hi\\""'),
    ('a,b=c,"d"', 'route="a,b=c,\\"d\\""'),
], ids=["comma", "equals", "quote", "all-three"])
def test_label_value_separators_stay_in_the_value(value, rendered):
    reg = MetricsRegistry()
    reg.counter("hits", route=value, status=200).inc()
    reg.gauge("depth", route=value).set(2.0)
    reg.histogram("latency", (1.0,), route=value).observe(0.5)
    text = render_prometheus(reg)
    assert f"hits{{{rendered},status=\"200\"}} 1\n" in text
    assert f"depth{{{rendered}}} 2\n" in text
    assert f'latency_bucket{{{rendered},le="+Inf"}} 1\n' in text
    assert f"latency_count{{{rendered}}} 1\n" in text
    # snapshot keys stay the flattened name{label=value,...} bytes
    assert reg.snapshot()["counters"] == {f"hits{{route={value},status=200}}": 1}


def test_registry_constant_labels_stamp_every_sample():
    reg = MetricsRegistry(bss="b0")
    reg.counter("polls").inc()
    reg.gauge("tokens", kind="voice").set(1.0)
    text = render_prometheus(reg)
    assert 'polls{bss="b0"} 1' in text
    assert 'tokens{bss="b0",kind="voice"} 1' in text


def test_consecutive_renders_are_byte_identical():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.counter("a").inc(2)
    reg.histogram("h", (1.0,)).observe(0.5)
    assert render_prometheus(reg) == render_prometheus(reg)


def test_empty_registry_renders_empty():
    assert render_prometheus(MetricsRegistry()) == ""


@pytest.mark.parametrize("value, text", [
    (float("inf"), "+Inf"), (float("-inf"), "-Inf"), (float("nan"), "NaN"),
])
def test_non_finite_samples_use_the_format_spelling(value, text):
    reg = MetricsRegistry()
    reg.gauge("headroom").set(value)
    reg.histogram("latency", (1.0,)).observe(value)
    rendered = render_prometheus(reg)
    assert f"headroom {text}\n" in rendered
    assert f"latency_sum {text}\n" in rendered

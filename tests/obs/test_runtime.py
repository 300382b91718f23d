"""Prometheus exposition: rendering, parsing, and one pinned golden.

The golden test renders hand-built metric families byte-for-byte — the
exposition must be deterministic (sorted families, sorted labels,
stable number formatting) so CI can diff two scrapes of identical
state.  Regenerate after intentional format changes with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_runtime.py
"""

import math

import pytest

from repro.obs.runtime import (
    CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
)

from .test_dashboard import check_golden


def build_families():
    """Families exercising every metric kind and label edge case."""
    latencies = (0.0005, 0.003, 0.003, 0.2, 150.0)
    return [
        ("events.total", "counter", ("category",),
         {("bgp.update",): 41, ("timer",): 7}),
        ("plain", "counter", (), {(): 1}),
        ("queue.depth", "gauge", (), {(): 3}),
        ("temp", "gauge", ("unit",), {("C",): -2.5}),
        # per-bound counts, over the top bound under math.inf
        ("latency.seconds", "histogram", ("route",), {
            ("/api/jobs",): (
                {0.001: 1, 0.01: 2, 1.0: 1, math.inf: 1}, sum(latencies),
            ),
        }),
        # adversarial label values: escapes must round-trip
        ("tricky", "counter", ("label",), {('a=1,b\\2}',): 2}),
    ]


class TestRender:
    def test_content_type_pinned(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("events.total") == "events_total"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("ok_name:x") == "ok_name:x"

    def test_type_lines_and_prefix(self):
        text = render_prometheus(build_families(), prefix="repro_")
        assert "# TYPE repro_events_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert text.endswith("\n")

    def test_histogram_is_cumulative_with_inf(self):
        text = render_prometheus(build_families())
        scrape = parse_prometheus(text)

        def bucket(le):
            return scrape.value(
                "latency_seconds_bucket", le=le, route="/api/jobs"
            )

        # family buckets are per-bound; the wire format is cumulative
        assert bucket("0.001") == 1
        assert bucket("0.01") == 3
        assert bucket("1") == 4
        count = scrape.value("latency_seconds_count", route="/api/jobs")
        assert bucket("+Inf") == count == 5
        assert scrape.value(
            "latency_seconds_sum", route="/api/jobs"
        ) == pytest.approx(150.2065)

    def test_a_name_given_twice_is_one_family(self):
        text = render_prometheus([
            ("x", "counter", ("a",), {("1",): 1}),
            ("x", "counter", ("a",), {("2",): 2}),
        ])
        assert text == '# TYPE x counter\nx{a="1"} 1\nx{a="2"} 2\n'

    def test_family_without_samples_renders_nothing(self):
        assert render_prometheus([("errors", "counter", ("route",), {})]) == ""

    def test_deterministic_rendering(self):
        assert render_prometheus(build_families()) == render_prometheus(
            build_families()
        )


class TestParse:
    def test_round_trip_values(self):
        text = render_prometheus(build_families(), prefix="repro_")
        scrape = parse_prometheus(text)
        assert scrape.value(
            "repro_events_total", category="bgp.update"
        ) == 41
        assert scrape.value("repro_plain") == 1
        assert scrape.value("repro_temp", unit="C") == -2.5
        assert scrape.types["repro_events_total"] == "counter"

    def test_escaped_label_round_trips(self):
        text = render_prometheus(build_families())
        scrape = parse_prometheus(text)
        assert scrape.value("tricky", label='a=1,b\\2}') == 2

    def test_distinct_label_sets_stay_distinct(self):
        """Label values holding the old key syntax's separators render
        to distinct samples and parse back to their own label sets."""
        text = render_prometheus([
            ("x", "counter", ("a", "b"), {("1", "2"): 10, ("1,b=2", ""): 1}),
            ("y", "counter", ("k",), {("v}",): 3, ("v\\}",): 4}),
        ])
        scrape = parse_prometheus(text)
        assert scrape.value("x", a="1", b="2") == 10
        assert scrape.value("x", a="1,b=2", b="") == 1
        assert scrape.value("y", k="v}") == 3
        assert scrape.value("y", k="v\\}") == 4

    def test_special_float_values(self):
        text = render_prometheus([("weird", "gauge", (), {(): math.inf})])
        scrape = parse_prometheus(text)
        assert math.isinf(scrape.value("weird"))

    def test_malformed_lines_rejected(self):
        for bad in (
            "no_value_here\n",
            'metric{unterminated="x\n',
            'm{a="x" b="y"} 1\n',
            "m1 notanumber\n",
        ):
            with pytest.raises(ValueError):
                parse_prometheus(bad)

    def test_duplicate_sample_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus("m 1\nm 2\n")

    def test_family_grouping(self):
        scrape = parse_prometheus(render_prometheus(build_families()))
        family = scrape.family("events_total")
        assert len(family) == 2


class TestGolden:
    def test_pinned_exposition(self):
        check_golden(
            "metrics.prom", render_prometheus(build_families(), prefix="repro_")
        )

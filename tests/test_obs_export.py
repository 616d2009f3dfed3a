"""Exporters: Prometheus text exposition and Chrome-trace worker lanes."""

from __future__ import annotations

import json

from repro.core import BatchQueryEngine, ValueQuery
from repro.core.ihilbert import IHilbertIndex
from repro.obs.export import render_prometheus, spans_to_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


# -- Prometheus text exposition ---------------------------------------------

class TestRenderPrometheus:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("app_requests_total", "Requests served.").inc(
            3, tenant="t1")
        registry.gauge("app_depth").set(2.5, queue="main")
        text = render_prometheus(registry)
        assert "# HELP app_requests_total Requests served." in text
        assert "# TYPE app_requests_total counter" in text
        assert 'app_requests_total{tenant="t1"} 3' in text
        assert "# TYPE app_depth gauge" in text
        assert 'app_depth{queue="main"} 2.5' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("app_evil_total")
        counter.inc(1, tenant='say "hi"\\there\nnow')
        text = render_prometheus(registry)
        assert ('app_evil_total{tenant='
                '"say \\"hi\\"\\\\there\\nnow"} 1') in text

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("app_x_total", "line one\nline \\ two").inc(1)
        text = render_prometheus(registry)
        assert "# HELP app_x_total line one\\nline \\\\ two" in text

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("app_ms", "Latency.",
                                  buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 50.0):
            hist.observe(value, op="query")
        text = render_prometheus(registry)
        # Cumulative per-le counts, +Inf capping at the total.
        assert 'app_ms_bucket{le="1",op="query"} 2' in text
        assert 'app_ms_bucket{le="5",op="query"} 3' in text
        assert 'app_ms_bucket{le="10",op="query"} 3' in text
        assert 'app_ms_bucket{le="+Inf",op="query"} 4' in text
        assert 'app_ms_sum{op="query"} 54.2' in text
        assert 'app_ms_count{op="query"} 4' in text

    def test_unlabeled_series_render_bare(self):
        registry = MetricsRegistry()
        registry.counter("app_plain_total").inc(7)
        assert "app_plain_total 7\n" in render_prometheus(registry)

    def test_empty_families_are_skipped(self):
        registry = MetricsRegistry()
        registry.counter("app_silent_total", "Never incremented.")
        assert render_prometheus(registry) == ""

    def test_numbers_render_prometheus_style(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("app_vals")
        gauge.set(3.0, k="int")          # integral floats lose the .0
        gauge.set(0.125, k="frac")
        text = render_prometheus(registry)
        assert 'app_vals{k="int"} 3\n' in text
        assert 'app_vals{k="frac"} 0.125\n' in text


# -- Chrome-trace worker lanes ----------------------------------------------

def _span(tracer, name, attrs=None):
    return tracer.span(name, attrs)


class TestChromeTraceLanes:
    def test_tid_attrs_fan_out_into_lanes(self):
        tracer = Tracer()
        with _span(tracer, "batch"):
            with _span(tracer, "worker[0]", {"worker": 0, "tid": 101}):
                with _span(tracer, "group[0]"):
                    pass
            with _span(tracer, "worker[1]", {"worker": 1, "tid": 102}):
                pass
        doc = spans_to_chrome_trace(tracer.roots)
        events = {e["name"]: e for e in doc["traceEvents"]
                  if e["ph"] == "X"}
        assert events["batch"]["tid"] == 1             # default lane
        assert events["worker[0]"]["tid"] == 101
        assert events["worker[1]"]["tid"] == 102
        # Children inherit the nearest ancestor's lane.
        assert events["group[0]"]["tid"] == 101

    def test_lanes_get_thread_name_metadata(self):
        tracer = Tracer()
        with _span(tracer, "batch"):
            with _span(tracer, "worker[3]", {"worker": 3, "tid": 777}):
                pass
        doc = spans_to_chrome_trace(tracer.roots)
        names = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        by_tid = {e["tid"]: e["args"]["name"] for e in names}
        assert by_tid[777] == "worker[3]"

    def test_serial_traces_stay_on_one_lane(self):
        tracer = Tracer()
        with _span(tracer, "query"):
            with _span(tracer, "fetch"):
                pass
        doc = spans_to_chrome_trace(tracer.roots)
        lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert lanes == {1}

    def test_real_parallel_engine_records_native_tids(self, smooth_dem):
        engine = BatchQueryEngine(IHilbertIndex(smooth_dem), workers=2)
        tracer = Tracer().attach(engine.index)
        vr = smooth_dem.value_range
        span = vr.hi - vr.lo
        queries = [ValueQuery(vr.lo + f * span, vr.lo + (f + 0.1) * span)
                   for f in (0.1, 0.3, 0.5, 0.7)]
        engine.run(queries)
        doc = spans_to_chrome_trace(tracer.roots)
        json.dumps(doc)
        workers = [e for e in doc["traceEvents"]
                   if e["ph"] == "X" and e["name"].startswith("worker[")]
        assert workers
        for event in workers:
            assert event["tid"] == event["args"]["tid"] > 0
        # Worker sub-spans ride their worker's lane, not lane 1.
        worker_tids = {e["tid"] for e in workers}
        groups = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"].startswith("group[")]
        assert groups
        assert {e["tid"] for e in groups} <= worker_tids

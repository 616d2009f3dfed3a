"""Tests for EXPLAIN (ANALYZE): report contents, planner estimation
error bounds, and the CLI subcommand."""

import json

import numpy as np
import pytest

from repro.core import (
    IHilbertIndex,
    PlannedIndex,
    load_index,
    save_index,
)
from repro.obs.explain import explain, explain_to_dict, render_explain
from repro.synth import lyon_like


def _interval(field, frac_lo, frac_w):
    vr = field.value_range
    span = vr.hi - vr.lo
    lo = vr.lo + frac_lo * span
    return lo, lo + frac_w * span


QUERY_SHAPES = [(0.1, 0.2), (0.3, 0.3), (0.5, 0.1), (0.2, 0.5),
                (0.05, 0.8)]


# -- report contents ---------------------------------------------------------

def test_explain_without_analyze_runs_no_query(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    lo, hi = _interval(smooth_dem, 0.3, 0.3)
    report = explain(index, lo, hi)
    assert not report.analyzed
    assert report.actual_io is None
    assert report.trace_roots == []
    assert report.method == "I-Hilbert"
    assert report.executed_path == "filtered"
    assert report.est_page_reads >= 1
    assert 0.0 < report.est_selectivity < 1.0
    assert report.page_error is None and report.candidate_error is None


def test_explain_charges_no_accounted_io(smooth_dem):
    """The metadata scan behind FieldStatistics must not leak into the
    index's shared I/O counters."""
    index = IHilbertIndex(smooth_dem)
    index.stats.reset()
    lo, hi = _interval(smooth_dem, 0.3, 0.3)
    explain(index, lo, hi)
    assert index.stats.page_reads == 0
    assert index.stats.cache_hits == 0


def test_analyze_reports_actuals_and_trace(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    lo, hi = _interval(smooth_dem, 0.3, 0.3)
    report = explain(index, lo, hi, analyze=True)
    assert report.analyzed
    assert report.actual_io.page_reads > 0
    assert report.actual_candidates > 0
    assert report.actual_seconds > 0
    assert report.trace_roots and report.trace_roots[0].name == "query"
    # The tracer explain installs is temporary.
    from repro.obs.trace import NULL_TRACER
    assert index.tracer is NULL_TRACER


def test_explain_on_reloaded_index(smooth_dem, tmp_path):
    """A persisted index has no in-memory field; statistics come from a
    rolled-back metadata read and the report still analyzes cleanly."""
    save_index(IHilbertIndex(smooth_dem), tmp_path / "idx")
    index = load_index(tmp_path / "idx")
    assert index.field is None
    lo, hi = _interval_from_store(index, 0.3, 0.3)
    report = explain(index, lo, hi, analyze=True)
    assert report.analyzed
    assert report.actual_candidates > 0
    assert report.candidate_error == pytest.approx(0.0, abs=0.15)


def _interval_from_store(index, frac_lo, frac_w):
    vmins = index.store.read_range(
        0, len(index.store) - 1)["vmin"].astype(np.float64)
    index.stats.reset()
    index.clear_caches()
    lo_all, hi_all = vmins.min(), vmins.max()
    span = hi_all - lo_all
    lo = lo_all + frac_lo * span
    return lo, lo + frac_w * span


def test_planned_index_executed_path_matches_plan(smooth_dem):
    index = PlannedIndex(smooth_dem)
    vr = smooth_dem.value_range
    # Near-total interval: the planner picks the sequential sweep.
    report = explain(index, vr.lo, vr.hi, analyze=True)
    assert report.plan.path == "scan"
    assert report.executed_path == "scan"
    assert report.actual_io.sequential_reads >= report.actual_io.random_reads


# -- estimation error (the planner-trust satellite) --------------------------

@pytest.mark.parametrize("shape", QUERY_SHAPES)
def test_candidate_estimate_bounded_fractal(smooth_dem, rough_dem, shape):
    """FieldStatistics selectivity stays within 10% of the exact
    candidate count on fractal fields, smooth and rough."""
    for field in (smooth_dem, rough_dem):
        index = IHilbertIndex(field)
        lo, hi = _interval(field, *shape)
        report = explain(index, lo, hi, analyze=True)
        assert report.actual_candidates > 0
        assert abs(report.candidate_error) <= 0.10


@pytest.mark.parametrize("shape", QUERY_SHAPES)
def test_candidate_estimate_bounded_monotonic(mono_dem, shape):
    """On the 256-cell monotonic ramp each histogram bin holds few
    cells, so the bound is looser but still must hold."""
    index = IHilbertIndex(mono_dem)
    lo, hi = _interval(mono_dem, *shape)
    report = explain(index, lo, hi, analyze=True)
    assert report.actual_candidates > 0
    assert abs(report.candidate_error) <= 0.25


@pytest.mark.parametrize("shape", QUERY_SHAPES)
def test_page_estimate_exact_for_grouped_index(smooth_dem, shape):
    """The plan's page estimate comes from the real subfield metadata,
    so for the executed filtered path it is exact."""
    index = IHilbertIndex(smooth_dem)
    lo, hi = _interval(smooth_dem, *shape)
    report = explain(index, lo, hi, analyze=True)
    assert report.page_error == 0.0


def _spans_named(spans, name):
    for span in spans:
        if span.name == name:
            yield span
        yield from _spans_named(span.children, name)


@pytest.mark.parametrize("kind", ["dem", "tin"])
def test_plan_runs_and_pages_are_the_executors(kind, smooth_dem):
    """est_runs is the fetch span's run count and est_pages the cold
    query's data-pool misses, over random queries."""
    field = smooth_dem if kind == "dem" else lyon_like(num_sites=180,
                                                       seed=23)
    index = IHilbertIndex(field)
    rng = np.random.default_rng(8)
    for _ in range(20):
        lo, hi = _interval(field, rng.uniform(0.0, 0.9),
                           rng.uniform(0.0, 0.4))
        before = index.store.pool.counters()
        report = explain(index, lo, hi, analyze=True)
        misses = index.store.pool.counters().diff(before).misses
        fetch = list(_spans_named(report.trace_roots, "fetch"))
        runs = fetch[0].attrs["runs"] if fetch else 0
        assert report.plan.est_runs == runs
        assert report.plan.est_pages == misses


# -- rendering and JSON ------------------------------------------------------

def test_render_explain_text(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    lo, hi = _interval(smooth_dem, 0.3, 0.3)
    text = render_explain(explain(index, lo, hi, analyze=True))
    assert text.startswith("EXPLAIN ANALYZE value query")
    assert "filtered: cost=" in text
    assert "scan:     cost=" in text
    assert "chosen path:" in text
    assert "estimation error:" in text
    assert "trace:" in text


def test_explain_to_dict_json_safe(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    lo, hi = _interval(smooth_dem, 0.3, 0.3)
    payload = explain_to_dict(explain(index, lo, hi, analyze=True))
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["analyzed"] is True
    assert round_tripped["plan"]["path"] in ("filtered", "scan")
    assert round_tripped["actual"]["page_reads"] > 0
    assert round_tripped["error"]["pages"] is not None


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def cli_index(tmp_path):
    from repro.cli import main
    from repro.synth import roseburg_like_heights

    heights = tmp_path / "terrain.npy"
    np.save(heights, roseburg_like_heights(cells_per_side=32))
    index_dir = tmp_path / "idx"
    assert main(["build", str(heights), str(index_dir)]) == 0
    return index_dir


def test_cli_explain(cli_index, capsys):
    from repro.cli import main

    capsys.readouterr()
    assert main(["explain", str(cli_index), "250", "300"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("EXPLAIN value query [250, 300]")
    assert "chosen path:" in out
    assert "actual:" not in out


def test_cli_explain_analyze(cli_index, capsys):
    from repro.cli import main

    capsys.readouterr()
    assert main(["explain", str(cli_index), "250", "300",
                 "--analyze"]) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN ANALYZE" in out
    assert "page reads:" in out
    assert "estimation error:" in out
    assert "pages:      estimated" in out


def test_cli_explain_json_and_trace(cli_index, tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "explain-trace.json"
    capsys.readouterr()
    assert main(["explain", str(cli_index), "250", "300", "--analyze",
                 "--json", "--trace", str(trace_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analyzed"] is True
    assert payload["actual"]["candidates"] > 0

    doc = json.loads(trace_path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert (sum(e["args"]["page_reads_self"] for e in events)
            == payload["actual"]["page_reads"])

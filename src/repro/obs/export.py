"""Exporters: span trees (text/JSONL/Chrome trace) and Prometheus text.

The Chrome trace format (``{"traceEvents": [...]}`` with complete
``"ph": "X"`` events, microsecond timestamps) loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; each event
carries the span's I/O deltas in ``args``, with ``page_reads_self``
holding the *exclusive* delta, so summing it over every event
reconstructs the run's total page reads exactly.  Spans carrying a
``tid`` attribute (the batch engine's ``worker[w]`` spans, which
record their OS thread id) land on their own lane, with a
``thread_name`` metadata event naming it — so Perfetto shows one lane
per worker instead of one flat lane.

:func:`render_prometheus` is the one text exposition of a
:class:`~repro.obs.metrics.MetricsRegistry`: the full Prometheus text
format, with correct label-value and help-text escaping.  The serving
layer's ``GET /metrics`` and its ``metrics`` verb both serve it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import Histogram, REGISTRY
from .trace import Span, Tracer


def _as_spans(spans) -> list[Span]:
    """Accept a Tracer, one Span, or an iterable of root spans."""
    if isinstance(spans, Tracer):
        return list(spans.roots)
    if isinstance(spans, Span):
        return [spans]
    return list(spans)


def _io_args(span: Span) -> dict:
    """Counter payload of one span, for JSON exporters."""
    args = dict(span.attrs)
    io, self_io = span.io, span.self_io
    if io is not None:
        args.update(
            page_reads=io.page_reads,
            page_reads_self=self_io.page_reads,
            random_reads=io.random_reads,
            sequential_reads=io.sequential_reads,
            skipped_pages=io.skipped_pages,
            cache_hits=io.cache_hits,
            page_writes=io.page_writes,
        )
        # Fault-path counters only appear when something actually went
        # wrong, keeping the common-case payload unchanged.
        if io.read_retries:
            args["read_retries"] = io.read_retries
        if io.checksum_failures:
            args["checksum_failures"] = io.checksum_failures
    pool, self_pool = span.pool, span.self_pool
    if pool is not None:
        args.update(
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            pool_evictions=pool.evictions,
            pool_hits_self=self_pool.hits,
        )
    return args


# -- text ------------------------------------------------------------------

def render_span_tree(spans) -> str:
    """Readable tree: wall time + page-read split per span.

    ``spans`` may be a :class:`Tracer`, one root :class:`Span`, or a
    list of roots.
    """
    roots = _as_spans(spans)
    lines: list[str] = []
    for root in roots:
        _render_one(root, lines, prefix="", is_last=True, is_root=True)
    return "\n".join(lines)


def _span_label(span: Span) -> str:
    parts = [f"{span.name}", f"{span.duration_ms:8.3f} ms"]
    io = span.io
    if io is not None:
        parts.append(f"pages={io.page_reads}"
                     f" ({io.random_reads} rnd + {io.sequential_reads} seq)")
        if io.cache_hits:
            parts.append(f"hits={io.cache_hits}")
    if span.attrs:
        attrs = " ".join(f"{k}={_fmt(v)}" for k, v in span.attrs.items())
        parts.append(f"[{attrs}]")
    return "  ".join(parts)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render_one(span: Span, lines: list[str], prefix: str,
                is_last: bool, is_root: bool = False) -> None:
    if is_root:
        lines.append(_span_label(span))
        child_prefix = ""
    else:
        connector = "`-- " if is_last else "|-- "
        lines.append(prefix + connector + _span_label(span))
        child_prefix = prefix + ("    " if is_last else "|   ")
    for i, child in enumerate(span.children):
        _render_one(child, lines, child_prefix,
                    is_last=(i == len(span.children) - 1))


# -- JSONL -----------------------------------------------------------------

def span_to_dict(span: Span, depth: int = 0) -> dict:
    """Flat JSON-safe record of one span (no children)."""
    record = {
        "name": span.name,
        "depth": depth,
        "start_ns": span.t0_ns,
        "duration_ms": span.duration_ms,
        "children": len(span.children),
    }
    record.update(_io_args(span))
    return record


def spans_to_jsonl(spans) -> str:
    """One JSON object per span, pre-order, ``depth`` giving nesting."""
    lines = []
    for root in _as_spans(spans):
        for span, depth in root.walk():
            lines.append(json.dumps(span_to_dict(span, depth),
                                    sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


# -- nested dict (qlog, JSON payloads) --------------------------------------

def span_to_tree(span: Span) -> dict:
    """Recursive JSON-safe record of one span including its children.

    The shape the slow-query log embeds: ``name``/``duration_ms``/
    counter args at each node, children nested under ``children`` (the
    key is omitted for leaves, keeping common entries compact).
    """
    record = {"name": span.name, "duration_ms": round(span.duration_ms, 4)}
    record.update(_io_args(span))
    if span.children:
        record["children"] = [span_to_tree(c) for c in span.children]
    return record


# -- Chrome trace-event JSON (Perfetto) ------------------------------------

def spans_to_chrome_trace(spans, process_name: str = "repro") -> dict:
    """Chrome trace-event document for a span forest.

    Events are complete (``"ph": "X"``) with microsecond ``ts``/``dur``
    relative to the earliest span.  Every span inherits its lane
    (``tid``) from the nearest ancestor carrying a ``tid`` attribute —
    the batch engine's ``worker[w]`` spans record their OS thread id
    there — and falls back to lane 1, so one-worker traces render
    exactly as before while multi-worker traces fan out into one lane
    per worker.
    Each distinct lane gets a ``thread_name`` metadata event (the
    naming span's name), and per-span counter deltas ride in ``args``.
    """
    roots = _as_spans(spans)
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]
    lane_names: dict[int, str] = {}
    if roots:
        base_ns = min(root.t0_ns for root in roots)
        for root in roots:
            # walk() is pre-order, so a stack of (span, inherited tid)
            # keeps each span on its nearest ancestor's lane.
            todo = [(root, 1)]
            while todo:
                span, tid = todo.pop()
                own = span.attrs.get("tid")
                if isinstance(own, int) and not isinstance(own, bool):
                    tid = own
                    lane_names.setdefault(tid, span.name)
                events.append({
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (span.t0_ns - base_ns) / 1e3,
                    "dur": (span.t1_ns - span.t0_ns) / 1e3,
                    "args": _io_args(span),
                })
                for child in reversed(span.children):
                    todo.append((child, tid))
    for tid, name in sorted(lane_names.items()):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- Prometheus text exposition ---------------------------------------------

def _prom_label_value(value) -> str:
    """Escape one label value per the exposition-format spec."""
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _prom_help(text: str) -> str:
    """Escape help text (backslash and newline only; quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: dict, **extra) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_prom_label_value(v)}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_number(value) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) \
        and not float(value).is_integer() else str(int(value))


def render_prometheus(registry=None) -> str:
    """Render a metrics registry in the Prometheus text format (0.0.4).

    Escapes label values and help text, renders histograms with
    per-``le`` cumulative buckets (``+Inf`` included) plus
    ``_sum``/``_count``, and emits ``# HELP``/``# TYPE`` headers for
    every family with data.  The output is what the server's ``GET
    /metrics`` listener and the ``metrics`` verb's ``"prometheus"`` and
    ``"text"`` formats serve.
    """
    if registry is None:
        registry = REGISTRY
    lines: list[str] = []
    for name, metric in sorted(registry._metrics.items()):
        series = metric.collect()["series"]
        if not series:
            continue
        if metric.help:
            lines.append(f"# HELP {name} {_prom_help(metric.help)}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for row in series:
                labels = row["labels"]
                cumulative = 0
                for bound, count in zip(metric.buckets,
                                        row["bucket_counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(labels, le=_prom_number(bound))}"
                        f" {cumulative}")
                cumulative += row["bucket_counts"][len(metric.buckets)]
                lines.append(f"{name}_bucket"
                             f"{_prom_labels(labels, le='+Inf')}"
                             f" {cumulative}")
                lines.append(f"{name}_sum{_prom_labels(labels)} "
                             f"{_prom_number(row['sum'])}")
                lines.append(f"{name}_count{_prom_labels(labels)} "
                             f"{row['count']}")
        else:
            for row in series:
                lines.append(f"{name}{_prom_labels(row['labels'])} "
                             f"{_prom_number(row['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(spans, path: str | Path,
                process_name: str = "repro") -> int:
    """Write a span forest to ``path``; returns the span count.

    A ``.jsonl`` suffix selects the flat JSONL format; anything else
    gets Chrome trace-event JSON (Perfetto-loadable).
    """
    path = Path(path)
    roots = _as_spans(spans)
    count = sum(1 for root in roots for _ in root.walk())
    if path.suffix == ".jsonl":
        path.write_text(spans_to_jsonl(roots))
    else:
        path.write_text(json.dumps(spans_to_chrome_trace(
            roots, process_name=process_name), indent=1))
    return count

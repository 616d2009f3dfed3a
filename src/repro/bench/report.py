"""Plain-text rendering of experiment results.

Prints the same series the paper plots: mean query execution time per
Qinterval per method, plus the I/O decomposition that explains the time,
and speedup rows against the LinearScan baseline.
"""

from __future__ import annotations

from .harness import ExperimentResult


def _fmt(value: float, width: int = 10) -> str:
    if value >= 1000:
        return f"{value:>{width}.0f}"
    if value >= 10:
        return f"{value:>{width}.1f}"
    return f"{value:>{width}.3f}"


def format_result(result: ExperimentResult,
                  metrics: tuple[str, ...] = ("mean_ms", "mean_pages",
                                              "mean_random"),
                  base: str = "LinearScan") -> str:
    """Render an experiment as aligned text tables."""
    lines: list[str] = []
    lines.append(f"== {result.name} ==")
    info = ", ".join(f"{k}={v}" for k, v in result.field_info.items())
    lines.append(f"field: {info}")
    for series in result.series:
        extra = {k: v for k, v in series.info.items()
                 if k in ("subfields", "index_pages", "data_pages",
                          "curve", "threshold")}
        extras = ", ".join(f"{k}={v}" for k, v in extra.items())
        lines.append(
            f"build[{series.method}] = {series.build_seconds:.2f}s"
            + (f"  ({extras})" if extras else ""))

    metric_titles = {
        "mean_ms": "mean query time (ms, CPU + simulated disk)",
        "mean_cpu_ms": "mean CPU time (ms)",
        "mean_disk_ms": "mean simulated disk time (ms)",
        "mean_pages": "mean page reads",
        "mean_random": "mean random reads",
        "mean_sequential": "mean sequential reads",
        "mean_io_cost": "weighted I/O cost",
        "mean_candidates": "mean candidate cells",
    }
    methods = [s.method for s in result.series]
    for metric in metrics:
        lines.append("")
        lines.append(f"-- {metric_titles.get(metric, metric)} --")
        header = f"{'Qinterval':>10}" + "".join(
            f"{m:>14}" for m in methods)
        lines.append(header)
        for i, q in enumerate(result.qintervals):
            row = f"{q:>10.3f}"
            for series in result.series:
                row += _fmt(getattr(series.points[i], metric), 14)
            lines.append(row)

    if base in methods:
        lines.append("")
        lines.append(f"-- speedup vs {base} (query time) --")
        header = f"{'Qinterval':>10}" + "".join(
            f"{m:>14}" for m in methods if m != base)
        lines.append(header)
        for i, q in enumerate(result.qintervals):
            row = f"{q:>10.3f}"
            for series in result.series:
                if series.method == base:
                    continue
                ratio = result.speedup(series.method, base)[i]
                row += f"{ratio:>13.1f}x"
            lines.append(row)
    return "\n".join(lines)


def print_result(result: ExperimentResult, **kwargs) -> None:
    """Print :func:`format_result` output."""
    print(format_result(result, **kwargs))


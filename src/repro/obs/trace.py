"""Hierarchical query-lifecycle tracing.

The paper's argument is about *where* a query spends its page reads
(clustered sequential bursts vs. scattered random probes), but end-of-
query ``IOStats`` totals cannot show that.  A :class:`Tracer` captures a
tree of context-manager *spans* (``query → plan → filter → fetch →
estimate``, and ``batch → merge → group[i]`` in the batch engine), each
recording wall time plus the :class:`~repro.storage.stats.IOStats` and
buffer-pool counter deltas that accumulated while it was open.

Tracing is strictly opt-in.  Every index carries
:data:`NULL_TRACER` by default, whose :meth:`~NullTracer.span` returns a
shared no-op context manager — no allocations, no counter reads, no
side effects — so the disabled hot path is indistinguishable from an
uninstrumented build (``tests/test_obs_trace.py`` pins this).

Usage::

    tracer = Tracer().attach(index)     # installs as index.tracer
    index.query(ValueQuery(0.4, 0.6))
    print(render_span_tree(tracer.roots))
"""

from __future__ import annotations

import time

from ..storage.buffer import PoolCounters
from ..storage.stats import IOStats


class Span:
    """One traced section: wall time + I/O and pool counter deltas.

    Spans are context managers handed out by :meth:`Tracer.span`; they
    nest through the tracer's stack, so the span opened innermost
    becomes a child of the one surrounding it.

    ``io``/``pool`` hold *inclusive* deltas (everything that happened
    while the span was open, children included); :attr:`self_io` and
    :attr:`self_pool` subtract the children, so self deltas over a span
    tree partition the root's totals exactly.
    """

    __slots__ = ("name", "attrs", "children", "t0_ns", "t1_ns", "io",
                 "pool", "_tracer", "_io0", "_pool0")

    #: Real spans record; the shared null span reports ``False``.
    enabled = True

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.t0_ns = 0
        self.t1_ns = 0
        self.io: IOStats | None = None
        self.pool: PoolCounters | None = None
        self._tracer = tracer
        self._io0: IOStats | None = None
        self._pool0: PoolCounters | None = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stats = tracer.stats
        if stats is not None:
            self._io0 = stats.snapshot()
        if tracer.pools:
            self._pool0 = tracer._pool_totals()
        tracer._stack.append(self)
        self.t0_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1_ns = time.perf_counter_ns()
        tracer = self._tracer
        stats = tracer.stats
        if stats is not None and self._io0 is not None:
            self.io = stats.diff(self._io0)
        if self._pool0 is not None:
            self.pool = tracer._pool_totals().diff(self._pool0)
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(self)
        else:
            tracer.roots.append(self)
        return False

    # -- derived views -------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        """Wall time the span was open, in milliseconds."""
        return (self.t1_ns - self.t0_ns) / 1e6

    @property
    def self_io(self) -> IOStats | None:
        """I/O of this span minus its children (exclusive delta)."""
        io = self.io
        if io is None:
            return None
        for child in self.children:
            if child.io is not None:
                io = io.diff(child.io)
        return io

    @property
    def self_pool(self) -> PoolCounters | None:
        """Pool traffic of this span minus its children."""
        pool = self.pool
        if pool is None:
            return None
        for child in self.children:
            if child.pool is not None:
                pool = pool.diff(child.pool)
        return pool

    def walk(self):
        """Yield ``(span, depth)`` over the subtree, pre-order."""
        todo = [(self, 0)]
        while todo:
            span, depth = todo.pop()
            yield span, depth
            for child in reversed(span.children):
                todo.append((child, depth + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
                f"children={len(self.children)})")


class Tracer:
    """Collects a forest of :class:`Span` trees for one traced run.

    Parameters
    ----------
    stats:
        The :class:`IOStats` object spans snapshot on entry/exit.  Use
        :meth:`attach` to bind to an index's shared counter.
    pools:
        Buffer pools whose hit/miss/eviction counters spans also delta.
    """

    enabled = True

    def __init__(self, stats: IOStats | None = None, pools=()) -> None:
        self.stats = stats
        self.pools = tuple(pools)
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, attrs: dict | None = None) -> Span:
        """Open a new span (use as a context manager)."""
        return Span(self, name, attrs)

    def attach(self, index) -> "Tracer":
        """Bind to a :class:`~repro.core.base.ValueIndex` and install.

        Points the tracer at the index's shared ``IOStats`` and its
        buffer pools (data file plus, when present, the R*-tree file),
        and sets ``index.tracer = self`` so every query through the
        index records spans.  Returns ``self`` for chaining.
        """
        self.stats = index.stats
        self.pools = tuple(index.pools())
        index.tracer = self
        return self

    @staticmethod
    def detach(index) -> None:
        """Restore the index's no-op tracer."""
        index.tracer = NULL_TRACER

    def clear(self) -> None:
        """Drop every recorded span (open spans are abandoned too)."""
        self.roots = []
        self._stack = []

    def _pool_totals(self) -> PoolCounters:
        h = m = e = 0
        for pool in self.pools:
            h += pool.hits
            m += pool.misses
            e += pool.evictions
        return PoolCounters(hits=h, misses=m, evictions=e)


class _NullSpan:
    """Shared do-nothing span: the disabled tracer's context manager."""

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead stand-in used when tracing is off.

    :meth:`span` hands back one shared singleton, so the instrumented
    hot paths allocate nothing and touch no counters when disabled.
    """

    __slots__ = ()

    enabled = False
    roots: tuple = ()

    def span(self, name: str, attrs: dict | None = None) -> _NullSpan:
        """Return the shared no-op span (ignores its arguments)."""
        return _NULL_SPAN

    def clear(self) -> None:
        """No-op: a disabled tracer records nothing to drop."""
        pass


#: Process-wide disabled tracer every index starts with.
NULL_TRACER = NullTracer()

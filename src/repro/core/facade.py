"""Engine facade: the one API every front end drives the engine through.

The CLI, the bench harness, and the serve layer all need the same five
verbs — open a field, query it, run a batch, apply updates, snapshot it
— and before this module each of them re-plumbed index construction,
engine selection and buffer-pool bookkeeping on its own.
:class:`EngineFacade` centralizes that: it keeps a registry of named
fields (each a built :class:`~repro.core.base.ValueIndex`), serializes
engine access per field (the engines mutate index state and are not
reentrant), brackets every call with buffer-pool tenant attribution,
and runs batches through :class:`~repro.core.batch.BatchQueryEngine`
with the handle's worker budget.  The shard and serve tiers grow
behind this API instead of re-plumbing CLI internals.

A field can be opened from four kinds of source:

* a built :class:`~repro.core.base.ValueIndex` (used directly);
* an in-memory :class:`~repro.field.base.Field` (indexed on open);
* a saved index directory (``meta.json`` present — reloaded via
  :func:`~repro.core.persist.load_index`);
* a field file (``.npy`` heights or ``.npz`` TIN — indexed on open).

Example::

    facade = EngineFacade()
    facade.open_field("terrain", "terrain-index/")
    result = facade.query("terrain", 300.0, 320.0, tenant="alice")
    batch = facade.batch("terrain", [(300, 320), (100, 150)])
    facade.snapshot("terrain", "terrain-index/")
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..field.base import Field
from ..obs.trace import Tracer
from ..storage import IOStats, PoolCounters
from .base import EstimateMode, FaultMode, ValueIndex
from .batch import BatchQueryEngine, BatchResult, DEFAULT_BATCH_CACHE_PAGES
from .ihilbert import IHilbertIndex
from .persist import load_index, save_index
from .query import QueryResult, ValueQuery


class FacadeError(Exception):
    """Base class for facade-level failures (not engine/storage faults)."""


def load_field_file(path: str | Path) -> Field:
    """Load a field file: ``.npy`` DEM heights or a ``.npz`` TIN.

    Any other suffix, and an archive without ``points`` and ``values``
    arrays, raise :class:`FacadeError`.
    """
    path = Path(path)
    if path.suffix == ".npy":
        from ..field.dem import DEMField
        return DEMField(np.load(path))
    if path.suffix != ".npz":
        raise FacadeError(
            f"{path}: unsupported field file (use .npy heights or .npz "
            f"TIN)")
    from ..field.tin import TINField
    data = np.load(path)
    for key in ("points", "values"):
        if key not in data:
            raise FacadeError(
                f"{path}: TIN archives need 'points' and 'values' "
                f"arrays (optional 'triangles')")
    triangles = data["triangles"] if "triangles" in data else None
    return TINField(data["points"], data["values"], triangles=triangles)


def _sum_counts(reports, total: dict | None = None) -> dict:
    """Key-wise sum of nested count dicts, one per buffer pool.

    Every frame lives in exactly one pool, so the sums keep each pool's
    residency invariant (exclusive + shared + unattributed == resident).
    """
    total = {} if total is None else total
    for report in reports:
        for key, value in report.items():
            if isinstance(value, dict):
                _sum_counts([value], total.setdefault(key, {}))
            else:
                total[key] = total.get(key, 0) + value
    return total


class UnknownFieldError(FacadeError):
    """A verb named a field that is not open."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        self.name = name
        super().__init__(
            f"no open field named {name!r}"
            + (f" (open: {', '.join(sorted(known))})" if known
               else " (no fields are open)"))


class FieldExistsError(FacadeError):
    """``open_field`` named a field that is already open."""


class FieldHandle:
    """One open field: its index, engine settings, and request lock."""

    __slots__ = ("name", "index", "workers", "cache_pages", "source",
                 "lock", "queries", "updates")

    def __init__(self, name: str, index: ValueIndex, workers: int,
                 cache_pages: int, source: str) -> None:
        self.name = name
        self.index = index
        self.workers = workers
        self.cache_pages = cache_pages
        self.source = source
        #: Serializes engine access: the engines mutate index state
        #: (fault mode, tracer, pool capacities) and are not reentrant.
        self.lock = threading.Lock()
        self.queries = 0
        self.updates = 0

    def pools(self) -> list:
        """Every buffer pool requests on this field read through."""
        return self.index.pools()


class EngineFacade:
    """Named-field registry + the five engine verbs behind one API.

    Parameters
    ----------
    default_workers:
        Worker-thread budget a field opens with when ``open_field`` does
        not override it (1 = run batches inline).
    default_cache_pages:
        Shared buffer-pool capacity lent to an engine per batch, as in
        :class:`~repro.core.batch.BatchQueryEngine`.

    A source that needs indexing (an in-memory field or a field file)
    is indexed with I-Hilbert, the paper's winner.
    """

    def __init__(self, default_workers: int = 1,
                 default_cache_pages: int = DEFAULT_BATCH_CACHE_PAGES
                 ) -> None:
        if default_workers < 1:
            raise ValueError(
                f"default_workers must be >= 1, got {default_workers}")
        if default_cache_pages < 0:
            raise ValueError(f"default_cache_pages must be >= 0, "
                             f"got {default_cache_pages}")
        self.default_workers = default_workers
        self.default_cache_pages = default_cache_pages
        self._fields: dict[str, FieldHandle] = {}
        self._lock = threading.Lock()

    # -- registry -----------------------------------------------------------

    def open_field(self, name: str, source, *, workers: int | None = None,
                   cache_pages: int | None = None) -> dict:
        """Open ``source`` under ``name`` and return its description.

        ``source`` may be a built index, an in-memory field, a saved
        index directory, or a field file (see module docstring).
        Opening an already-open name raises :class:`FieldExistsError`.
        """
        workers = self.default_workers if workers is None else workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        cache_pages = (self.default_cache_pages if cache_pages is None
                       else cache_pages)
        if cache_pages < 0:
            raise ValueError(
                f"cache_pages must be >= 0, got {cache_pages}")
        index, origin = self._resolve_source(source)
        with self._lock:
            if name in self._fields:
                raise FieldExistsError(f"field {name!r} is already open")
            handle = FieldHandle(name, index, workers, cache_pages, origin)
            self._fields[name] = handle
        return self.describe(name)

    def _resolve_source(self, source) -> tuple[ValueIndex, str]:
        """Build/load an index from any supported source kind."""
        if isinstance(source, ValueIndex):
            return source, "index-object"
        if isinstance(source, Field):
            return IHilbertIndex(source), "field-object"
        path = Path(source)
        if path.is_dir():
            return load_index(path), str(path)
        if path.suffix in (".npy", ".npz"):
            return IHilbertIndex(load_field_file(path)), str(path)
        raise FacadeError(
            f"{path}: unsupported field source (expected an index "
            f"directory, .npy heights, or a .npz TIN)")

    def close_field(self, name: str) -> None:
        """Forget an open field (its in-memory pages are released)."""
        with self._lock:
            if name not in self._fields:
                raise UnknownFieldError(name, self._fields)
            del self._fields[name]

    def field_names(self) -> list[str]:
        """Names of every open field, sorted."""
        with self._lock:
            return sorted(self._fields)

    def handle(self, name: str) -> FieldHandle:
        """The :class:`FieldHandle` of an open field."""
        with self._lock:
            try:
                return self._fields[name]
            except KeyError:
                raise UnknownFieldError(name, self._fields) from None

    # -- engine verbs -------------------------------------------------------

    def query(self, name: str, lo: float, hi: float, *,
              estimate: EstimateMode = "area",
              on_fault: FaultMode = "raise",
              tenant: str | None = None,
              tracer: Tracer | None = None) -> QueryResult:
        """Run one value query against an open field.

        With ``tracer``, the call's ``query → plan/filter/fetch/
        estimate`` span tree records onto it (installed on the index
        for just this call, under the handle lock) — the hook the
        serving layer uses to join engine spans into a per-request
        trace.
        """
        handle = self.handle(name)
        query = ValueQuery(float(lo), float(hi))
        with handle.lock, self._tenancy(handle, tenant), \
                self._traced(handle, tracer):
            result = handle.index.query(query, estimate=estimate,
                                        on_fault=on_fault)
            handle.queries += 1
        return result

    def aggregate(self, name: str, kind: str, lo: float, hi: float, *,
                  tolerance: float | None = None, mode: str = "hybrid",
                  tenant: str | None = None,
                  tracer: Tracer | None = None):
        """Approximate COUNT/SUM/AVG/area over a value interval.

        Answered from the index's learned polynomial models with a
        guaranteed error bound; ``tolerance``/``mode`` select the
        accuracy-vs-speed point (see ``repro.core.aggregate``).  Indexes
        without subfield models (e.g. LinearScan) support only
        ``mode="exact"``.
        """
        handle = self.handle(name)
        with handle.lock, self._tenancy(handle, tenant), \
                self._traced(handle, tracer):
            result = handle.index.aggregate(
                kind, float(lo), float(hi), tolerance=tolerance, mode=mode)
            handle.queries += 1
        return result

    def batch(self, name: str, queries: Sequence, *,
              estimate: EstimateMode = "area",
              on_fault: FaultMode = "raise",
              tenant: str | None = None,
              workers: int | None = None,
              cache_pages: int | None = None,
              merge: bool = True,
              tracer: Tracer | None = None) -> BatchResult:
        """Run a batch of value queries through the handle's engine.

        ``queries`` accepts :class:`~repro.core.query.ValueQuery`
        objects or ``(lo, hi)`` pairs.  ``workers``/``cache_pages``
        override the handle's defaults for this batch only; ``tracer``
        records the engine span tree for just this call.
        """
        handle = self.handle(name)
        parsed = [q if isinstance(q, ValueQuery)
                  else ValueQuery(float(q[0]), float(q[1]))
                  for q in queries]
        workers = handle.workers if workers is None else workers
        cache_pages = (handle.cache_pages if cache_pages is None
                       else cache_pages)
        with handle.lock, self._tenancy(handle, tenant), \
                self._traced(handle, tracer):
            result = BatchQueryEngine(
                handle.index, workers=workers, cache_pages=cache_pages,
                merge=merge).run(parsed, estimate=estimate,
                                 on_fault=on_fault)
            handle.queries += len(parsed)
        return result

    def update(self, name: str, vertex_ids, values,
               tenant: str | None = None,
               tracer: Tracer | None = None) -> int:
        """Apply vertex-value updates to an open field.

        Returns the number of dirty cells rewritten.  Requires the
        field data to be attached (an index reloaded from a directory
        carries records but no vertices; feed it ``update_cells``
        batches directly instead).
        """
        handle = self.handle(name)
        if handle.index.field is None:
            raise FacadeError(
                f"field {name!r} carries no in-memory field data "
                f"(reloaded from disk); vertex updates need the field")
        with handle.lock, self._tenancy(handle, tenant), \
                self._traced(handle, tracer):
            dirty = handle.index.apply_updates(
                np.asarray(vertex_ids, dtype=np.int64),
                np.asarray(values, dtype=np.float32))
            handle.updates += len(dirty)
        return int(len(dirty))

    def snapshot(self, name: str, directory) -> str:
        """Persist an open field's index crash-safely; returns the path."""
        handle = self.handle(name)
        if getattr(handle.index, "tree", None) is None:
            raise FacadeError(
                f"field {name!r} ({handle.index.name}) has no persistent "
                f"form; only grouped indexes snapshot")
        with handle.lock:
            save_index(handle.index, directory)
        return str(directory)

    # -- introspection ------------------------------------------------------

    def describe(self, name: str) -> dict:
        """Build-time description of one open field (JSON-safe)."""
        handle = self.handle(name)
        info = handle.index.describe()
        info.update(field=name, workers=handle.workers,
                    cache_pages=handle.cache_pages, source=handle.source)
        return info

    def stats(self, name: str | None = None) -> dict:
        """Serving statistics: I/O, pool and per-tenant accounting.

        With ``name`` the report covers one field; without it, every
        open field (keyed under ``"fields"``).  The ``pool`` block,
        ``tenants`` and ``residency`` cover every pool of the field
        (:meth:`~repro.core.base.ValueIndex.pools`): ``capacity`` is
        the largest pool's, the counts are sums.
        """
        if name is None:
            return {"fields": {n: self.stats(n)
                               for n in self.field_names()}}
        handle = self.handle(name)
        index = handle.index
        io: IOStats = index.stats
        pools = handle.pools()
        pool = sum((p.counters() for p in pools), PoolCounters())
        residency = _sum_counts(p.tenant_residency() for p in pools)
        residency["tenants"] = dict(sorted(residency["tenants"].items()))
        return {
            "field": name,
            "method": index.name,
            "cells": len(index.store),
            "data_pages": index.data_pages,
            "index_pages": index.index_pages,
            "queries": handle.queries,
            "updates": handle.updates,
            "io": {
                "page_reads": io.page_reads,
                "random_reads": io.random_reads,
                "sequential_reads": io.sequential_reads,
                "cache_hits": io.cache_hits,
                "page_writes": io.page_writes,
            },
            "pool": {
                "hits": pool.hits,
                "misses": pool.misses,
                "evictions": pool.evictions,
                "capacity": max(p.capacity for p in pools),
                "resident_pages": residency["resident_pages"],
            },
            "tenants": _sum_counts(
                {tenant: counters.to_dict()
                 for tenant, counters in p.tenant_counters().items()}
                for p in pools),
            "residency": residency,
        }

    # -- internals ----------------------------------------------------------

    class _Tenancy:
        """Context manager attributing pool reads to one tenant."""

        __slots__ = ("pools", "tenant", "_saved")

        def __init__(self, pools, tenant):
            self.pools = pools
            self.tenant = tenant
            self._saved = []

        def __enter__(self):
            self._saved = [pool.set_tenant(self.tenant)
                           for pool in self.pools]
            return self

        def __exit__(self, *exc):
            for pool, previous in zip(self.pools, self._saved):
                pool.set_tenant(previous)
            return False

    def _tenancy(self, handle: FieldHandle, tenant: str | None):
        """Bracket an engine call with tenant attribution (no-op when
        ``tenant`` is None).  Callers hold the handle lock, so the
        pool's current-tenant attribute cannot be clobbered
        mid-request."""
        return self._Tenancy(handle.pools() if tenant is not None else [],
                             tenant)

    class _Traced:
        """Install a per-call tracer on the index, restore on exit."""

        __slots__ = ("index", "tracer", "_previous")

        def __init__(self, index, tracer):
            self.index = index
            self.tracer = tracer
            self._previous = None

        def __enter__(self):
            if self.tracer is not None:
                self._previous = self.index.tracer
                self.tracer.attach(self.index)
            return self

        def __exit__(self, *exc):
            if self.tracer is not None:
                self.index.tracer = self._previous
            return False

    def _traced(self, handle: FieldHandle, tracer: Tracer | None):
        """Bracket an engine call with a caller-supplied tracer (no-op
        when ``tracer`` is None).  Callers hold the handle lock, so the
        index's tracer slot cannot be clobbered mid-request; the
        batch engine's workers park/restore ``index.tracer`` inside this
        bracket, which composes (their restore happens first)."""
        return self._Traced(handle.index, tracer)

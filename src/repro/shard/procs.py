"""Multiprocessing transport for the scatter-gather filtering step.

One forked worker per shard.  Fork matters: the shard indexes —
numpy record stores, buffer pools, R*-trees — transfer to the children
as inherited memory, never pickled.  The parent scatters a query over
the pipes and gathers, per shard, the candidate bytes, the shard's
IOStats delta (folded into the coordinator's counters exactly as the
in-process transport folds them), and any survived page faults.  A
failed step sends its delta and faults too, plus the error: a
:class:`~repro.storage.faults.CorruptPageError` or
:class:`~repro.storage.faults.TransientIOError` as its disk, page id
and detail, so the parent raises the same typed error.

While a pool is live the parent's shard copies are frozen replicas:
the coordinator refuses mutating verbs until :meth:`ShardWorkerPool.close`,
because a child's writes would land in its private copy-on-write pages
and silently diverge from the parent.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import asdict

import numpy as np

from ..core.base import FilterStep
from ..storage import CorruptPageError, IOStats, PageFault, TransientIOError
from ..storage.codec import decode_records

#: Storage errors a worker reports by type; the parent rebuilds the
#: class named here (a remote fetch error comes back a TransientIOError).
_TYPED_ERRORS = (CorruptPageError, TransientIOError)


class ShardWorkerPool:
    """Forked per-shard workers speaking a tiny scatter/gather protocol."""

    def __init__(self, engine) -> None:
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:   # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "shard workers need the fork start method") from exc
        self._procs: list = []
        self._conns: list = []
        self._dtypes: list[np.dtype] = []
        for rt in engine.shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, rt.index),
                               name=f"{rt.name}-worker", daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._dtypes.append(rt.index.store.dtype)

    def fetch(self, lo: float, hi: float, fault_mode: str):
        """Scatter one filtering step; gather ``(chunks, deltas, faults,
        error)``.

        The scatter is issued to every worker before any gather, so the
        shards genuinely overlap; results are gathered in shard order,
        which keeps the merge deterministic.  Every reply's IOStats
        delta and faults are gathered, a failed step's too.  ``error``
        is the first failed shard's exception, for the caller to raise
        once it has folded the deltas: the typed storage error the
        worker hit, or :class:`~repro.shard.engine.ShardError` for any
        other failure.
        """
        for conn in self._conns:
            conn.send(("fetch", float(lo), float(hi), fault_mode))
        chunks, deltas, faults = [], [], []
        error = None
        for conn, dtype in zip(self._conns, self._dtypes):
            status, body, delta_dict, fault_tuples = conn.recv()
            deltas.append(IOStats(**delta_dict))
            faults.extend(PageFault(*tup) for tup in fault_tuples)
            if status == "ok":
                chunks.append(decode_records(body, dtype))
            elif error is None:
                error = _rebuild_error(*body)
        return chunks, deltas, faults, error

    def close(self) -> None:
        """Shut down the workers (graceful close, then terminate)."""
        for conn, proc in zip(self._conns, self._procs):
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():   # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)


def _worker_main(conn, index) -> None:
    """Worker loop: serve filtering steps for one inherited shard index."""
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request[0] == "close":
            break
        if request[0] != "fetch":   # pragma: no cover - protocol guard
            conn.send(("err", ("ProtocolError", f"unknown {request[0]!r}"),
                       asdict(IOStats()), []))
            continue
        _, lo, hi, fault_mode = request
        step = FilterStep(index, fault_mode)
        try:
            reply = ("ok", np.ascontiguousarray(step.run(lo, hi)).tobytes())
        except _TYPED_ERRORS as exc:
            kind = next(c for c in _TYPED_ERRORS if isinstance(exc, c))
            reply = ("err", (kind.__name__, exc.disk, exc.page_id,
                             exc.detail))
        except Exception as exc:   # other errors flatten at the boundary
            reply = ("err", (type(exc).__name__, str(exc)))
        faults = [(f.disk, f.page_id, f.kind, f.detail)
                  for f in step.faults]
        conn.send(reply + (asdict(step.io), faults))
    conn.close()


def _rebuild_error(kind: str, *args) -> Exception:
    """The parent-side exception of a worker's ``("err", body)`` reply."""
    for typed in _TYPED_ERRORS:
        if typed.__name__ == kind:
            return typed(*args)
    from .engine import ShardError
    return ShardError(f"shard worker failed: {kind}: {args[0]}")

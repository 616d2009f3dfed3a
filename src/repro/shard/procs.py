"""Multiprocessing transport for the scatter-gather filtering step.

One forked worker per shard.  Fork matters: the shard indexes —
numpy record stores, buffer pools, R*-trees — transfer to the children
as inherited memory, never pickled.  The parent scatters a query over
the pipes and gathers, per shard, the candidate bytes, the shard's
IOStats delta (folded into the coordinator's counters exactly as the
in-process transport folds them), and any survived page faults.

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
from ..storage import IOStats, PageFault
from ..storage.codec import decode_records


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
        """Scatter one filtering step; gather (chunks, deltas, faults).

        The scatter is issued to every worker before any gather, so the
        shards genuinely overlap; results are gathered in shard order,
        which keeps the merge deterministic.
        """
        for conn in self._conns:
            conn.send(("fetch", float(lo), float(hi), fault_mode))
        chunks, deltas, faults = [], [], []
        failure = None
        for conn, dtype in zip(self._conns, self._dtypes):
            reply = conn.recv()
            if reply[0] == "ok":
                _, raw, delta_dict, fault_tuples = reply
                chunks.append(decode_records(raw, dtype))
                deltas.append(IOStats(**delta_dict))
                faults.extend(PageFault(*tup) for tup in fault_tuples)
            elif failure is None:
                failure = reply
        if failure is not None:
            from .engine import ShardError
            raise ShardError(
                f"shard worker failed: {failure[1]}: {failure[2]}")
        return chunks, deltas, faults

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
            conn.send(("err", "ProtocolError", f"unknown {request[0]!r}"))
            continue
        _, lo, hi, fault_mode = request
        step = FilterStep(index, fault_mode)
        try:
            records = step.run(lo, hi)
        except Exception as exc:   # typed errors flatten at the boundary
            conn.send(("err", type(exc).__name__, str(exc)))
            continue
        faults = [(f.disk, f.page_id, f.kind, f.detail)
                  for f in step.faults]
        conn.send(("ok", np.ascontiguousarray(records).tobytes(),
                   asdict(step.io), faults))
    conn.close()

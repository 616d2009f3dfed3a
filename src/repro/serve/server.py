"""Asyncio field query server: multiplexes tenants onto the engine.

:class:`FieldServer` listens on a TCP socket, speaks the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`, and
drives every engine verb through one shared
:class:`~repro.core.facade.EngineFacade`.  The concurrency model:

* the **event loop** owns connections, frame codec, admission control
  and timeouts — everything cheap and cancellable;
* **engine calls** (query/batch/update/open) run on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`, because the engines
  are synchronous; the facade's per-field lock serializes access to one
  field while different fields proceed in parallel;
* each tenant passes the :class:`~repro.serve.admission
  .AdmissionController` first — token-bucket quota, bounded pending
  queue with typed ``backpressure``/``quota`` rejections, and an
  optional execution deadline.  A deadline that expires answers the
  client immediately with a ``timeout`` error and *cancels* the work:
  an engine call still queued (behind the executor or a field lock)
  never starts; one already on a core finishes in the background and
  its result is discarded (Python threads cannot be interrupted
  mid-call), tracked as a straggler until it drains.

Every request is answered — malformed frames with typed errors — and
the server is fully observable end-to-end (DESIGN.md §11):

* **Trace propagation**: a client-supplied ``trace_id`` (or a
  head-based coin flip at ``trace_sample_rate``) samples the request
  into a span tree — ``request[op]`` bracketing ``decode``,
  ``admission`` (queue depth at entry + wait), ``engine`` (with the
  engine's own ``query → plan/filter/fetch/estimate`` spans grafted
  underneath, recorded on a per-request tracer through the facade) and
  ``encode``.  Sampled trees are kept in :attr:`FieldServer.sampled`
  (and mirrored to a server-wide ``tracer`` when one is installed),
  and the response echoes the ``trace_id``.
* **Rolling SLO metrics**: every outcome feeds a
  :class:`~repro.obs.rolling.RollingStats` window (per tenant × op
  q/s, latency quantiles, error/timeout/rejection rates), served by
  the ``metrics`` verb (``format="json"|"prometheus"``) and by a
  plain-HTTP ``GET /metrics`` side listener (``metrics_port``).
* **Slow-query log**: requests crossing the
  :class:`~repro.obs.qlog.QueryLog` thresholds append one JSONL entry
  with tenant, args, outcome, admission wait, engine I/O, plan choice
  and (when sampled) the full span tree.

Latency histograms and request/connection counters still publish to
the process metrics registry, which the ``metrics`` verb exposes over
the wire.

Graceful shutdown (:meth:`FieldServer.stop`) stops accepting, lets
in-flight requests finish and their responses flush, then closes idle
connections — a client mid-request gets its answer, not a reset.

:class:`ServerThread` runs a server on a private event loop in a
daemon thread — the shape the bench load generator, the regression-test
fixture, and embedders use.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from ..core.aggregate import AGGREGATE_KINDS, AGGREGATE_MODES
from ..core.facade import (EngineFacade, FacadeError, FieldExistsError,
                           UnknownFieldError)
from ..obs.export import render_prometheus, span_to_tree
from ..obs.metrics import REGISTRY
from ..obs.qlog import QueryLog
from ..obs.rolling import LATENCY_BUCKETS_MS, RollingStats
from ..obs.trace import Span, Tracer
from ..storage import CorruptPageError, TransientIOError
from .admission import AdmissionController
from .protocol import (MAX_BATCH_QUERIES, MAX_FRAME_BYTES,
                       MAX_UPDATE_VERTICES, ProtocolError, Request,
                       decode_request, encode_error, encode_response,
                       finite_float, need, need_number, optional_choice)

_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests served, per op/tenant/outcome ('ok' or an error code).")
_LATENCY_MS = REGISTRY.histogram(
    "repro_serve_request_ms",
    "Request latency in milliseconds, per op.")
_CONNECTIONS = REGISTRY.counter(
    "repro_serve_connections_total",
    "Client connections accepted.")
_ADMISSION_WAIT_MS = REGISTRY.histogram(
    "repro_serve_admission_wait_ms",
    "Admission-control wait in milliseconds, per tenant.",
    buckets=LATENCY_BUCKETS_MS)
_SAMPLED = REGISTRY.counter(
    "repro_serve_sampled_total",
    "Requests sampled into a trace, per op.")

#: Estimate modes exposed over the wire per verb (``regions`` payloads
#: are unbounded, so only single queries may request them).
_QUERY_ESTIMATES = frozenset({"none", "area", "regions"})
_BATCH_ESTIMATES = frozenset({"none", "area"})
_FAULT_MODES = frozenset({"raise", "skip"})


def _io_payload(io) -> dict:
    """JSON-safe view of an :class:`~repro.storage.stats.IOStats`."""
    return {
        "page_reads": io.page_reads,
        "random_reads": io.random_reads,
        "sequential_reads": io.sequential_reads,
        "cache_hits": io.cache_hits,
        "skipped_pages": io.skipped_pages,
    }


def _fault_payload(faults) -> list[dict]:
    """JSON-safe view of survived page faults."""
    return [{"disk": f.disk, "page_id": f.page_id, "kind": f.kind,
             "detail": f.detail} for f in faults]


#: Longest list echoed verbatim into a slow-query-log ``args`` field;
#: bigger ones (batch query lists, update vertex arrays) are summarized.
_QLOG_MAX_LIST = 8


def _qlog_args(params: dict) -> dict:
    """Compact JSON-safe view of request params for the slow-query log."""
    args = {}
    for key, value in params.items():
        if isinstance(value, list) and len(value) > _QLOG_MAX_LIST:
            args[key] = f"<{len(value)} items>"
        else:
            args[key] = value
    return args


def _engine_summary(ctx: "_RequestContext") -> dict:
    """Plan/method choice of a sampled request's engine span tree."""
    if ctx.engine is None or not ctx.engine.roots:
        return {}
    summary: dict = {}
    root = ctx.engine.roots[0]
    method = root.attrs.get("method")
    if method is not None:
        summary["method"] = method
    for span, _ in root.walk():
        if span.name == "plan" and span.attrs:
            summary["plan"] = dict(span.attrs)
            break
    return summary


class _RequestContext:
    """Per-request observability state threaded through execution.

    Created for *every* request (the admission-wait and queue-depth
    numbers feed the slow-query log unconditionally); the tracers only
    exist when the request is sampled, so the unsampled path allocates
    one small object and no spans.
    """

    __slots__ = ("trace_id", "parent_span", "sampled", "tracer",
                 "engine", "root", "admission_wait_ms", "queue_depth")

    def __init__(self, trace_id: str | None = None,
                 parent_span: str | None = None,
                 sampled: bool = False) -> None:
        self.trace_id = trace_id
        self.parent_span = parent_span
        self.sampled = sampled
        #: Event-loop-side tracer: request/decode/admission/engine/
        #: encode spans (never touched by executor threads).
        self.tracer = Tracer() if sampled else None
        #: Engine-side tracer the facade installs on the index for the
        #: duration of the call; its roots are grafted under the
        #: ``engine`` span only when the call completed (a timed-out
        #: straggler may still be writing into it).
        self.engine = Tracer() if sampled else None
        self.root: Span | None = None
        self.admission_wait_ms: float | None = None
        self.queue_depth: int | None = None


class FieldServer:
    """Newline-JSON field query server over one engine facade.

    Parameters
    ----------
    facade:
        The engine facade requests execute against (fields may be
        pre-opened on it; a private one is created otherwise).
    catalog:
        Name → source mapping the ``open`` verb may open (sources as
        accepted by :meth:`~repro.core.facade.EngineFacade.open_field`).
        Fields *not* in the catalog cannot be opened over the wire —
        clients never name arbitrary filesystem paths.
    admission:
        The per-tenant admission controller (a default-quota one is
        created otherwise).
    host, port:
        Bind address; port 0 (default) picks an ephemeral port,
        reported by :meth:`start`.
    executor_workers:
        Thread budget for concurrent engine calls across fields.
    tracer:
        Optional span recorder; every sampled request's span tree is
        mirrored onto it (installing one also forces every request to
        be sampled, the pre-sampling behaviour).
    enable_metrics:
        Enable the process metrics registry for the server's lifetime
        (restored to its previous state on :meth:`stop`).
    trace_sample_rate:
        Head-based sampling probability in ``[0, 1]`` for requests
        that do not carry their own ``trace_id`` (which always forces
        sampling).  0 (default) samples nothing.
    qlog:
        Optional :class:`~repro.obs.qlog.QueryLog`; requests crossing
        its thresholds are appended (sampled ones with their span
        tree).
    metrics_port:
        When not ``None``, also bind a plain-HTTP listener on this
        port (0 = ephemeral) answering ``GET /metrics`` with the
        Prometheus text exposition; the bound port lands in
        :attr:`metrics_address`.
    keep_sampled:
        Most recent sampled span trees retained in
        :attr:`sampled` (a bounded deque).
    max_requests:
        Stop the server after this many requests (demos and tests).
    drain_timeout_s:
        Longest :meth:`stop` waits for in-flight requests to finish.
    """

    def __init__(self, facade: EngineFacade | None = None,
                 catalog: dict | None = None,
                 admission: AdmissionController | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 executor_workers: int = 4,
                 tracer: Tracer | None = None,
                 enable_metrics: bool = False,
                 trace_sample_rate: float = 0.0,
                 qlog: QueryLog | None = None,
                 metrics_port: int | None = None,
                 keep_sampled: int = 64,
                 max_requests: int | None = None,
                 drain_timeout_s: float = 30.0) -> None:
        if executor_workers < 1:
            raise ValueError(
                f"executor_workers must be >= 1, got {executor_workers}")
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError(f"trace_sample_rate must be in [0, 1], "
                             f"got {trace_sample_rate}")
        if keep_sampled < 1:
            raise ValueError(
                f"keep_sampled must be >= 1, got {keep_sampled}")
        self.facade = facade if facade is not None else EngineFacade()
        self.catalog = dict(catalog) if catalog else {}
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.host = host
        self.port = port
        self.executor_workers = executor_workers
        self.tracer = tracer
        self.enable_metrics = enable_metrics
        self.trace_sample_rate = float(trace_sample_rate)
        self.qlog = qlog
        self.metrics_port = metrics_port
        self.max_requests = max_requests
        self.drain_timeout_s = drain_timeout_s
        #: Rolling SLO window every request outcome feeds.
        self.rolling = RollingStats()
        #: Most recent sampled span trees (root ``request[op]`` spans).
        self.sampled: deque[Span] = deque(maxlen=keep_sampled)
        #: Requests sampled into a trace so far (any retention).
        self.sampled_total = 0
        #: ``(host, port)`` of the HTTP metrics listener once bound.
        self.metrics_address: tuple[str, int] | None = None

        self._metrics_server: asyncio.AbstractServer | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stragglers: set[asyncio.Future] = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._active = 0
        self._served = 0
        self._connections = 0
        self._metrics_were_enabled = False
        #: Outcome → count, independent of the metrics registry.
        self.counts: dict[str, int] = {}
        self._handlers = {
            "ping": self._op_ping,
            "fields": self._op_fields,
            "open": self._op_open,
            "close": self._op_close,
            "query": self._op_query,
            "aggregate": self._op_aggregate,
            "batch": self._op_batch,
            "update": self._op_update,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the (host, port) bound."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.enable_metrics:
            self._metrics_were_enabled = REGISTRY.enabled
            REGISTRY.enable()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers,
            thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 2)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connection, self.host, self.metrics_port)
            bound = self._metrics_server.sockets[0].getsockname()
            self.metrics_address = (bound[0], bound[1])
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, close connections.

        With ``drain=True`` (default) every request already being
        processed finishes and its response is flushed before its
        connection closes — bounded by ``drain_timeout_s``.  Idempotent;
        concurrent callers all return once the server is down.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if drain and self._active:
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       self.drain_timeout_s)
            except (asyncio.TimeoutError, TimeoutError):
                pass
        if self._stragglers:
            await asyncio.wait(list(self._stragglers),
                               timeout=self.drain_timeout_s)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.enable_metrics and not self._metrics_were_enabled:
            REGISTRY.disable()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes (from any task)."""
        await self._stopped.wait()

    @property
    def requests_served(self) -> int:
        """Requests answered so far (any outcome)."""
        return self._served

    @property
    def active_requests(self) -> int:
        """Requests currently being processed."""
        return self._active

    # -- connection handling ------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections += 1
        if REGISTRY.enabled:
            _CONNECTIONS.inc(1)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                # An oversized frame cannot be resynchronized reliably:
                # answer with the typed error and close the connection.
                writer.write(encode_error(
                    None, "bad-frame",
                    f"frame exceeds {MAX_FRAME_BYTES} bytes"))
                await writer.drain()
                return
            except (ConnectionResetError, BrokenPipeError):
                return
            if not line:
                return
            self._active += 1
            self._idle.clear()
            try:
                frame = await self._handle_line(line)
                # Count before the flush: a client that has our reply
                # in hand must already observe it in requests_served.
                self._served += 1
                writer.write(frame)
                await writer.drain()
            finally:
                self._active -= 1
                if self._active == 0:
                    self._idle.set()
            if self._stopping:
                return
            if (self.max_requests is not None
                    and self._served >= self.max_requests):
                asyncio.get_running_loop().create_task(self.stop())
                return

    async def _handle_line(self, line: bytes) -> bytes:
        t0 = time.perf_counter_ns()
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self._observe("<frame>", "<unknown>", exc.code, 0.0)
            return encode_error(None, exc.code, exc.message)
        decode_ns = time.perf_counter_ns() - t0
        if self._stopping:
            return encode_error(request.id, "shutting-down",
                                "server is draining; retry elsewhere")
        return await self._dispatch(request, decode_ns)

    def _begin(self, request: Request) -> _RequestContext:
        """Head-based sampling decision: the request's trace context.

        A client-supplied ``trace_id`` always samples; otherwise a coin
        flip at ``trace_sample_rate`` (or an installed server-wide
        tracer) does, under a freshly generated id.
        """
        if request.trace_id is not None:
            sampled = True
        elif self.trace_sample_rate > 0.0 \
                and random.random() < self.trace_sample_rate:
            sampled = True
        else:
            sampled = self.tracer is not None and self.tracer.enabled
        trace_id = request.trace_id
        if sampled and trace_id is None:
            trace_id = uuid.uuid4().hex
        return _RequestContext(trace_id=trace_id,
                               parent_span=request.parent_span,
                               sampled=sampled)

    async def _dispatch(self, request: Request,
                        decode_ns: int = 0) -> bytes:
        t0 = time.perf_counter()
        ctx = self._begin(request)
        if ctx.sampled:
            # A private tracer per request: concurrent requests on one
            # shared span stack would interleave into a garbage tree.
            attrs = {"op": request.op, "tenant": request.tenant,
                     "trace_id": ctx.trace_id}
            if ctx.parent_span is not None:
                attrs["parent_span"] = ctx.parent_span
            with ctx.tracer.span(f"request[{request.op}]", attrs) as root:
                ctx.root = root
                # The frame was decoded before this span opened: pull
                # the span's start back so a synthetic ``decode`` child
                # honestly brackets that work inside the request.
                root.t0_ns -= decode_ns
                decode_span = Span(ctx.tracer, "decode")
                decode_span.t0_ns = root.t0_ns
                decode_span.t1_ns = root.t0_ns + decode_ns
                root.children.append(decode_span)
                payload, code, message = await self._execute(request, ctx)
                with ctx.tracer.span("encode"):
                    frame = self._encode(request, payload, code,
                                         message, ctx)
                root.attrs["outcome"] = code
        else:
            payload, code, message = await self._execute(request, ctx)
            frame = self._encode(request, payload, code, message, ctx)
        latency_ms = (time.perf_counter() - t0) * 1000.0
        self._observe(request.op, request.tenant, code, latency_ms)
        self._finish(request, ctx, payload, code, latency_ms)
        return frame

    async def _execute(self, request: Request,
                       ctx: _RequestContext) -> tuple:
        """Run one decoded request; fold every failure into a typed
        ``(payload, code, message)`` triple (payload None on error)."""
        try:
            payload = await self._handlers[request.op](request, ctx)
            return payload, "ok", None
        except ProtocolError as exc:
            return None, exc.code, exc.message
        except UnknownFieldError as exc:
            return None, "unknown-field", str(exc)
        except FieldExistsError as exc:
            return None, "field-exists", str(exc)
        except FacadeError as exc:
            return None, "unsupported", str(exc)
        except (CorruptPageError, TransientIOError) as exc:
            return None, "storage-fault", f"{type(exc).__name__}: {exc}"
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            return None, "bad-request", f"{type(exc).__name__}: {exc}"
        except asyncio.CancelledError:
            raise
        except Exception as exc:   # pragma: no cover - defense in depth
            return None, "internal", f"{type(exc).__name__}: {exc}"

    def _encode(self, request: Request, payload: dict | None, code: str,
                message: str | None, ctx: _RequestContext) -> bytes:
        """Encode the response frame, echoing the trace id if sampled."""
        if code == "ok":
            if ctx.sampled and payload is not None:
                payload = {**payload, "trace_id": ctx.trace_id}
            return encode_response(request.id, payload)
        return encode_error(request.id, code, message)

    def _observe(self, op: str, tenant: str, code: str,
                 latency_ms: float) -> None:
        self.counts[code] = self.counts.get(code, 0) + 1
        self.rolling.observe(tenant, op, latency_ms, outcome=code)
        if REGISTRY.enabled:
            _REQUESTS.inc(1, op=op, tenant=tenant, outcome=code)
            _LATENCY_MS.observe(latency_ms, op=op)

    def _finish(self, request: Request, ctx: _RequestContext,
                payload: dict | None, code: str,
                latency_ms: float) -> None:
        """Retain the sampled span tree and feed the slow-query log."""
        if ctx.sampled and ctx.root is not None:
            self.sampled_total += 1
            self.sampled.append(ctx.root)
            if self.tracer is not None:
                self.tracer.roots.append(ctx.root)
            if REGISTRY.enabled:
                _SAMPLED.inc(1, op=request.op)
        if self.qlog is None:
            return
        io = payload.get("io") if payload else None
        page_reads = io.get("page_reads") if io else None
        if not self.qlog.should_log(latency_ms, page_reads):
            return
        entry = {
            "tenant": request.tenant,
            "op": request.op,
            "outcome": code,
            "latency_ms": round(latency_ms, 4),
            "args": _qlog_args(request.params),
        }
        if ctx.trace_id is not None:
            entry["trace_id"] = ctx.trace_id
        if ctx.admission_wait_ms is not None:
            entry["admission_wait_ms"] = round(ctx.admission_wait_ms, 4)
        if ctx.queue_depth is not None:
            entry["queue_depth"] = ctx.queue_depth
        if io is not None:
            entry["io"] = io
        plan = _engine_summary(ctx)
        if plan:
            entry.update(plan)
        if ctx.sampled and ctx.root is not None:
            entry["spans"] = span_to_tree(ctx.root)
        self.qlog.record(entry)

    # -- HTTP metrics listener ----------------------------------------------

    async def _on_metrics_connection(self, reader, writer) -> None:
        """Answer one plain-HTTP request (``GET /metrics``) and close.

        Deliberately minimal — enough for ``curl`` and a Prometheus
        scraper: request line + headers in, one response out,
        connection closed.
        """
        try:
            request_line = await asyncio.wait_for(reader.readline(), 10.0)
            while True:   # drain headers up to the blank line
                header = await asyncio.wait_for(reader.readline(), 10.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            if (len(parts) >= 2 and parts[0] == "GET"
                    and parts[1].split("?")[0] in ("/metrics", "/")):
                self.rolling.publish(REGISTRY)
                self.admission.publish()
                body = render_prometheus(REGISTRY).encode("utf-8")
                head = (b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: text/plain; version=0.0.4; "
                        b"charset=utf-8\r\n"
                        b"Content-Length: " + str(len(body)).encode()
                        + b"\r\nConnection: close\r\n\r\n")
            else:
                body = b"only GET /metrics here\n"
                head = (b"HTTP/1.1 404 Not Found\r\n"
                        b"Content-Type: text/plain; charset=utf-8\r\n"
                        b"Content-Length: " + str(len(body)).encode()
                        + b"\r\nConnection: close\r\n\r\n")
            writer.write(head + body)
            await writer.drain()
        except (asyncio.TimeoutError, TimeoutError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- engine execution ---------------------------------------------------

    async def _in_engine(self, request: Request, fn,
                         ctx: _RequestContext | None = None):
        """Admit, then run ``fn`` on the executor under the deadline.

        With a sampled ``ctx`` this also lands ``admission`` (queue
        depth at entry, wait time) and ``engine`` spans on the request
        tracer, grafting the engine's own span tree — recorded by the
        executor thread onto ``ctx.engine`` — under the latter once
        the call has actually completed.
        """
        if ctx is None:
            ctx = _RequestContext()
        ctx.queue_depth = self.admission.state(request.tenant).pending
        adm_span = (ctx.tracer.span("admission",
                                    {"queue_depth": ctx.queue_depth})
                    if ctx.sampled else None)
        t_adm = time.perf_counter()
        try:
            if adm_span is not None:
                with adm_span:
                    st = await self.admission.acquire(request.tenant)
            else:
                st = await self.admission.acquire(request.tenant)
        finally:
            ctx.admission_wait_ms = (time.perf_counter() - t_adm) * 1000.0
            if adm_span is not None:
                adm_span.attrs["wait_ms"] = round(ctx.admission_wait_ms, 4)
            if REGISTRY.enabled:
                _ADMISSION_WAIT_MS.observe(ctx.admission_wait_ms,
                                           tenant=request.tenant)
        try:
            timeout = st.quota.timeout_s
            override = request.params.get("timeout_s")
            if override is not None:
                if (not isinstance(override, (int, float))
                        or isinstance(override, bool) or override <= 0):
                    raise ProtocolError(
                        "bad-request",
                        "'timeout_s' must be a positive number")
                timeout = (min(timeout, float(override))
                           if timeout is not None else float(override))
            cancelled: list[bool] = []

            def run():
                # Queued work the deadline already killed never starts.
                if cancelled:
                    raise ProtocolError("timeout",
                                        "cancelled before execution")
                return fn()

            loop = asyncio.get_running_loop()
            eng_span = (ctx.tracer.span("engine") if ctx.sampled
                        else None)
            if eng_span is not None:
                eng_span.__enter__()
            try:
                future = loop.run_in_executor(self._executor, run)
                if timeout is None:
                    result = await future
                else:
                    done, _ = await asyncio.wait({future},
                                                 timeout=timeout)
                    if not done:
                        cancelled.append(True)
                        self.admission.note_timeout(request.tenant)
                        self._stragglers.add(future)
                        future.add_done_callback(self._reap_straggler)
                        raise ProtocolError(
                            "timeout",
                            f"request exceeded its {timeout:g}s "
                            f"execution deadline")
                    result = future.result()
            finally:
                if eng_span is not None:
                    eng_span.__exit__(None, None, None)
            if eng_span is not None and ctx.engine is not None:
                # Graft only now that the call has completed: a
                # timed-out straggler may still be writing spans into
                # ctx.engine from its executor thread.
                eng_span.children.extend(ctx.engine.roots)
            return result
        finally:
            self.admission.release(request.tenant)

    def _reap_straggler(self, future: asyncio.Future) -> None:
        self._stragglers.discard(future)
        if not future.cancelled():
            future.exception()   # retrieved: no "never awaited" warning

    # -- verbs --------------------------------------------------------------

    async def _op_ping(self, request: Request,
                       ctx: _RequestContext) -> dict:
        return {"pong": True}

    async def _op_fields(self, request: Request,
                         ctx: _RequestContext) -> dict:
        open_fields = {name: self.facade.describe(name)
                       for name in self.facade.field_names()}
        return {"fields": open_fields,
                "catalog": sorted(self.catalog)}

    async def _op_open(self, request: Request,
                       ctx: _RequestContext) -> dict:
        name = need(request.params, "field", str, "a string")
        if name in self.facade.field_names():
            return {"field": name, "opened": False,
                    "info": self.facade.describe(name)}
        source = self.catalog.get(name)
        if source is None:
            raise ProtocolError(
                "unknown-field",
                f"field {name!r} is not in this server's catalog "
                f"(catalog: {sorted(self.catalog)})")

        def fn():
            try:
                return self.facade.open_field(name, source)
            except FieldExistsError:
                # Lost a race with a concurrent open: idempotent.
                return self.facade.describe(name)

        info = await self._in_engine(request, fn, ctx)
        return {"field": name, "opened": True, "info": info}

    async def _op_close(self, request: Request,
                        ctx: _RequestContext) -> dict:
        name = need(request.params, "field", str, "a string")

        def fn():
            self.facade.close_field(name)
            return {"field": name, "closed": True}

        return await self._in_engine(request, fn, ctx)

    async def _op_query(self, request: Request,
                        ctx: _RequestContext) -> dict:
        params = request.params
        name = need(params, "field", str, "a string")
        lo = need_number(params, "lo")
        hi = need_number(params, "hi")
        if lo > hi:
            raise ProtocolError("bad-request",
                                f"empty query interval: lo={lo} > hi={hi}")
        estimate = optional_choice(params, "estimate",
                                   _QUERY_ESTIMATES, "area")
        on_fault = optional_choice(params, "on_fault",
                                   _FAULT_MODES, "raise")
        max_regions = params.get("max_regions", 100)
        if (not isinstance(max_regions, int)
                or isinstance(max_regions, bool) or max_regions < 0):
            raise ProtocolError("bad-request",
                                "'max_regions' must be an integer >= 0")

        def fn():
            return self.facade.query(name, lo, hi, estimate=estimate,
                                     on_fault=on_fault,
                                     tenant=request.tenant,
                                     tracer=ctx.engine)

        result = await self._in_engine(request, fn, ctx)
        payload = {
            "field": name,
            "candidates": result.candidate_count,
            "area": result.area,
            "io": _io_payload(result.io),
            "degraded": result.degraded,
        }
        if result.faults:
            payload["faults"] = _fault_payload(result.faults)
        if estimate == "regions" and result.regions is not None:
            payload["regions"] = [
                {"cell_id": int(region.cell_id),
                 "area": float(region.area),
                 "polygon": [[float(x), float(y)]
                             for x, y in region.polygon]}
                for region in result.regions[:max_regions]
            ]
            payload["regions_total"] = len(result.regions)
        return payload

    async def _op_aggregate(self, request: Request,
                            ctx: _RequestContext) -> dict:
        params = request.params
        name = need(params, "field", str, "a string")
        kind = optional_choice(params, "kind", AGGREGATE_KINDS, "count")
        lo = need_number(params, "lo")
        hi = need_number(params, "hi")
        if lo > hi:
            raise ProtocolError(
                "bad-request",
                f"empty aggregate interval: lo={lo} > hi={hi}")
        mode = optional_choice(params, "mode", AGGREGATE_MODES, "hybrid")
        tolerance = params.get("tolerance")
        if tolerance is not None:
            tolerance = need_number(params, "tolerance")
            if tolerance < 0:
                raise ProtocolError("bad-request",
                                    "'tolerance' must be >= 0")

        def fn():
            return self.facade.aggregate(name, kind, lo, hi,
                                         tolerance=tolerance, mode=mode,
                                         tenant=request.tenant,
                                         tracer=ctx.engine)

        result = await self._in_engine(request, fn, ctx)
        return {"field": name, **result.to_dict()}

    async def _op_batch(self, request: Request,
                        ctx: _RequestContext) -> dict:
        params = request.params
        name = need(params, "field", str, "a string")
        raw = need(params, "queries", list, "a list")
        if not raw:
            raise ProtocolError("bad-request",
                                "'queries' must not be empty")
        if len(raw) > MAX_BATCH_QUERIES:
            raise ProtocolError(
                "bad-request",
                f"batch of {len(raw)} queries exceeds the "
                f"{MAX_BATCH_QUERIES}-query limit")
        pairs = []
        for i, entry in enumerate(raw):
            bounds = [finite_float(v) for v in (
                entry if isinstance(entry, list) else [entry, entry])]
            if len(bounds) != 2 or None in bounds:
                raise ProtocolError(
                    "bad-request",
                    f"queries[{i}] must be a [lo, hi] pair of finite "
                    f"numbers or a single finite exact value")
            lo, hi = bounds
            if lo > hi:
                raise ProtocolError(
                    "bad-request",
                    f"queries[{i}]: empty interval lo={lo} > hi={hi}")
            pairs.append((lo, hi))
        estimate = optional_choice(params, "estimate",
                                   _BATCH_ESTIMATES, "area")
        on_fault = optional_choice(params, "on_fault",
                                   _FAULT_MODES, "raise")

        def fn():
            return self.facade.batch(name, pairs, estimate=estimate,
                                     on_fault=on_fault,
                                     tenant=request.tenant,
                                     tracer=ctx.engine)

        batch = await self._in_engine(request, fn, ctx)
        return {
            "field": name,
            "results": [
                {"candidates": r.candidate_count, "area": r.area,
                 "page_reads": r.io.page_reads}
                for r in batch.results
            ],
            "groups": batch.groups,
            "io": _io_payload(batch.io),
            "pool": {"hits": batch.pool.hits,
                     "misses": batch.pool.misses,
                     "evictions": batch.pool.evictions},
        }

    async def _op_update(self, request: Request,
                         ctx: _RequestContext) -> dict:
        params = request.params
        name = need(params, "field", str, "a string")
        vertex_ids = need(params, "vertex_ids", list, "a list")
        values = need(params, "values", list, "a list")
        if len(vertex_ids) != len(values):
            raise ProtocolError(
                "bad-request",
                f"{len(vertex_ids)} vertex_ids vs {len(values)} values")
        if not vertex_ids:
            raise ProtocolError("bad-request",
                                "'vertex_ids' must not be empty")
        if len(vertex_ids) > MAX_UPDATE_VERTICES:
            raise ProtocolError(
                "bad-request",
                f"update of {len(vertex_ids)} vertices exceeds the "
                f"{MAX_UPDATE_VERTICES}-vertex limit")
        for i, vid in enumerate(vertex_ids):
            if not isinstance(vid, int) or isinstance(vid, bool):
                raise ProtocolError(
                    "bad-request",
                    f"vertex_ids[{i}] must be an integer")
        for i, value in enumerate(values):
            if finite_float(value) is None:
                raise ProtocolError(
                    "bad-request", f"values[{i}] must be a finite number")

        def fn():
            return self.facade.update(name, vertex_ids, values,
                                      tenant=request.tenant,
                                      tracer=ctx.engine)

        rewritten = await self._in_engine(request, fn, ctx)
        return {"field": name, "cells_rewritten": rewritten}

    async def _op_stats(self, request: Request,
                        ctx: _RequestContext) -> dict:
        name = request.params.get("field")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("bad-request",
                                "'field' must be a string")
        payload = self.facade.stats(name)
        payload["admission"] = self.admission.snapshot()
        payload["server"] = {
            "requests": self._served,
            "active": self._active,
            "connections": self._connections,
            "open_connections": len(self._conn_tasks),
            "outcomes": dict(sorted(self.counts.items())),
            "stopping": self._stopping,
            "sampled": self.sampled_total,
            "trace_sample_rate": self.trace_sample_rate,
            "qlog_entries": (self.qlog.entries
                             if self.qlog is not None else 0),
        }
        return payload

    async def _op_metrics(self, request: Request,
                          ctx: _RequestContext) -> dict:
        fmt = optional_choice(request.params, "format",
                              {"json", "text", "prometheus"}, "json")
        if fmt in ("prometheus", "text"):
            self.rolling.publish(REGISTRY)
            self.admission.publish()
            return {"format": fmt, "text": render_prometheus(REGISTRY)}
        self.admission.publish()
        return {"format": "json", "slo": self.rolling.snapshot(),
                **REGISTRY.collect()}


class ServerThread:
    """A :class:`FieldServer` on a private event loop in a daemon thread.

    The shape every synchronous embedder uses (the bench load
    generator, the pytest fixture, the CLI's ``--max-requests`` demo
    mode)::

        harness = ServerThread(FieldServer(facade=facade))
        host, port = harness.start()
        ...
        harness.stop()
    """

    def __init__(self, server: FieldServer) -> None:
        self.server = server
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self, timeout_s: float = 30.0) -> tuple[str, int]:
        """Start the loop thread and the server; returns (host, port)."""
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            started.set()
            self.loop.run_forever()
            # Drain callbacks scheduled during the final stop.
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()

        self._thread = threading.Thread(target=run, name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        started.wait(timeout_s)
        future = asyncio.run_coroutine_threadsafe(self.server.start(),
                                                  self.loop)
        return future.result(timeout_s)

    def submit(self, coro, timeout_s: float = 30.0):
        """Run a coroutine on the server's loop; returns its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout_s)

    def stop(self, timeout_s: float = 30.0) -> None:
        """Gracefully stop the server and tear the loop thread down."""
        if self.loop is None:
            return
        try:
            self.submit(self.server.stop(), timeout_s)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            if self._thread is not None:
                self._thread.join(timeout_s)
            self.loop = None
            self._thread = None

"""Blocking client for the field query service.

:class:`FieldClient` is a thin synchronous wrapper over one TCP
connection: it writes request frames, reads exactly one response frame
per request, and raises :class:`ServerError` for typed error envelopes.
The bench load generator, the test harness and example sessions in the
README all talk through it; it has no dependency on the server side
beyond the frame format, so it doubles as a reference client for the
protocol spec in DESIGN.md §10.

Thread-safe: a lock serializes request/response pairs, so one client
may be shared — though the intended load-generator shape is one client
per simulated user (each holding its own connection).

Trace propagation: pass ``trace_id="..."`` to any verb (or
:meth:`FieldClient.request`) to force that request to be sampled
server-side under that id, or construct the client with ``trace=True``
to stamp a fresh ``uuid4`` hex id on *every* request.  Sampled
responses echo the id back (``answer["trace_id"]``), tying the client
call to the server's span tree and slow-query-log entries.
"""

from __future__ import annotations

import json
import socket
import threading
import uuid

from .protocol import MAX_FRAME_BYTES


class ClientError(Exception):
    """Transport-level failure (connection closed, unparseable frame)."""


class ServerError(ClientError):
    """A typed error envelope from the server."""

    def __init__(self, code: str, message: str,
                 request_id=None) -> None:
        self.code = code
        self.message = message
        self.request_id = request_id
        super().__init__(f"{code}: {message}")


class FieldClient:
    """One blocking connection to a :class:`~repro.serve.server.FieldServer`.

    Usage::

        with FieldClient(host, port, tenant="alice") as client:
            client.open("terrain")
            answer = client.query("terrain", 300.0, 320.0)
            print(answer["area"], answer["candidates"])
    """

    def __init__(self, host: str, port: int, tenant: str = "default",
                 timeout_s: float | None = 30.0,
                 trace: bool = False) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        #: Stamp a fresh ``trace_id`` on every request (forces
        #: server-side sampling; per-call ``trace_id=`` still wins).
        self.trace = trace
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._file = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    # -- plumbing -----------------------------------------------------------

    def request(self, op: str, **params) -> dict:
        """Send one request, wait for its response, return the payload.

        Raises :class:`ServerError` on a typed error envelope and
        :class:`ClientError` on transport failures.
        """
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            obj = {"id": request_id, "op": op, "tenant": self.tenant}
            if self.trace and "trace_id" not in params:
                obj["trace_id"] = uuid.uuid4().hex
            obj.update(params)
            frame = (json.dumps(obj, separators=(",", ":"),
                                allow_nan=False) + "\n").encode("utf-8")
            try:
                self._sock.sendall(frame)
                line = self._file.readline(MAX_FRAME_BYTES + 2)
            except OSError as exc:
                raise ClientError(f"transport failure: {exc}") from exc
            if not line:
                raise ClientError("connection closed by server")
            try:
                response = json.loads(line)
            except (json.JSONDecodeError, ValueError) as exc:
                raise ClientError(
                    f"unparseable response frame: {exc}") from exc
        if not isinstance(response, dict):
            raise ClientError(
                f"response is not an object: {response!r}")
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise ServerError(error.get("code", "internal"),
                          error.get("message", "no message"),
                          request_id=response.get("id"))

    def send_raw(self, data: bytes) -> bytes:
        """Write raw bytes, read one response line (fuzz/protocol tests)."""
        with self._lock:
            try:
                self._sock.sendall(data)
                line = self._file.readline(MAX_FRAME_BYTES + 2)
            except OSError as exc:
                raise ClientError(f"transport failure: {exc}") from exc
        if not line:
            raise ClientError("connection closed by server")
        return line

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FieldClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience verbs --------------------------------------------------

    def ping(self) -> bool:
        """Liveness check."""
        return bool(self.request("ping").get("pong"))

    def fields(self) -> dict:
        """Open fields and the server's catalog."""
        return self.request("fields")

    def open(self, field: str, **params) -> dict:
        """Open a catalogued field (idempotent per name)."""
        return self.request("open", field=field, **params)

    def close_field(self, field: str) -> dict:
        """Close an open field."""
        return self.request("close", field=field)

    def query(self, field: str, lo: float, hi: float, **params) -> dict:
        """One value query: where is ``lo <= F(x) <= hi``?"""
        return self.request("query", field=field, lo=lo, hi=hi, **params)

    def aggregate(self, field: str, kind: str, lo: float, hi: float,
                  **params) -> dict:
        """Approximate COUNT/SUM/AVG/area with a guaranteed error bound.

        ``tolerance=`` and ``mode=`` pick the accuracy-vs-speed point;
        the response carries ``value``/``bound`` (``bound`` is ``None``
        for an unbounded AVG) plus per-subfield routing counts.
        """
        return self.request("aggregate", field=field, kind=kind,
                            lo=lo, hi=hi, **params)

    def batch(self, field: str, queries, **params) -> dict:
        """Many value queries through the batch engine."""
        return self.request("batch", field=field,
                            queries=[list(q) for q in queries], **params)

    def update(self, field: str, vertex_ids, values) -> dict:
        """Apply vertex-value updates to the field."""
        return self.request("update", field=field,
                            vertex_ids=list(vertex_ids),
                            values=list(values))

    def stats(self, field: str | None = None) -> dict:
        """Per-field, per-tenant and server-level statistics."""
        if field is None:
            return self.request("stats")
        return self.request("stats", field=field)

    def metrics(self, format: str = "json") -> dict:
        """Metrics-registry dump."""
        return self.request("metrics", format=format)

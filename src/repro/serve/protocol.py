"""Newline-delimited JSON protocol of the field query service.

One *frame* is one line of UTF-8 JSON terminated by ``\\n``.  A request
frame is an object with an ``op`` (the verb), an optional ``id`` (echoed
verbatim in the response so clients can pipeline), an optional
``tenant`` (admission-control identity, default ``"default"``), an
optional ``trace_id``/``parent_span`` pair (distributed-trace identity:
a client-supplied ``trace_id`` forces the request to be sampled and is
echoed in the response, so one trace id follows the request from the
client frame through admission, engine and encode — DESIGN.md §11),
and op-specific parameters at the top level::

    {"id": 1, "op": "query", "tenant": "alice",
     "trace_id": "b1946ac92492", "field": "terrain",
     "lo": 300.0, "hi": 320.0}

Every frame the server reads yields exactly one response frame — either
a success envelope ``{"id": ..., "ok": true, ...payload...}`` or a typed
error ``{"id": ..., "ok": false, "error": {"code": ..., "message":
...}}``.  Malformed input (junk bytes, truncated JSON, oversized frames,
wrong shapes) never crashes the connection handler: the codec folds
every failure into :class:`ProtocolError`, whose ``code`` is one of
:data:`ERROR_CODES`, and the server answers with it.  The
property/fuzz suite (``tests/serve/test_protocol_fuzz.py``) pins exactly
this contract.

The verbs:

=========  ============================================================
``ping``    liveness check → ``{"pong": true}``
``fields``  list open fields with descriptions
``open``    open a catalogued field (idempotent per name)
``close``   close an open field
``query``   one value query (Q2) → candidates/area/io
``batch``   many value queries through the batch engine
``aggregate`` approximate COUNT/SUM/AVG/area with an error bound
``update``  apply vertex-value updates
``stats``   per-field + per-tenant serving statistics
``metrics`` metrics-registry dump (JSON or Prometheus-style text)
=========  ============================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

#: Hard bound on one frame's encoded size; larger frames are rejected
#: with ``bad-frame`` (and the connection closed, since the tail of an
#: oversized line cannot be resynchronized reliably).
MAX_FRAME_BYTES = 1 << 20

#: Hard bound on queries per ``batch`` request.
MAX_BATCH_QUERIES = 10_000

#: Hard bound on vertex updates per ``update`` request.
MAX_UPDATE_VERTICES = 100_000

#: Verbs the server understands.
OPS = frozenset({"ping", "fields", "open", "close", "query", "batch",
                 "aggregate", "update", "stats", "metrics"})

#: Every error code a response frame may carry.
ERROR_CODES = frozenset({
    "bad-frame",       # not a UTF-8 JSON object line (or oversized)
    "bad-request",     # frame parsed but parameters invalid
    "unknown-op",      # op is not one of OPS
    "unknown-field",   # op named a field that is not open
    "field-exists",    # open collided with an already-open name
    "quota",           # tenant's token bucket empty (after any wait)
    "backpressure",    # tenant's pending-request queue full
    "timeout",         # request exceeded its execution deadline
    "storage-fault",   # typed storage error (corrupt page, I/O error)
    "unsupported",     # operation valid but not possible on this field
    "shutting-down",   # server is draining; retry against another node
    "internal",        # unexpected server-side failure
})


class ProtocolError(Exception):
    """A typed protocol-level failure, rendered as an error frame."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


#: Bound on ``trace_id``/``parent_span`` length (enough for a UUID or a
#: W3C trace-context id with room to spare).
MAX_TRACE_ID_CHARS = 64


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    op: str
    id: object = None
    tenant: str = "default"
    trace_id: str | None = None
    parent_span: str | None = None
    params: dict = dc_field(default_factory=dict)


def decode_request(line: bytes | bytearray | memoryview | str) -> Request:
    """Parse one frame into a :class:`Request`.

    Every malformed input raises :class:`ProtocolError` — never any
    other exception type — so a server loop can answer with a typed
    error frame and keep the connection alive.
    """
    if isinstance(line, (bytes, bytearray, memoryview)):
        raw = bytes(line)
        if len(raw) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "bad-frame",
                f"frame of {len(raw)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-frame",
                                f"frame is not UTF-8: {exc}") from None
    else:
        text = line
        if len(text) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "bad-frame",
                f"frame of {len(text)} characters exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit")
    text = text.strip()
    if not text:
        raise ProtocolError("bad-frame", "empty frame")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ProtocolError("bad-frame",
                            f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-frame",
            f"frame must be a JSON object, got {type(obj).__name__}")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request",
                            "missing or non-string 'op' field")
    if op not in OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r} (known: {sorted(OPS)})")
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(
            "bad-request",
            f"'id' must be a string, integer or null, "
            f"got {type(request_id).__name__}")
    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
        raise ProtocolError(
            "bad-request",
            "'tenant' must be a non-empty string of at most 128 "
            "characters")
    trace_id = _optional_trace_field(obj, "trace_id")
    parent_span = _optional_trace_field(obj, "parent_span")
    params = {key: value for key, value in obj.items()
              if key not in ("op", "id", "tenant", "trace_id",
                             "parent_span")}
    return Request(op=op, id=request_id, tenant=tenant,
                   trace_id=trace_id, parent_span=parent_span,
                   params=params)


def _optional_trace_field(obj: dict, key: str) -> str | None:
    """Validate an optional trace-identity frame field."""
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value \
            or len(value) > MAX_TRACE_ID_CHARS:
        raise ProtocolError(
            "bad-request",
            f"'{key}' must be a non-empty string of at most "
            f"{MAX_TRACE_ID_CHARS} characters")
    return value


def encode_response(request_id, payload: dict) -> bytes:
    """Encode a success envelope as one frame."""
    obj = {"id": request_id, "ok": True}
    obj.update(payload)
    return (json.dumps(obj, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


def encode_error(request_id, code: str, message: str) -> bytes:
    """Encode a typed error envelope as one frame."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    obj = {"id": request_id, "ok": False,
           "error": {"code": code, "message": message}}
    return (json.dumps(obj, separators=(",", ":"), allow_nan=False)
            + "\n").encode("utf-8")


# -- parameter validation helpers -------------------------------------------

def need(params: dict, key: str, types, what: str):
    """Fetch a required, type-checked parameter or raise ``bad-request``."""
    if key not in params:
        raise ProtocolError("bad-request",
                            f"missing required parameter {key!r}")
    value = params[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            "bad-request",
            f"parameter {key!r} must be {what}, "
            f"got {type(value).__name__}")
    return value


def finite_float(value) -> float | None:
    """``value`` as a finite float; ``None`` for anything else (bools,
    non-numbers, NaN, ±Infinity, integers past the float range)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def need_number(params: dict, key: str) -> float:
    """Fetch a required finite number parameter."""
    value = finite_float(need(params, key, (int, float), "a number"))
    if value is None:
        raise ProtocolError("bad-request",
                            f"parameter {key!r} must be finite")
    return value


def optional_choice(params: dict, key: str, choices, default: str) -> str:
    """Fetch an optional enumerated string parameter."""
    value = params.get(key, default)
    if value not in choices:
        raise ProtocolError(
            "bad-request",
            f"parameter {key!r} must be one of {sorted(choices)}, "
            f"got {value!r}")
    return value

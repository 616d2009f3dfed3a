"""Shared frame-payload → structured-record codec.

Page files hand back payloads as buffer-protocol objects (``bytes``
from :class:`~repro.storage.disk.DiskManager` and
:class:`~repro.storage.remote.RemoteDiskManager`), and every reader —
candidate scans, the shard scatter-gather transport — decodes them
here rather than with its own ``np.frombuffer`` call:
:func:`decode_records` decodes one payload, :func:`decode_pages`
decodes a contiguous run of payloads into one structured array for the
vectorized query path.

Decoding is zero-copy where the buffer allows it: ``np.frombuffer``
wraps the payload without copying (the resulting array is read-only for
read-only buffers, which is exactly what query code wants).  Multi-page
runs are materialized into one freshly allocated array — a single copy,
instead of one Python-level loop iteration per record.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def decode_records(payload, dtype: np.dtype, count: int = -1,
                   offset: int = 0) -> np.ndarray:
    """Decode one page payload into a structured array of ``count`` records.

    ``payload`` is any buffer-protocol object (``bytes``, ``memoryview``,
    ``bytearray``); ``count=-1`` decodes every whole record the buffer
    holds past ``offset``.  The returned array aliases the payload
    buffer — zero-copy — and is read-only when the buffer is.
    """
    if count == -1:
        count = (len(payload) - offset) // np.dtype(dtype).itemsize
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset)


def decode_pages(payloads: Sequence, dtype: np.dtype,
                 counts: Sequence[int]) -> np.ndarray:
    """Decode a run of page payloads into one contiguous structured array.

    ``payloads[i]`` holds ``counts[i]`` leading records of ``dtype``.
    A single-page run stays zero-copy (it returns the
    :func:`decode_records` view directly); longer runs allocate one
    output array and copy each page's records into place — no
    per-record Python loop, no intermediate list of arrays.
    """
    if len(payloads) != len(counts):
        raise ValueError(
            f"{len(payloads)} payloads but {len(counts)} record counts")
    if not payloads:
        return np.empty(0, dtype=dtype)
    if len(payloads) == 1:
        return decode_records(payloads[0], dtype, counts[0])
    out = np.empty(sum(counts), dtype=dtype)
    pos = 0
    for payload, n in zip(payloads, counts):
        out[pos:pos + n] = decode_records(payload, dtype, n)
        pos += n
    return out

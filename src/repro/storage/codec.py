"""Shared frame-payload → structured-record codec.

Page files hand back payloads as buffer-protocol objects (``bytes``
from :class:`~repro.storage.disk.DiskManager` and
:class:`~repro.storage.remote.RemoteDiskManager`), and every reader —
candidate scans, the shard scatter-gather transport — decodes them
here rather than with its own ``np.frombuffer`` call:
:func:`decode_records` decodes one payload, :func:`decode_pages`
decodes a contiguous run of payloads into one structured array for the
vectorized query path.

:func:`decode_records` is zero-copy: ``np.frombuffer`` wraps the
payload without copying (the resulting array is read-only for read-only
buffers).  :func:`decode_pages` makes exactly one copy of a run of any
length: the used prefix of every payload is joined into one
``bytearray`` and viewed as records, so a page costs one buffer slice
whatever its record count, and the result is a writable array of its
own.
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

    ``payloads[i]`` holds ``counts[i]`` leading records of ``dtype``;
    the bytes past them (a frame's zero padding) are ignored.  Runs of
    any length, zero and one page included, take the same single copy,
    so the result is always writable and never aliases a payload.
    Raises ``ValueError`` when a payload is shorter than its count.
    """
    if len(payloads) != len(counts):
        raise ValueError(
            f"{len(payloads)} payloads but {len(counts)} record counts")
    size = np.dtype(dtype).itemsize
    joined = bytearray().join(memoryview(payload)[:n * size]
                              for payload, n in zip(payloads, counts))
    return np.frombuffer(joined, dtype=dtype, count=sum(counts))

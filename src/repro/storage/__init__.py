"""Simulated paged storage: checksummed disk, buffer pool, record files,
fault injection, retries, snapshots, and offline scrub."""

from .buffer import BufferPool, PoolCounters, TenantCounters
from .disk import (CHECKSUM_NAME, DiskManager, PAGE_HEADER_SIZE, PAGE_SIZE,
                   RetryPolicy, page_checksum)
from .faults import (CorruptPageError, FaultEvent, FaultInjector, FaultSpec,
                     PageError, PageFault, SimulatedCrash, TransientIOError)
from .records import RecordStore
from .remote import (REMOTE_GET_MS, REMOTE_PUT_MS, NamespaceTakenError,
                     RemoteDiskManager, RemoteFetchError, SimulatedObjectStore,
                     remote_backend)
from .scrub import ScrubReport, file_sha256, repair_index, scrub_index
from .snapshot import (SAVE_DISK_CRASH_POINTS, SnapshotError, load_disk,
                       save_disk, verify_snapshot)
from .stats import IOStats
from .wal import (WAL_CRASH_POINTS, WalBatch, WalError, WalScan,
                  WriteAheadLog, scan_wal)

__all__ = [
    "BufferPool",
    "CHECKSUM_NAME",
    "CorruptPageError",
    "DiskManager",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "IOStats",
    "NamespaceTakenError",
    "PAGE_HEADER_SIZE",
    "PAGE_SIZE",
    "PageError",
    "PageFault",
    "PoolCounters",
    "REMOTE_GET_MS",
    "REMOTE_PUT_MS",
    "RecordStore",
    "RemoteDiskManager",
    "RemoteFetchError",
    "RetryPolicy",
    "SimulatedObjectStore",
    "SAVE_DISK_CRASH_POINTS",
    "ScrubReport",
    "SimulatedCrash",
    "SnapshotError",
    "TenantCounters",
    "TransientIOError",
    "WAL_CRASH_POINTS",
    "WalBatch",
    "WalError",
    "WalScan",
    "WriteAheadLog",
    "file_sha256",
    "load_disk",
    "page_checksum",
    "remote_backend",
    "repair_index",
    "save_disk",
    "scan_wal",
    "scrub_index",
    "verify_snapshot",
]

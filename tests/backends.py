"""The two page-file backends every storage-sensitive suite runs on.

``"list"`` is the in-memory :class:`~repro.storage.disk.DiskManager`
(one ``bytes`` object per page); ``"remote"`` puts every file in a
fresh :class:`~repro.storage.remote.SimulatedObjectStore` behind a
small local frame cache, so both cache hits and remote fetches occur.
"""

from repro.storage import DiskManager, SimulatedObjectStore, remote_backend

BACKENDS = ["list", "remote"]

#: Local frame-cache capacity of the remote backend's disks.
REMOTE_CACHE_PAGES = 4


def disk_backend(name: str):
    """``disk_backend`` factory for one backend id of :data:`BACKENDS`."""
    if name == "list":
        return DiskManager
    return remote_backend(SimulatedObjectStore(),
                          cache_pages=REMOTE_CACHE_PAGES)

"""Per-shard field views.

A shard engine is an ordinary access method built over an ordinary
:class:`~repro.field.base.Field` — just one that exposes only the cells
the shard owns, *in the global Hilbert order*.  That single convention
buys the equivalence guarantees: concatenating the shards' clustered
files in shard order reproduces the unsharded clustered file byte for
byte (the cuts are page-aligned), and a shard-local storage position
``j`` always means global position ``spec.start + j``.

The view is a dynamically created subclass of the engine's field type, so
``isinstance`` checks, record dtypes, and the classmethod geometry
helpers (``estimate_area``, ``record_mbrs``, …) all resolve to the real
field type — estimation over a shard's candidates is literally the same
code path as over the unsharded field's.
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from ..geometry import Interval
from .shardmap import ShardSpec

_VIEW_TYPES: dict[type, type] = {}


def _view_type(base_type: type) -> type:
    """The (cached) ShardFieldView subclass for one base field type."""
    try:
        return _VIEW_TYPES[base_type]
    except KeyError:
        view_type = type(f"Sharded{base_type.__name__}",
                         (ShardFieldView, base_type), {})
        _VIEW_TYPES[base_type] = view_type
        return view_type


class ShardFieldView(Field):
    """One shard's slice of a field, in global Hilbert order.

    Local cell id ``j`` denotes the cell at global linearized position
    ``spec.start + j`` (global cell id ``global_ids[j]``).  Value
    geometry (``value_range``, ``bounds``) delegates to the *base*
    field, so anything derived from them — grid coordinates, Hilbert
    keys, the §3.1.2 cost-model parameters — is identical across
    shards and to the unsharded build.

    ``base`` is None in an engine reloaded without its field; the view
    then carries only ``records`` (what a merge rebuilds a shard from).

    Never instantiate this class directly; use :func:`shard_field_view`,
    which subclasses the field type so estimation helpers resolve
    correctly.
    """

    def __init__(self, base: Field | None, spec: ShardSpec,
                 global_ids: np.ndarray,
                 records: np.ndarray | None = None) -> None:
        # Deliberately no super().__init__: the view holds no geometry
        # of its own, it re-exposes a slice of a fully built field.
        self.base = base
        self.spec = spec
        self.global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(self.global_ids) != spec.num_cells:
            raise ValueError(
                f"shard {spec.shard_id} owns {spec.num_cells} cells but "
                f"got {len(self.global_ids)} global ids")
        if records is None:
            records = base.cell_records()[self.global_ids]
        elif len(records) != spec.num_cells:
            raise ValueError(
                f"shard {spec.shard_id} owns {spec.num_cells} cells but "
                f"got {len(records)} records")
        self._records = records

    # -- the shard's slice ---------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.global_ids)

    def cell_records(self) -> np.ndarray:
        """Shard records in global Hilbert order (``cell_id`` stays
        global — the coordinator's merge key)."""
        return self._records

    def cell_centroids(self) -> np.ndarray:
        return self.base.cell_centroids()[self.global_ids]

    def cell_interval(self, cell_id: int) -> Interval:
        rec = self._records[cell_id]
        return Interval(float(rec["vmin"]), float(rec["vmax"]))

    def locate_cell(self, *point: float) -> int | None:
        """Local id of the cell containing ``point``, if this shard
        owns it."""
        global_id = self.base.locate_cell(*point)
        if global_id is None:
            return None
        hits = np.flatnonzero(self.global_ids == global_id)
        return int(hits[0]) if len(hits) else None

    def value_at(self, *point: float) -> float:
        return self.base.value_at(*point)

    # -- delegated geometry (identical across shards) ------------------------

    @property
    def value_range(self) -> Interval:
        return self.base.value_range

    @property
    def bounds(self) -> tuple[float, ...]:
        return self.base.bounds

    def apply_updates(self, cell_ids: np.ndarray,
                      records: np.ndarray) -> None:
        raise NotImplementedError(
            "shard views are read-only; route updates through the "
            "sharded engine")


def shard_field_view(field_type: type, base: Field | None,
                     spec: ShardSpec, global_ids: np.ndarray,
                     records: np.ndarray | None = None) -> Field:
    """Build the shard view of ``base`` for one :class:`ShardSpec`.

    ``field_type`` is the engine's field type, which the view
    subclasses; ``base`` is a field of that type, or None for an engine
    reloaded without its field (``records`` is then required).
    ``global_ids`` lists the owned global cell ids in global Hilbert
    order (``order[spec.start:spec.stop]``).  ``records`` optionally
    supplies the current cell records (e.g. read back from a live
    shard store during rebalancing) instead of the base field's
    pristine ones.
    """
    return _view_type(field_type)(base, spec, global_ids, records)

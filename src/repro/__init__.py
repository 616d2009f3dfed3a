"""repro — value-domain indexing for continuous field databases.

A complete reproduction of "Indexing Values in Continuous Field
Databases" (Kang, Faloutsos, Laurini, Servigne — EDBT 2002): the
I-Hilbert subfield index, the I-All and LinearScan baselines, the DEM/TIN
field model with exact estimation, and the paper's full experiment suite
over a simulated paged store.

Quickstart::

    from repro import DEMField, IHilbertIndex, ValueQuery
    from repro.synth import roseburg_like

    field = roseburg_like(cells_per_side=128)
    index = IHilbertIndex(field)
    result = index.query(ValueQuery(200.0, 250.0))
    print(result.candidate_count, result.area)
"""

from .core import (
    BatchQueryEngine,
    BatchResult,
    CostBasedGrouping,
    FieldStatistics,
    ITreeIndex,
    IAllIndex,
    IHilbertIndex,
    IntervalQuadtreeIndex,
    LinearScanIndex,
    METHODS,
    PlannedIndex,
    PointIndex,
    QueryResult,
    Subfield,
    ThresholdGrouping,
    ValueIndex,
    ValueQuery,
    conjunctive_query,
    load_index,
    save_index,
)
from .field import (
    AnswerRegion,
    DEMField,
    Field,
    TINField,
    TemporalField,
    VectorField,
    VolumeField,
    triangulate,
)
from .geometry import Interval, Rect
from .rstar import RStarTree
from .storage import IOStats

__version__ = "1.0.0"

__all__ = [
    "AnswerRegion",
    "BatchQueryEngine",
    "BatchResult",
    "CostBasedGrouping",
    "DEMField",
    "Field",
    "FieldStatistics",
    "IAllIndex",
    "ITreeIndex",
    "IHilbertIndex",
    "IOStats",
    "Interval",
    "IntervalQuadtreeIndex",
    "LinearScanIndex",
    "METHODS",
    "PlannedIndex",
    "PointIndex",
    "QueryResult",
    "RStarTree",
    "Rect",
    "Subfield",
    "TINField",
    "TemporalField",
    "ThresholdGrouping",
    "ValueIndex",
    "ValueQuery",
    "VectorField",
    "VolumeField",
    "conjunctive_query",
    "load_index",
    "save_index",
    "triangulate",
]

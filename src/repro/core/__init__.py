"""The paper's contribution: value-domain access methods for fields."""

from .aggregate import (
    AGGREGATE_KINDS,
    AGGREGATE_MODES,
    AggregateModelSet,
    AggregateResult,
    fit_aggregate_models,
)
from .base import UPDATE_CRASH_POINTS, ValueIndex
from .batch import (
    BatchQueryEngine,
    BatchResult,
    DeviceModel,
    QueryGroup,
    merge_queries,
    run_sequential,
)
from .cost import (
    CostBasedGrouping,
    GroupingPolicy,
    ThresholdGrouping,
    group_cells,
)
from .facade import (
    EngineFacade,
    FacadeError,
    FieldExistsError,
    FieldHandle,
    UnknownFieldError,
)
from .grouped import GroupedIntervalIndex
from .iall import IAllIndex
from .ihilbert import IHilbertIndex, default_curve_order, linearize
from .iquadtree import IntervalQuadtreeIndex
from .intervaltree import ITreeIndex
from .linearscan import LinearScanIndex
from .multifield import MultiFieldResult, conjunctive_query
from .persist import PersistError, load_index, save_index
from .planner import Plan, PlannedIndex
from .statistics import FieldStatistics
from .pointindex import PointIndex
from .query import QueryResult, ValueQuery
from .subfield import Subfield

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
    "I-Quadtree": IntervalQuadtreeIndex,
}

__all__ = [
    "AGGREGATE_KINDS",
    "AGGREGATE_MODES",
    "AggregateModelSet",
    "AggregateResult",
    "fit_aggregate_models",
    "BatchQueryEngine",
    "BatchResult",
    "QueryGroup",
    "merge_queries",
    "run_sequential",
    "CostBasedGrouping",
    "EngineFacade",
    "FacadeError",
    "FieldExistsError",
    "FieldHandle",
    "GroupedIntervalIndex",
    "GroupingPolicy",
    "UnknownFieldError",
    "FieldStatistics",
    "IAllIndex",
    "ITreeIndex",
    "IHilbertIndex",
    "IntervalQuadtreeIndex",
    "LinearScanIndex",
    "METHODS",
    "MultiFieldResult",
    "DeviceModel",
    "PersistError",
    "Plan",
    "PlannedIndex",
    "load_index",
    "save_index",
    "PointIndex",
    "QueryResult",
    "Subfield",
    "ThresholdGrouping",
    "UPDATE_CRASH_POINTS",
    "ValueIndex",
    "ValueQuery",
    "conjunctive_query",
    "default_curve_order",
    "group_cells",
    "linearize",
]

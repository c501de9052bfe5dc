"""Fleet-scale scatter-gather aggregation over profiling sessions.

The cross-session counterpart of the per-session Report API: a typed
:class:`AggregateRequest` selects sessions by ``fnmatch`` pattern,
computes one mergeable partial per session in-process, and gathers
them into one versioned ``repro.aggregate/1`` payload — with store
memoization of partials and chaos-plane coverage of the dispatch and
merge sites.  See ``docs/AGGREGATION.md``.
"""

from .request import (
    AGGREGATE_SCHEMA,
    GROUP_BYS,
    OPS,
    AggregateRequest,
    AggregateRequestError,
    category_of,
    is_aggregate_document,
)
from .partial import (
    PARTIAL_SCHEMA,
    GroupedPartial,
    HistogramPartial,
    PartialFormatError,
    PartialMergeError,
    empty_partial,
    merge_partials,
    partial_from_dict,
)
from .compute import session_partial, session_values
from .engine import (
    AGGREGATE_REF_NAMESPACE,
    AggregateResponse,
    run_aggregate,
)

__all__ = [
    "AGGREGATE_REF_NAMESPACE",
    "AGGREGATE_SCHEMA",
    "GROUP_BYS",
    "OPS",
    "PARTIAL_SCHEMA",
    "AggregateRequest",
    "AggregateRequestError",
    "AggregateResponse",
    "GroupedPartial",
    "HistogramPartial",
    "PartialFormatError",
    "PartialMergeError",
    "category_of",
    "empty_partial",
    "is_aggregate_document",
    "merge_partials",
    "partial_from_dict",
    "run_aggregate",
    "session_partial",
    "session_values",
]

"""Scatter-gather execution of one fleet aggregate.

:func:`run_aggregate` drives an :class:`AggregateRequest` against a
:class:`~repro.serve.service.ProfilingService`:

1. **select** — the session selector picks its fleet slice (sorted, so
   every downstream step is order-canonical);
2. **memo probe** — with an artifact store attached, each selected
   session's partial is looked up under
   ``refs/aggregate/<session-digest16>-<request-token16>`` — only
   *dirty* sessions (new content, new request shape) are recomputed;
3. **scatter** — misses are computed in-process, one retried
   :func:`~repro.aggregate.compute.session_partial` per session;
4. **gather** — partials merge pairwise (pure, associative; see
   :mod:`repro.aggregate.partial`) into the versioned
   ``repro.aggregate/1`` payload.

Failure contract (the chaos plane arms ``aggregate.dispatch`` and
``aggregate.merge``): a session whose partial cannot be computed or
merged is *excluded and named* — the payload carries
``partial: true`` plus the exact ``missing_sessions`` list and
per-session error texts.  A total can be incomplete, never silently
wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..faults import (
    InjectedWorkerCrash,
    RetriesExhaustedError,
    fault_point,
    run_with_retry,
)
from ..store import CodecError, StoreError
from .compute import session_partial
from .partial import PartialFormatError, PartialMergeError, empty_partial, partial_from_dict
from .request import AGGREGATE_SCHEMA, AggregateRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serve.service import ProfilingService, SessionRecord

#: Store ref namespace memoized partials live under.
AGGREGATE_REF_NAMESPACE = "aggregate"

STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass
class AggregateResponse:
    """One answered (or refused) aggregate."""

    status: str
    request: AggregateRequest
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    latency_us: float = 0.0
    #: Provenance counters — deliberately *outside* the payload so the
    #: payload bytes stay identical across live / memoized / chaos runs.
    memoized: int = 0
    computed: int = 0

    @property
    def ok(self) -> bool:
        """Whether the aggregate was answered."""
        return self.status == STATUS_OK

    @property
    def partial(self) -> bool:
        """Whether any selected session is missing from the answer."""
        return bool(self.payload and self.payload.get("partial"))

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {
            "status": self.status,
            "request": self.request.to_dict(),
            "latency_us": self.latency_us,
            "memoized": self.memoized,
            "computed": self.computed,
        }
        if self.payload is not None:
            data["aggregate"] = self.payload
        if self.error is not None:
            data["error"] = self.error
        return data


@dataclass
class _Scatter:
    """Book-keeping for one aggregate's scatter phase."""

    partials: Dict[str, Any] = field(default_factory=dict)
    missing: Dict[str, str] = field(default_factory=dict)
    memoized: int = 0
    computed: int = 0


def _session_digest(record: "SessionRecord") -> Optional[str]:
    """The content identity memoized partials key on (None: un-keyed)."""
    digest = getattr(record, "content_digest", None)
    return digest or None


def _memo_ref(digest: str, request: AggregateRequest) -> str:
    return f"{digest[:16]}-{request.cache_token()[:16]}"


def _probe_memo(
    service: "ProfilingService", request: AggregateRequest, names: List[str]
) -> Tuple[Dict[str, Any], List[str]]:
    """Load memoized partials; return (hits, still-to-compute)."""
    hits: Dict[str, Any] = {}
    to_compute: List[str] = []
    store = service.store
    if store is None:
        return hits, list(names)
    for name in names:
        digest = _session_digest(service.sessions[name])
        if digest is None:
            to_compute.append(name)
            continue
        memo_digest = store.get_ref(AGGREGATE_REF_NAMESPACE, _memo_ref(digest, request))
        if memo_digest is None or not store.has(memo_digest):
            to_compute.append(name)
            continue
        try:
            partial = partial_from_dict(store.get(memo_digest))
        except (StoreError, CodecError, PartialFormatError, OSError):
            # A corrupt memo degrades to a recompute, never an abort.
            store.evict(memo_digest)
            to_compute.append(name)
            continue
        if name not in partial.sessions:
            to_compute.append(name)  # memo for some other session shape
            continue
        hits[name] = partial
    return hits, to_compute


def _memoize(
    service: "ProfilingService",
    request: AggregateRequest,
    name: str,
    partial: Any,
) -> None:
    """Best-effort memo write (an optimisation, never a failure)."""
    store = service.store
    if store is None:
        return
    digest = _session_digest(service.sessions[name])
    if digest is None:
        return
    try:
        info = store.put(
            partial.to_dict(),
            "json",
            meta={"session": name, "request": request.cache_token()[:16]},
        )
        store.set_ref(AGGREGATE_REF_NAMESPACE, _memo_ref(digest, request), info.digest)
    except (StoreError, OSError):
        pass


def _compute(
    service: "ProfilingService",
    request: AggregateRequest,
    names: List[str],
    scatter: _Scatter,
) -> None:
    """In-process scatter: one retried dispatch per session."""
    for name in names:
        record = service.sessions[name]

        def _attempt(record=record, name=name):
            fault_point("aggregate.dispatch")
            return session_partial(name, record.analyzer, request)

        try:
            partial = run_with_retry(
                _attempt, site="aggregate.dispatch", retry_on=(OSError,)
            )
        except (RetriesExhaustedError, StoreError, InjectedWorkerCrash) as exc:
            scatter.missing[name] = f"{type(exc).__name__}: {exc}"
            continue
        scatter.partials[name] = partial
        scatter.computed += 1
        _memoize(service, request, name, partial)


def _gather(
    request: AggregateRequest, scatter: _Scatter
) -> Tuple[Any, List[str]]:
    """Merge partials in canonical session order; retried per merge."""
    merged = empty_partial(request)
    included: List[str] = []
    for name in sorted(scatter.partials):
        partial = scatter.partials[name]

        def _attempt(partial=partial, merged_so_far=None):
            fault_point("aggregate.merge")
            return (merged if merged_so_far is None else merged_so_far).merge(partial)

        try:
            merged = run_with_retry(
                _attempt, site="aggregate.merge", retry_on=(OSError,)
            )
        except (
            RetriesExhaustedError,
            InjectedWorkerCrash,
            PartialMergeError,
        ) as exc:
            scatter.missing[name] = f"{type(exc).__name__}: {exc}"
            continue
        included.append(name)
    return merged, included


def run_aggregate(
    service: "ProfilingService", request: AggregateRequest
) -> AggregateResponse:
    """Answer one fleet aggregate against a service's sessions."""
    started = time.perf_counter()
    names = request.select(service.sessions)
    _publish_issued(service, request, len(names))

    scatter = _Scatter()
    hits, to_compute = _probe_memo(service, request, names)
    scatter.partials.update(hits)
    scatter.memoized = len(hits)
    for name in hits:
        _publish_partial(service, name, memoized=True)

    _compute(service, request, to_compute, scatter)
    for name in to_compute:
        if name in scatter.partials:
            _publish_partial(service, name, memoized=False)

    merged, included = _gather(request, scatter)
    payload: Dict[str, Any] = {
        "schema": AGGREGATE_SCHEMA,
        "request": request.to_dict(),
        "sessions": included,
        "missing_sessions": sorted(scatter.missing),
        "partial": bool(scatter.missing),
        "result": merged.finalize(request),
    }
    if scatter.missing:
        payload["errors"] = {
            name: scatter.missing[name] for name in sorted(scatter.missing)
        }
    _publish_merged(service, request, len(included), len(scatter.missing))
    return AggregateResponse(
        status=STATUS_OK,
        request=request,
        payload=payload,
        latency_us=(time.perf_counter() - started) * 1e6,
        memoized=scatter.memoized,
        computed=scatter.computed,
    )


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def _publish_issued(
    service: "ProfilingService", request: AggregateRequest, selected: int
) -> None:
    if service.bus is None:
        return
    from ..telemetry import AggregateIssuedEvent

    service.publish(
        AggregateIssuedEvent(
            time=0.0,
            backend=request.backend,
            op=request.op,
            group_by=request.group_by,
            sessions=selected,
        )
    )


def _publish_partial(
    service: "ProfilingService", session: str, memoized: bool
) -> None:
    if service.bus is None:
        return
    from ..telemetry import AggregatePartialEvent

    service.publish(
        AggregatePartialEvent(time=0.0, session=session, memoized=memoized)
    )


def _publish_merged(
    service: "ProfilingService",
    request: AggregateRequest,
    merged: int,
    missing: int,
) -> None:
    if service.bus is None:
        return
    from ..telemetry import AggregateMergedEvent

    service.publish(
        AggregateMergedEvent(
            time=0.0,
            op=request.op,
            merged=merged,
            missing=missing,
            partial=missing > 0,
        )
    )

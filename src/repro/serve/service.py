"""The profiling query service: sessions, cache, admission.

:class:`ProfilingService` is the long-lived serving path the ROADMAP
asks for — ingest once, answer many.  One *session* per ingested
:class:`~repro.offline.trace.DeviceTrace`; every query is a typed
:class:`~repro.reports.ReportRequest` against one session and is
answered through the unified :class:`~repro.reports.ReportView`
protocol, so all five backends come back in one shape.

Structure:

* **Result LRU** — answered wire payloads are cached on
  ``(session, backend, window, owners)``; an unchanged question is a
  dictionary lookup, never a recomputation.  Each entry carries the
  report's pre-encoded JSON text too (:class:`CachedReport`), so a
  front-end writes a hit without re-encoding it.
* **Thread safety** — one short service lock guards the cache, the
  stats and the bus; analyzer work runs outside it under a separate
  compute lock.  A front-end may therefore answer cache hits on one
  thread while another computes misses (see :mod:`repro.serve.net`).
* **One in-process core** — every report comes from the session's
  :class:`~repro.offline.analyzer.OfflineAnalyzer` in this process;
  the batch, stdin-daemon and TCP front-ends all answer through
  :meth:`~ProfilingService.submit` / :meth:`~ProfilingService.aggregate`.
* **Admission control** — arrivals are taken in bursts against a
  bounded queue of depth ``max_queue``; what doesn't fit is *shed* with
  an explicit ``status: shed`` response (never silently dropped), the
  signal for callers to back off and resubmit.
* **Artifact store** — with ``store_dir`` set, the service runs against
  a :class:`~repro.store.ArtifactStore`: corpus replay is digest-
  memoized (see :mod:`repro.serve.ingest`), sessions persist as
  ``refs/session/<name>`` pointers at binary trace artifacts (so a new
  process can :meth:`~ProfilingService.restore_sessions` without
  re-ingesting), and ``spill=True`` releases each trace from memory
  after ingest, faulting it back in lazily on first query.
* **Telemetry** — every ingest/serve/shed publishes a typed event on
  the service's :class:`~repro.telemetry.TelemetryBus`
  (:data:`~repro.telemetry.Category.SERVE`).
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

from ..faults import RetriesExhaustedError, fault_point, run_with_retry
from ..offline.analyzer import OfflineAnalyzer
from ..offline.trace import DeviceTrace
from ..reports.request import UnknownBackendError
from ..store import StoreError
from .ingest import IngestedTrace, IngestError, PathLike, iter_traces
from .protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    QueryRequest,
    QueryResponse,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..aggregate.engine import AggregateResponse
    from ..aggregate.request import AggregateRequest
    from ..store import ArtifactStore

#: Store ref namespace persisted sessions live under.
SESSION_REF_NAMESPACE = "session"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one service instance."""

    max_queue: int = 256
    cache_entries: int = 512
    telemetry: bool = True
    store_dir: Optional[str] = None
    spill: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for the manifest)."""
        return {
            "max_queue": self.max_queue,
            "cache_entries": self.cache_entries,
            "telemetry": self.telemetry,
            "store_dir": self.store_dir,
            "spill": self.spill,
        }


class SessionRecord:
    """One ingested trace, lazily analyzable.

    The summary fields (``captured_at``, ``channel_count`` …) are cached
    at construction so manifests and telemetry never fault a spilled
    trace back into memory just to describe it.
    """

    def __init__(
        self,
        name: str,
        trace: DeviceTrace,
        source: str,
        digest: Optional[str] = None,
    ) -> None:
        self.name = name
        self.source = source
        self._trace: Optional[DeviceTrace] = trace
        self._analyzer: Optional[OfflineAnalyzer] = None
        self._store: Optional["ArtifactStore"] = None
        self._digest: Optional[str] = None
        #: Stable content identity (source sha256 or artifact digest);
        #: keys memoized aggregate partials.  None: memoization skipped.
        self.content_digest: Optional[str] = digest
        self.captured_at = trace.captured_at
        self.channel_count = len(trace.channels)
        self.link_count = len(trace.links)
        self.app_count = len(trace.apps)

    @classmethod
    def from_store(
        cls, name: str, store: "ArtifactStore", digest: str, source: str = "store"
    ) -> "SessionRecord":
        """A session backed entirely by a stored artifact (no decode yet)."""
        record = cls.__new__(cls)
        record.name = name
        record.source = source
        record._trace = None
        record._analyzer = None
        record._store = store
        record._digest = digest
        record.content_digest = digest
        meta = store.info(digest).meta
        record.captured_at = float(meta.get("captured_at", 0.0))
        record.channel_count = int(meta.get("channels", 0))
        record.link_count = int(meta.get("links", 0))
        record.app_count = int(meta.get("apps", 0))
        return record

    @property
    def spilled(self) -> bool:
        """Whether the trace currently lives only in the store."""
        return self._trace is None

    @property
    def trace(self) -> DeviceTrace:
        """The session's trace, faulted in from the store if spilled.

        The fault-in is retried under the shared policy (transient read
        failures and one-off digest mismatches recover); persistent
        failure surfaces as :class:`~repro.faults.RetriesExhaustedError`
        for the serving path to turn into a typed error response.
        """
        if self._trace is None:
            from ..store import ArtifactCorruptError

            assert self._store is not None and self._digest is not None
            store, digest = self._store, self._digest

            def _fault_in() -> DeviceTrace:
                fault_point("serve.restore")
                return store.get(digest)

            self._trace = run_with_retry(
                _fault_in,
                site="serve.restore",
                retry_on=(OSError, ArtifactCorruptError),
            )
        return self._trace

    def spill(self, store: "ArtifactStore") -> str:
        """Persist the trace to ``store`` and release the in-memory copy.

        Returns the artifact digest; a ``refs/session/<name>`` pointer
        keeps it gc-reachable and restorable by later processes.
        """
        fault_point("serve.spill")
        if self._digest is None or self._store is not store:
            info = store.put(
                self.trace,
                "trace-bin",
                meta={
                    "session": self.name,
                    "captured_at": self.captured_at,
                    "channels": self.channel_count,
                    "links": self.link_count,
                    "apps": self.app_count,
                },
            )
            self._store = store
            self._digest = info.digest
        store.set_ref(SESSION_REF_NAMESPACE, self.name, self._digest)
        if self.content_digest is None:
            self.content_digest = self._digest
        self._trace = None
        self._analyzer = None
        return self._digest

    @property
    def analyzer(self) -> OfflineAnalyzer:
        """The session's analyzer (built on first query)."""
        if self._analyzer is None:
            self._analyzer = OfflineAnalyzer(self.trace)
        return self._analyzer

    def describe(self) -> Dict[str, Any]:
        """JSON-ready session summary (for the manifest)."""
        return {
            "source": self.source,
            "captured_at": self.captured_at,
            "channels": self.channel_count,
            "links": self.link_count,
            "apps": self.app_count,
            "spilled": self.spilled,
        }


class CachedReport(NamedTuple):
    """One result-cache entry: the report payload and its JSON text."""

    report: Dict[str, Any]
    text: str


class ResultLRU:
    """Bounded answered-report cache keyed on the query identity.

    Each entry keeps the report's ``json.dumps`` text beside the dict,
    so a hit is written to the wire without re-encoding, and the text
    is evicted with its entry.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[Any, ...], CachedReport]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: Tuple[Any, ...]) -> bool:
        """Whether ``key`` is cached — a peek: no recency, no counters."""
        return key in self._entries

    def get(self, key: Tuple[Any, ...]) -> Optional[CachedReport]:
        """The cached entry, refreshed to most-recent, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: Tuple[Any, ...], entry: CachedReport) -> None:
        """Record one answered report, evicting the least recent."""
        if self.capacity <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached payload (counters keep running)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ServeStats:
    """Running counters over the service's lifetime."""

    ingested: int = 0
    received: int = 0
    answered: int = 0
    shed: int = 0
    errors: int = 0
    ingest_errors: int = 0
    spill_failures: int = 0
    aggregates: int = 0
    by_backend: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for the manifest)."""
        out = {
            "ingested": self.ingested,
            "received": self.received,
            "answered": self.answered,
            "shed": self.shed,
            "errors": self.errors,
            "by_backend": dict(self.by_backend),
        }
        if self.ingest_errors:
            out["ingest_errors"] = self.ingest_errors
        if self.spill_failures:
            out["spill_failures"] = self.spill_failures
        if self.aggregates:
            out["aggregates"] = self.aggregates
        return out


class UnknownSessionError(KeyError):
    """A query named a session the service has not ingested."""

    def __init__(self, session: str) -> None:
        super().__init__(session)
        self.session = session

    def __str__(self) -> str:
        return f"unknown session {self.session!r}"


class ProfilingService:
    """Ingest traces once; answer report queries many times."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.sessions: Dict[str, SessionRecord] = {}
        self.cache = ResultLRU(self.config.cache_entries)
        self.stats = ServeStats()
        self.ingest_errors: List[IngestError] = []
        self.store: Optional["ArtifactStore"] = None
        if self.config.store_dir:
            from ..store import ArtifactStore

            self.store = ArtifactStore(self.config.store_dir)
        self.bus = None
        if self.config.telemetry:
            from ..telemetry import TelemetryBus

            self.bus = TelemetryBus()
        # One short lock guards every mutation of the cache, the stats
        # and the bus, so a front-end may answer cache hits on one
        # thread while another computes.  The analyzer work itself —
        # fault-in, analyzer build, describe, aggregate partials — runs
        # outside it, serialised by the compute lock.
        self._lock = threading.RLock()
        self._compute_lock = threading.Lock()

    def publish(self, event: Any) -> None:
        """Publish one event on the service's bus (no-op without one)."""
        if self.bus is not None:
            with self._lock:
                self.bus.publish(event)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_trace(
        self,
        name: str,
        trace: DeviceTrace,
        source: str = "memory",
        digest: Optional[str] = None,
    ) -> SessionRecord:
        """Register one trace as a queryable session (replaces by name).

        ``digest`` is the trace's content identity (source sha256) when
        the caller knows it — it keys memoized aggregate partials.
        """
        record = SessionRecord(name, trace, source, digest=digest)
        self.sessions[name] = record
        with self._lock:
            self.stats.ingested += 1
        if self.bus is not None:
            from ..telemetry import SessionIngestedEvent

            self.publish(
                SessionIngestedEvent(
                    time=record.captured_at,
                    session=name,
                    source=source,
                    channels=record.channel_count,
                    links=record.link_count,
                )
            )
        if self.store is not None and self.config.spill:
            try:
                record.spill(self.store)
            except OSError:
                # The session simply stays in memory; spilling is a
                # memory optimisation, not a correctness requirement.
                with self._lock:
                    self.stats.spill_failures += 1
        return record

    def _session_name(self, ingested: IngestedTrace) -> str:
        """Disambiguate same-stem ingests from *different* sources.

        Re-ingesting the same file stays idempotent by name; a different
        file that happens to share the stem gets a short content-digest
        suffix instead of silently replacing the earlier session.
        """
        existing = self.sessions.get(ingested.session)
        if existing is None or existing.source == ingested.source:
            return ingested.session
        suffix = (
            ingested.digest[:8]
            if ingested.digest
            else format(zlib.crc32(ingested.source.encode("utf-8")), "08x")
        )
        return f"{ingested.session}@{suffix}"

    def ingest(self, path: PathLike, strict: bool = True) -> List[str]:
        """Batch-ingest a trace file, JSONL stream, or directory.

        ``strict=False`` records per-source failures in
        :attr:`ingest_errors` and keeps going — every source in the
        batch ends up as a session or an error record, never silently
        dropped.  The default raises on the first bad source, as the
        CLI has always done.
        """
        names: List[str] = []
        errors: Optional[List[IngestError]] = None if strict else []
        for ingested in iter_traces(path, store=self.store, errors=errors):
            name = self._session_name(ingested)
            self.ingest_trace(
                name, ingested.trace, ingested.source, digest=ingested.digest
            )
            names.append(name)
        if errors:
            self.ingest_errors.extend(errors)
            with self._lock:
                self.stats.ingest_errors += len(errors)
        return names

    def restore_sessions(self) -> List[str]:
        """Re-register every session the store has persisted.

        Traces are *not* decoded here — each restored session reads its
        summary from the artifact manifest and faults the trace in on
        first query.  Returns the restored names (existing in-memory
        sessions with the same name are left alone).
        """
        if self.store is None:
            return []
        names: List[str] = []
        for (_, name), digest in sorted(
            self.store.refs(SESSION_REF_NAMESPACE).items()
        ):
            if name in self.sessions or not self.store.has(digest):
                continue
            try:
                record = SessionRecord.from_store(name, self.store, digest)
            except (StoreError, OSError) as exc:
                # Name the session being restored — a bare store error
                # gives the operator nothing to delete or re-ingest.
                raise StoreError(
                    f"failed to restore session {name!r} "
                    f"(ref {SESSION_REF_NAMESPACE}/{name}, "
                    f"artifact {digest[:16]}): {exc}"
                ) from exc
            self.sessions[name] = record
            with self._lock:
                self.stats.ingested += 1
            if self.bus is not None:
                from ..telemetry import SessionIngestedEvent

                self.publish(
                    SessionIngestedEvent(
                        time=record.captured_at,
                        session=name,
                        source="store",
                        channels=record.channel_count,
                        links=record.link_count,
                    )
                )
            names.append(name)
        return names

    def session_names(self) -> List[str]:
        """Every ingested session, in ingestion order."""
        return list(self.sessions)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def is_cached(self, query: QueryRequest) -> bool:
        """Whether ``query``'s answer is cached — a peek that counts
        neither a hit nor a miss.

        Front-ends use it to route a query: a cached one is cheap enough
        to :meth:`submit` anywhere.  Should the entry be evicted before
        that submit, the submit simply computes (correct, just slower).
        """
        return query.key() in self.cache

    def submit(self, query: QueryRequest) -> QueryResponse:
        """Answer one query in-process (cache first, then compute).

        Thread-safe: cache and stats are touched under the service lock,
        the compute under the compute lock.
        """
        started = time.perf_counter()
        key = query.key()
        with self._lock:
            self.stats.received += 1
            entry = self.cache.get(key)
        if entry is not None:
            return self._finish(query, entry, started, cached=True)
        try:
            with self._compute_lock:
                report = self._answer(query)
        except UnknownSessionError as exc:
            return self._finish_error(query, str(exc), started)
        except (UnknownBackendError, ValueError) as exc:
            return self._finish_error(query, str(exc), started)
        except (RetriesExhaustedError, StoreError, OSError) as exc:
            # Fault-in kept failing or the query path itself faulted:
            # the caller gets a typed error naming the failure class.
            return self._finish_error(
                query, f"{type(exc).__name__}: {exc}", started
            )
        entry = CachedReport(report, json.dumps(report))
        with self._lock:
            self.cache.store(key, entry)
        return self._finish(query, entry, started, cached=False)

    def aggregate(self, request: "AggregateRequest") -> "AggregateResponse":
        """Answer one fleet aggregate across this service's sessions.

        Scatter-gather over every session the request's selector
        matches: partials come from the store memo when fresh and are
        computed in-process otherwise, then merge into one ``repro.aggregate/1`` payload.  See
        :func:`repro.aggregate.run_aggregate`.
        """
        from ..aggregate.engine import run_aggregate

        with self._lock:
            self.stats.aggregates += 1
        with self._compute_lock:
            return run_aggregate(self, request)

    def serve_batch(
        self,
        queries: Sequence[QueryRequest],
        burst: Optional[int] = None,
    ) -> List[QueryResponse]:
        """Answer a query load under admission control.

        Arrivals are consumed in bursts of ``burst`` (default: the queue
        depth) against the bounded queue: the first ``max_queue``
        queries of each burst are admitted and served, the rest are shed
        with explicit ``status: shed`` responses.  At the default burst
        size shedding is impossible — backpressure only appears when the
        caller deliberately delivers bursts larger than the queue.

        One response per query, in arrival order (ids need not be
        unique).
        """
        burst_size = self.config.max_queue if burst is None else max(1, burst)
        responses: List[QueryResponse] = []
        depth = self.config.max_queue
        for begin in range(0, len(queries), burst_size):
            arrival = queries[begin : begin + burst_size]
            responses.extend(self.submit(query) for query in arrival[:depth])
            responses.extend(self.shed(query) for query in arrival[depth:])
        return responses

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _answer(self, query: QueryRequest) -> Dict[str, Any]:
        """Compute one report payload (no cache, no stats)."""
        fault_point("serve.query")
        record = self.sessions.get(query.session)
        if record is None:
            raise UnknownSessionError(query.session)
        return record.analyzer.describe(query.report).to_dict()

    def _finish(
        self,
        query: QueryRequest,
        entry: CachedReport,
        started: float,
        cached: bool,
    ) -> QueryResponse:
        response = QueryResponse(
            id=query.id,
            session=query.session,
            status=STATUS_OK,
            report=entry.report,
            report_text=entry.text,
            cached=cached,
            latency_us=(time.perf_counter() - started) * 1e6,
        )
        self._note(query, response)
        return response

    def _finish_error(
        self, query: QueryRequest, error: str, started: float
    ) -> QueryResponse:
        response = QueryResponse(
            id=query.id,
            session=query.session,
            status=STATUS_ERROR,
            error=error,
            latency_us=(time.perf_counter() - started) * 1e6,
        )
        self._note(query, response)
        return response

    def shed(self, query: QueryRequest) -> QueryResponse:
        """Refuse one query under admission control (counted, never silent).

        Public because every serving front-end (batch, daemon, TCP) must
        shed through the same accounting path so
        ``received == answered + errors + shed`` holds service-wide.
        """
        with self._lock:
            self.stats.received += 1
            self.stats.shed += 1
        if self.bus is not None:
            from ..telemetry import QueryShedEvent

            record = self.sessions.get(query.session)
            self.publish(
                QueryShedEvent(
                    time=record.captured_at if record else 0.0,
                    session=query.session,
                    backend=query.report.backend,
                    queue_depth=self.config.max_queue,
                )
            )
        return QueryResponse(
            id=query.id,
            session=query.session,
            status=STATUS_SHED,
            error=f"queue full (depth {self.config.max_queue}); back off and resubmit",
        )

    def _note(self, query: QueryRequest, response: QueryResponse) -> None:
        """Fold one served/errored response into stats + telemetry."""
        event = None
        if self.bus is not None:
            from ..telemetry import QueryServedEvent

            record = self.sessions.get(query.session)
            event = QueryServedEvent(
                time=record.captured_at if record else 0.0,
                session=query.session,
                backend=query.report.backend,
                status=response.status,
                cached=response.cached,
                latency_us=response.latency_us,
            )
        with self._lock:
            if response.status == STATUS_OK:
                self.stats.answered += 1
                by_backend = self.stats.by_backend
                backend = query.report.backend
                by_backend[backend] = by_backend.get(backend, 0) + 1
            else:
                self.stats.errors += 1
            if event is not None:
                self.bus.publish(event)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """The service's run record: config, sessions, stats, cache."""
        return {
            "kind": "repro-serve-manifest",
            "config": self.config.as_dict(),
            "sessions": {
                name: record.describe() for name, record in self.sessions.items()
            },
            "stats": self.stats.as_dict(),
            "cache": {
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
            },
            "store": self.store.stats() if self.store is not None else None,
            "telemetry": self.bus.stats_dict() if self.bus is not None else None,
            **(
                {"ingest_errors": [e.to_dict() for e in self.ingest_errors]}
                if self.ingest_errors
                else {}
            ),
        }

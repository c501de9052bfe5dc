"""The query service's request/response wire protocol.

One :class:`QueryRequest` names a *session* (an ingested trace) plus a
:class:`~repro.reports.ReportRequest`; one :class:`QueryResponse`
carries the answered :class:`~repro.reports.ReportView` wire form (its
``to_dict()``), or an explicit refusal.  Both round-trip through flat
JSON objects, one per JSONL line — which is also the daemon's stdin /
stdout framing.

Response statuses:

* ``ok``    — the report payload is attached;
* ``shed``  — admission control refused the query (queue full); the
  caller should back off and resubmit;
* ``error`` — the query itself was bad (unknown session/backend,
  malformed window); resubmitting the same query cannot succeed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..reports.request import ReportRequest

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_ERROR = "error"

#: Session name that expands to *every* ingested session client-side.
ALL_SESSIONS = "*"

#: The largest wire line (request side) any serving front-end accepts —
#: shared by the stdin daemon and the TCP server so an oversized line
#: degrades to the same typed ``error`` response on both transports.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A wire document could not be parsed as a query."""


@dataclass(frozen=True)
class QueryRequest:
    """One query: which session, which report.

    ``id`` is caller-chosen and echoed back verbatim so responses can be
    matched to requests across batching and wildcard fan-out.
    """

    id: int
    session: str
    report: ReportRequest

    def key(self):
        """The result-cache identity: (session, backend, window, owners)."""
        return (self.session,) + self.report.key()

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {"id": self.id, "session": self.session}
        data.update(self.report.to_dict())
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], default_id: int = 0) -> "QueryRequest":
        """Parse the :meth:`to_dict` shape (validating as it builds)."""
        try:
            session = str(data["session"])
        except KeyError as exc:
            raise ProtocolError("query is missing required field 'session'") from exc
        if "backend" not in data:
            raise ProtocolError("query is missing required field 'backend'")
        report = ReportRequest.from_dict(data)
        return cls(id=int(data.get("id", default_id)), session=session, report=report)


@dataclass
class QueryResponse:
    """One answered (or refused) query."""

    id: int
    session: str
    status: str
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    latency_us: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)
    #: ``json.dumps(report)``, when the result cache already holds it —
    #: :func:`encode_response_line` splices it in instead of re-encoding.
    report_text: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the query was answered."""
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {
            "id": self.id,
            "session": self.session,
            "status": self.status,
            "cached": self.cached,
            "latency_us": self.latency_us,
        }
        if self.report is not None:
            data["report"] = self.report
        if self.error is not None:
            data["error"] = self.error
        data.update(self.extras)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResponse":
        """Rebuild from :meth:`to_dict` data."""
        known = {"id", "session", "status", "cached", "latency_us", "report", "error"}
        return cls(
            id=int(data.get("id", 0)),
            session=str(data.get("session", "")),
            status=str(data["status"]),
            report=data.get("report"),
            error=data.get("error"),
            cached=bool(data.get("cached", False)),
            latency_us=float(data.get("latency_us", 0.0)),
            extras={k: v for k, v in data.items() if k not in known},
        )


def parse_queries_jsonl(lines: Iterable[str]) -> List[QueryRequest]:
    """Parse a JSONL query stream (blank lines and ``#`` comments skip).

    Queries without an explicit ``id`` get their (1-based) line sequence
    number, so responses stay matchable even for anonymous streams.
    """
    queries: List[QueryRequest] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ProtocolError(
                f"line {lineno}: query must be a JSON object, "
                f"got {type(data).__name__}"
            )
        try:
            queries.append(QueryRequest.from_dict(data, default_id=lineno))
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"line {lineno}: {exc}") from exc
    return queries


#: The fields :meth:`QueryResponse.to_dict` writes up to the report.
_FIXED_FIELDS = ("id", "session", "status", "cached", "latency_us", "report")


def encode_response_line(response: Any, line_id: Optional[int] = None) -> str:
    """One wire line for a response: ``json.dumps(to_dict()) + "\\n"``.

    The single response encoder every front-end (TCP writer, stdin
    daemon, :func:`responses_to_jsonl`) writes through.  A
    :class:`QueryResponse` carrying ``report_text`` — a result-cache
    entry's pre-encoded report — gets that text spliced in verbatim, so
    a cached report is encoded once however often it is served; the
    output is byte-identical to encoding the whole dict.  Anything else
    with a ``to_dict()`` (an aggregate answer) is encoded whole;
    ``line_id`` puts an ``"id"`` field in front, the wire form of an
    aggregate, whose own dict carries none.
    """
    text = getattr(response, "report_text", None)
    if text is None or response.report is None:
        data = response.to_dict()
        if line_id is not None:
            data = {"id": line_id, **data}
        return json.dumps(data) + "\n"
    tail: Dict[str, Any] = {}
    if response.error is not None:
        tail["error"] = response.error
    tail.update(response.extras)
    if not tail.keys().isdisjoint(_FIXED_FIELDS):
        # An extra overriding a fixed field keeps that field's slot.
        return json.dumps(response.to_dict()) + "\n"
    head = json.dumps(
        {
            "id": response.id,
            "session": response.session,
            "status": response.status,
            "cached": response.cached,
            "latency_us": response.latency_us,
        }
    )
    rest = ", " + json.dumps(tail)[1:] if tail else "}"
    return head[:-1] + ', "report": ' + text + rest + "\n"


def responses_to_jsonl(responses: Iterable[QueryResponse]) -> str:
    """Serialise responses as JSONL text (one response per line)."""
    return "".join(encode_response_line(r) for r in responses) or "\n"


@dataclass(frozen=True)
class DecodedLine:
    """What one wire line decoded to — a query, an aggregate, or a typed
    refusal.  Exactly one of ``query`` / ``aggregate`` / ``error`` is
    set, matching ``kind``.
    """

    kind: str  # "query" | "aggregate" | "error"
    id: int
    query: Optional[QueryRequest] = None
    aggregate: Optional[Any] = None
    error: Optional[str] = None


def decode_request_line(text: str, default_id: int = 0) -> DecodedLine:
    """Decode one JSONL wire line; **never raises**.

    This is the single request-parse boundary every serving front-end
    (stdin daemon, TCP server) goes through: any garbage, truncated,
    non-object, or otherwise malformed line comes back as a typed
    ``kind="error"`` result the caller turns into a ``status: error``
    response — a broken line must never take down a connection handler,
    and must never be silently dropped.  A line carrying an ``op`` field
    is routed to the fleet-aggregation request parser, everything else
    to :meth:`QueryRequest.from_dict`.
    """
    from ..aggregate import AggregateRequestError, is_aggregate_document

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return DecodedLine(kind="error", id=default_id, error=f"not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:  # pathological nesting etc.
        return DecodedLine(
            kind="error", id=default_id, error=f"unparseable line: {exc}"
        )
    if not isinstance(data, dict):
        return DecodedLine(
            kind="error",
            id=default_id,
            error=f"query must be a JSON object, got {type(data).__name__}",
        )
    try:
        qid = int(data.get("id", default_id))
    except (TypeError, ValueError, OverflowError):
        return DecodedLine(
            kind="error",
            id=default_id,
            error=f"query id must be an integer, got {data.get('id')!r}",
        )
    try:
        if is_aggregate_document(data):
            from ..aggregate import AggregateRequest

            return DecodedLine(
                kind="aggregate", id=qid, aggregate=AggregateRequest.from_dict(data)
            )
        return DecodedLine(
            kind="query",
            id=qid,
            query=QueryRequest.from_dict(data, default_id=default_id),
        )
    except (
        ProtocolError,
        AggregateRequestError,
        KeyError,
        TypeError,
        ValueError,
        OverflowError,
    ) as exc:
        return DecodedLine(kind="error", id=qid, error=str(exc))
    except Exception as exc:  # the never-raise contract is load-bearing:
        # an exception escaping here would kill a connection handler.
        return DecodedLine(
            kind="error", id=qid, error=f"{type(exc).__name__}: {exc}"
        )

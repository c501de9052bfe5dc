"""The network serving layer: an asyncio TCP front-end for the service.

``python -m repro serve --listen HOST:PORT`` puts the existing JSONL
wire protocol (:mod:`repro.serve.protocol` — queries and aggregate ops,
newline-framed, ``ok``/``shed``/``error`` statuses) on a socket, so the
:class:`~repro.serve.service.ProfilingService` becomes reachable by
many concurrent out-of-process clients instead of one stdin pipe.

Design (every guarantee here is pinned by ``tests/test_serve_net.py``):

* **One line in, at least one line out.**  Every complete request line
  produces exactly one response — one per matched session for the
  ``"*"`` wildcard (expanded server-side, echoing the line's ``id``) —
  and a malformed, oversized, or unparseable line, or a wildcard that
  matches nothing, produces a typed ``status: error`` response.
  Nothing is silently dropped, and no exception escapes a connection
  handler.  :func:`route_line` is that line path; the stdin daemon
  (``repro serve --daemon``) runs every line through it too.
* **Read backpressure.**  Each connection holds a bounded in-flight
  permit pool (:attr:`NetConfig.inflight_per_connection`); when a
  client has that many queries outstanding the server simply stops
  reading its socket, and TCP flow control pushes the wait back to the
  sender.  A slowloris writer or a mid-line disconnect affects only its
  own connection.
* **Write backpressure.**  Responses flow through a bounded per-
  connection outbound queue drained by a single writer task that
  ``await``\\ s ``drain()`` after every line; a client that stops
  reading stalls only its own pipeline.
* **Admission control.**  Queries admitted while the server-wide
  pending count is at :attr:`NetConfig.max_pending` are refused with an
  explicit ``status: shed`` response through
  :meth:`~repro.serve.service.ProfilingService.shed`, keeping the
  service-wide ``received == answered + errors + shed`` invariant.
* **Deadlines.**  Every admitted query carries a deadline stamped at
  admission; a query that cannot produce its answer in
  :attr:`NetConfig.deadline_s` comes back as a typed ``error`` naming
  the query and session — the connection never hangs.
* **Threading.**  The event loop answers result-cache hits itself,
  calling :meth:`~repro.serve.service.ProfilingService.submit` inline —
  no thread hop, no deadline wait.  Cache misses and aggregates go to
  **one** owner thread, the only thread that runs analyzer work; the
  service's own lock keeps its cache, counters and bus consistent
  between the two.  A hit therefore never queues behind cold work.
* **Graceful shutdown.**  :meth:`NetServer.shutdown` stops accepting,
  lets every connection finish the lines it has already received,
  flushes all in-flight responses, and only then closes sockets
  (bounded by :attr:`NetConfig.shutdown_timeout_s`).

Chaos sites ``net.accept`` / ``net.read`` / ``net.write`` /
``net.latency`` thread the transport through the fault plane
(:mod:`repro.faults`): latency injections exercise the deadline path,
io-errors kill a connection loudly (the peer sees the close), and
read/write corruption surfaces as parse errors — never a wrong answer.
``net.latency`` models the hop to the owner thread: a stalled owner
delays the misses and aggregates queued behind it, never a cache hit.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..faults import fault_point, filter_read, filter_write
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_rng
from ..reports.request import ReportRequest
from .client import QueryFailedError
from .protocol import (
    ALL_SESSIONS,
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    DecodedLine,
    QueryRequest,
    QueryResponse,
    decode_request_line,
    encode_response_line,
)
from .service import ProfilingService

#: Socket read granularity for the line assembler.
_READ_CHUNK = 1 << 16

#: Outbound-queue sentinel telling a connection's writer task to stop.
_CLOSE = object()


def _line(payload: Dict[str, Any]) -> str:
    """One wire line the transport writes itself (refusals, typed errors)."""
    return json.dumps(payload) + "\n"


@dataclass(frozen=True)
class NetConfig:
    """Knobs for one TCP front-end."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port (see NetServer.address)
    max_line_bytes: int = MAX_LINE_BYTES
    max_connections: int = 64
    max_pending: int = 256  # server-wide admission depth
    inflight_per_connection: int = 32
    deadline_s: float = 30.0
    shutdown_timeout_s: float = 5.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for manifests and smoke artifacts)."""
        return {
            "host": self.host,
            "port": self.port,
            "max_line_bytes": self.max_line_bytes,
            "max_connections": self.max_connections,
            "max_pending": self.max_pending,
            "inflight_per_connection": self.inflight_per_connection,
            "deadline_s": self.deadline_s,
            "shutdown_timeout_s": self.shutdown_timeout_s,
        }


@dataclass
class NetStats:
    """Transport-level counters (the service keeps its own).

    The accounting identity the tests pin:
    ``received == answered + errors + shed`` over admitted queries, and
    every non-skipped line yields at least one response.
    """

    connections_opened: int = 0
    connections_closed: int = 0
    connections_refused: int = 0
    lines: int = 0
    oversized: int = 0
    parse_errors: int = 0
    received: int = 0
    answered: int = 0
    errors: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    responses_written: int = 0
    read_errors: int = 0
    write_errors: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for the CLI summary / smoke artifacts)."""
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "connections_refused": self.connections_refused,
            "lines": self.lines,
            "oversized": self.oversized,
            "parse_errors": self.parse_errors,
            "received": self.received,
            "answered": self.answered,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "responses_written": self.responses_written,
            "read_errors": self.read_errors,
            "write_errors": self.write_errors,
        }


class LineAssembler:
    """Chunk stream -> newline-framed lines, with oversized resync.

    Pure and synchronous so the framing logic is property-testable
    without sockets (``tests/test_protocol_property.py``): feeding the
    same byte stream in any chunking yields the same events.  Events
    are ``("line", bytes)`` for each complete line and
    ``("oversized", None)`` exactly once per line whose length exceeds
    ``max_line_bytes`` — the rest of that line is discarded and the
    assembler resynchronises at the next newline.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self.max_line_bytes = int(max_line_bytes)
        self._buf = bytearray()
        self._skipping = False

    def feed(self, chunk: bytes) -> List[Tuple[str, Optional[bytes]]]:
        """Absorb one chunk; return the framing events it completes."""
        events: List[Tuple[str, Optional[bytes]]] = []
        self._buf += chunk
        while True:
            newline = self._buf.find(b"\n")
            if newline < 0:
                if self._skipping:
                    self._buf.clear()
                elif len(self._buf) > self.max_line_bytes:
                    # The line is already too long and still unfinished:
                    # flag it now, drop what we have, resync at the next
                    # newline.  Read backpressure would otherwise let a
                    # hostile client balloon the buffer without bound.
                    events.append(("oversized", None))
                    self._skipping = True
                    self._buf.clear()
                break
            line = bytes(self._buf[:newline])
            del self._buf[: newline + 1]
            if self._skipping:
                self._skipping = False  # the oversized line's tail
                continue
            if len(line) > self.max_line_bytes:
                events.append(("oversized", None))
                continue
            events.append(("line", line))
        return events

    def finish(self) -> None:
        """EOF: a trailing partial line (no newline) is dropped.

        A mid-line disconnect therefore never produces a half-parsed
        query — the incomplete tail simply dies with the connection.
        """
        self._buf.clear()
        self._skipping = False


def route_line(
    service: ProfilingService,
    raw: Optional[bytes],
    seq: int,
    stats: NetStats,
    max_line_bytes: int = MAX_LINE_BYTES,
) -> Tuple[int, Optional[str], List[Tuple[DecodedLine, Optional[QueryRequest]]]]:
    """Route one request line for a serving front-end; never raises.

    The one line path the TCP server and the stdin daemon share.
    ``raw`` is the line without its newline (``None``: the framing layer
    already found it oversized) and ``seq`` the number of lines routed so
    far on this stream, which numbers the line's default id.  Returns
    ``(seq, error, work)``: the new count (blank and ``#`` comment lines
    skip and do not count), a typed ``error`` line to write, or the
    ``work`` the front-end answers in order — ``(decoded, query)`` per
    query, with the ``"*"`` wildcard expanded over every session and
    each copy echoing the line's id, or ``(decoded, None)`` for an
    aggregate.
    """
    if raw is None or len(raw) > max_line_bytes:
        seq += 1
        stats.lines += 1
        stats.oversized += 1
        stats.errors += 1
        error = f"line exceeds the maximum line size ({max_line_bytes} bytes)"
        return seq, _line({"id": seq, "status": STATUS_ERROR, "error": error}), []
    text = raw.decode("utf-8", errors="replace").strip()
    if not text or text.startswith("#"):
        return seq, None, []
    seq += 1
    stats.lines += 1
    decoded = decode_request_line(text, default_id=seq)
    if decoded.kind == "error":
        stats.parse_errors += 1
        stats.errors += 1
        line = _line({"id": decoded.id, "status": STATUS_ERROR, "error": decoded.error})
        return seq, line, []
    query = decoded.query
    if query is None or query.session != ALL_SESSIONS:
        return seq, None, [(decoded, query)]
    names = service.session_names()
    if not names:
        stats.errors += 1
        line = _line(
            {
                "id": query.id,
                "session": ALL_SESSIONS,
                "status": STATUS_ERROR,
                "error": "wildcard query matched no sessions (nothing ingested)",
            }
        )
        return seq, line, []
    return seq, None, [(decoded, replace(query, session=name)) for name in names]


class _Connection:
    """Per-connection state: queues, permits, tasks."""

    def __init__(self, conn_id: int, reader, writer, config: NetConfig) -> None:
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        self.seq = 0  # request lines routed so far (default query ids)
        self.responses = 0
        self.broken = False  # write side failed; discard, don't wedge
        self.inflight = asyncio.Semaphore(config.inflight_per_connection)
        self.outbound: "asyncio.Queue[Any]" = asyncio.Queue(
            maxsize=2 * config.inflight_per_connection
        )
        self.pending: Set[asyncio.Task] = set()
        self.writer_task: Optional[asyncio.Task] = None


class NetServer:
    """The asyncio TCP front-end over one in-process ProfilingService."""

    def __init__(
        self, service: ProfilingService, config: Optional[NetConfig] = None
    ) -> None:
        self.service = service
        self.config = config or NetConfig()
        self.stats = NetStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._conn_seq = 0
        self._pending = 0  # admitted queries not yet responded, server-wide
        self._closing = False
        # The one thread that runs cold work (misses, aggregates).
        self._owner: Optional[ThreadPoolExecutor] = None
        self._bus = service.bus

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._owner = ThreadPoolExecutor(1, thread_name_prefix="repro-net-owner")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` ephemeral binds."""
        assert self._server is not None and self._server.sockets
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def shutdown(self) -> None:
        """Graceful stop: flush in-flight responses, then close.

        Stops accepting, then feeds EOF to every connection's reader so
        each finishes the lines it has already received, drains its
        pending queries and outbound responses, and closes.  Bounded by
        ``shutdown_timeout_s``; stragglers are cancelled after that.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            conn.reader.feed_eof()
        deadline = asyncio.get_running_loop().time() + self.config.shutdown_timeout_s
        while self._connections:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                for conn in list(self._connections.values()):
                    for task in list(conn.pending):
                        task.cancel()
                    if conn.writer_task is not None:
                        conn.writer_task.cancel()
                    try:
                        conn.writer.transport.abort()
                    except Exception:
                        pass
                break
            await asyncio.sleep(min(0.01, remaining))
        if self._owner is not None:
            # Don't wait for an owner parked in an injected latency
            # sleep; its result is already discarded.
            self._owner.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        try:
            fault_point("net.accept")
        except (OSError, RuntimeError):
            # Injected accept failure: refuse loudly and hang up.  The
            # peer sees a typed error line, never a silent hang.
            self.stats.connections_refused += 1
            await self._refuse(writer, "connection refused (accept fault)")
            return
        if self._closing:
            self.stats.connections_refused += 1
            await self._refuse(writer, "server is shutting down")
            return
        if len(self._connections) >= self.config.max_connections:
            self.stats.connections_refused += 1
            await self._refuse(
                writer,
                f"connection limit ({self.config.max_connections}) reached; "
                "retry later",
            )
            return
        self._conn_seq += 1
        conn = _Connection(self._conn_seq, reader, writer, self.config)
        self._connections[conn.id] = conn
        self.stats.connections_opened += 1
        self._publish_connection_opened(conn)
        conn.writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(conn)
        finally:
            await self._close_connection(conn)

    async def _refuse(self, writer, reason: str) -> None:
        """One error line, then close — for connections never admitted."""
        try:
            line = _line({"id": 0, "status": STATUS_ERROR, "error": reason})
            writer.write(line.encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        assembler = LineAssembler(self.config.max_line_bytes)
        while True:
            try:
                chunk = await conn.reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                break  # mid-line disconnect: only this connection dies
            if not chunk:
                assembler.finish()
                break
            try:
                chunk = filter_read("net.read", bytes(chunk))
            except (OSError, RuntimeError):
                self.stats.read_errors += 1
                break  # injected read failure: the peer sees the close
            for _, raw in assembler.feed(chunk):
                conn.seq, error, work = route_line(
                    self.service, raw, conn.seq, self.stats, self.config.max_line_bytes
                )
                if error is not None:
                    await self._enqueue(conn, error)
                for decoded, query in work:
                    await self._admit(conn, decoded, query)

    async def _admit(
        self,
        conn: _Connection,
        decoded: DecodedLine,
        query: Optional[QueryRequest],
    ) -> None:
        """Admission control + read backpressure for one work item."""
        if query is not None and self._pending >= self.config.max_pending:
            # Queue full: an explicit shed through the service's own
            # accounting path, never a silent drop.
            self.stats.received += 1
            self.stats.shed += 1
            response = self.service.shed(query)
            await self._enqueue(conn, encode_response_line(response))
            return
        # Bounded in-flight permits per connection: when they run out
        # the reader stops consuming this socket (read backpressure).
        await conn.inflight.acquire()
        self.stats.received += 1
        self._pending += 1
        deadline = asyncio.get_running_loop().time() + self.config.deadline_s
        task = asyncio.ensure_future(self._process(conn, decoded, query, deadline))
        conn.pending.add(task)
        task.add_done_callback(conn.pending.discard)

    async def _process(
        self,
        conn: _Connection,
        decoded: DecodedLine,
        query: Optional[QueryRequest],
        deadline: float,
    ) -> None:
        loop = asyncio.get_running_loop()
        label_session = query.session if query is not None else "(aggregate)"
        qid = query.id if query is not None else decoded.id
        try:
            remaining = deadline - loop.time()
            try:
                if remaining <= 0:
                    raise asyncio.TimeoutError
                if query is None:
                    aggregate = await self._on_owner(
                        self._dispatch_aggregate, decoded.aggregate, remaining
                    )
                    line = encode_response_line(aggregate, line_id=decoded.id)
                    self.stats.answered += 1
                else:
                    if self.service.is_cached(query):
                        # A hit is a lookup: answer it right here rather
                        # than queue it behind cold work on the owner.
                        response = self.service.submit(query)
                    else:
                        response = await self._on_owner(
                            self._dispatch_query, query, remaining
                        )
                    line = encode_response_line(response)
                    if response.status == STATUS_OK:
                        self.stats.answered += 1
                    elif response.status == STATUS_SHED:
                        self.stats.shed += 1
                    else:
                        self.stats.errors += 1
            except asyncio.TimeoutError:
                self.stats.deadline_exceeded += 1
                self.stats.errors += 1
                error = (
                    f"deadline exceeded: query {qid} on session "
                    f"{label_session!r} missed the "
                    f"{self.config.deadline_s:g}s deadline"
                )
                line = _line(
                    {
                        "id": qid,
                        "session": label_session,
                        "status": STATUS_ERROR,
                        "error": error,
                    }
                )
                self._publish_deadline(query, decoded)
            except Exception as exc:
                # Nothing may escape a connection handler: whatever the
                # compute path threw becomes a typed error response.
                self.stats.errors += 1
                line = _line(
                    {
                        "id": qid,
                        "session": label_session,
                        "status": STATUS_ERROR,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            await self._enqueue(conn, line)
        finally:
            self._pending -= 1
            conn.inflight.release()

    async def _on_owner(self, fn, arg: Any, timeout: float) -> Any:
        """Run ``fn(arg)`` on the owner thread, bounded by ``timeout``."""
        future = asyncio.get_running_loop().run_in_executor(self._owner, fn, arg)
        return await asyncio.wait_for(future, timeout=timeout)

    def _dispatch_query(self, query: QueryRequest) -> QueryResponse:
        """Runs on the owner thread: chaos latency point, then the service."""
        fault_point("net.latency")
        return self.service.submit(query)

    def _dispatch_aggregate(self, request: Any):
        fault_point("net.latency")
        return self.service.aggregate(request)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    async def _enqueue(self, conn: _Connection, line: str) -> None:
        """Queue one encoded response line (bounded: write backpressure)."""
        if conn.broken:
            return  # the peer is gone; responses have nowhere to go
        await conn.outbound.put(line)

    async def _write_loop(self, conn: _Connection) -> None:
        while True:
            item = await conn.outbound.get()
            if item is _CLOSE:
                break
            if conn.broken:
                continue  # drain without writing so producers never wedge
            try:
                data = filter_write("net.write", item.encode("utf-8"))
                conn.writer.write(data)
                await conn.writer.drain()
                conn.responses += 1
                self.stats.responses_written += 1
            except (ConnectionError, OSError, RuntimeError):
                # Peer closed (or an injected write fault): mark the
                # connection broken and keep draining the queue so
                # in-flight producers are released, then wake the reader.
                self.stats.write_errors += 1
                conn.broken = True
                try:
                    conn.writer.transport.abort()
                except Exception:
                    pass

    async def _close_connection(self, conn: _Connection) -> None:
        """Flush everything this connection still owes, then close."""
        if conn.pending:
            await asyncio.gather(*list(conn.pending), return_exceptions=True)
        await conn.outbound.put(_CLOSE)
        if conn.writer_task is not None:
            try:
                await asyncio.wait_for(
                    conn.writer_task, timeout=self.config.shutdown_timeout_s
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                conn.writer_task.cancel()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._connections.pop(conn.id, None)
        self.stats.connections_closed += 1
        self._publish_connection_closed(conn)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _publish(self, event) -> None:
        if self.service.bus is not None:
            self.service.publish(event)  # under the service lock
            return
        if self._bus is None:
            # A private bus, published to from the loop only.
            from ..telemetry import TelemetryBus

            self._bus = TelemetryBus()
        self._bus.publish(event)

    def _publish_connection_opened(self, conn: _Connection) -> None:
        from ..telemetry import ConnectionOpenedEvent

        self._publish(
            ConnectionOpenedEvent(
                time=0.0, peer=conn.peer, open_connections=len(self._connections)
            )
        )

    def _publish_connection_closed(self, conn: _Connection) -> None:
        from ..telemetry import ConnectionClosedEvent

        self._publish(
            ConnectionClosedEvent(
                time=0.0, peer=conn.peer, lines=conn.seq, responses=conn.responses
            )
        )

    def _publish_deadline(
        self, query: Optional[QueryRequest], decoded: DecodedLine
    ) -> None:
        from ..telemetry import QueryDeadlineExceededEvent

        self._publish(
            QueryDeadlineExceededEvent(
                time=0.0,
                session=query.session if query is not None else "(aggregate)",
                backend=query.report.backend if query is not None else "aggregate",
                deadline_s=self.config.deadline_s,
            )
        )


# ----------------------------------------------------------------------
# the async client
# ----------------------------------------------------------------------
class AsyncServiceClient:
    """Async front door to a :class:`NetServer` over one TCP connection.

    The network twin of :class:`~repro.serve.client.ServiceClient`:
    keyword-style queries, typed :class:`QueryFailedError` on hard
    errors, and bounded resubmission of ``shed`` responses — the
    backoff between resubmits reuses the shared retry machinery
    (:data:`repro.faults.retry.DEFAULT_RETRY_POLICY` +
    :func:`repro.faults.retry.retry_rng`), so client-side backoff is as
    deterministic and analysable as every other retry site.

    Responses are matched to requests by ``id``; the wildcard session
    is expanded *server-side* with the id echoed once per session, so
    :meth:`submit` (exactly-one-response semantics) refuses ``"*"`` —
    use :meth:`query_raw_line` for wildcard fan-out.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_resubmits: int = 3,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        max_line_bytes: int = 16 * MAX_LINE_BYTES,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.max_resubmits = int(max_resubmits)
        self.policy = policy
        self.max_line_bytes = int(max_line_bytes)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._unmatched: List[Dict[str, Any]] = []
        self._next_id = 1
        self._rng = retry_rng("net.client.shed")

    async def __aenter__(self) -> "AsyncServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open the connection and start the response dispatcher."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=self.max_line_bytes
        )
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        """Close the connection (pending futures fail with the reason)."""
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            try:
                await asyncio.wait_for(self._read_task, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._read_task.cancel()
        self._writer = None
        self._reader = None

    async def _read_loop(self) -> None:
        assert self._reader is not None
        error: Optional[BaseException] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    data = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # a torn/corrupted response line (chaos)
                future = self._pending.get(int(data.get("id", -1)))
                if future is not None and not future.done():
                    future.set_result(data)
                else:
                    self._unmatched.append(data)
        except (ConnectionError, OSError) as exc:
            error = exc
        finally:
            failure = error or ConnectionError(
                "connection closed before a response arrived"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)

    def _take_id(self) -> int:
        qid = self._next_id
        self._next_id += 1
        return qid

    async def _roundtrip(self, query: QueryRequest) -> QueryResponse:
        assert self._writer is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[query.id] = future
        try:
            self._writer.write(
                (json.dumps(query.to_dict()) + "\n").encode("utf-8")
            )
            await self._writer.drain()
            data = await future
        finally:
            self._pending.pop(query.id, None)
        return QueryResponse.from_dict(data)

    async def submit(self, query: QueryRequest) -> QueryResponse:
        """One query -> one response, resubmitting bounded on ``shed``."""
        if query.session == ALL_SESSIONS:
            raise ValueError(
                "AsyncServiceClient.submit needs a concrete session; "
                "the '*' wildcard fans out server-side (multiple "
                "responses per request line)"
            )
        response = await self._roundtrip(query)
        for attempt in range(self.max_resubmits):
            if response.status != STATUS_SHED:
                return response
            await asyncio.sleep(self.policy.delay_for(attempt, self._rng))
            response = await self._roundtrip(query)
        if response.status == STATUS_SHED:
            response = QueryResponse(
                id=response.id,
                session=response.session,
                status=STATUS_SHED,
                error=(
                    f"query {response.id} on session {response.session!r} "
                    f"still shed after {self.max_resubmits} resubmit(s): "
                    f"{response.error or 'queue full'}"
                ),
            )
        return response

    async def submit_all(
        self, queries: Sequence[QueryRequest]
    ) -> List[QueryResponse]:
        """Submit concurrently; responses come back in request order."""
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    async def query(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
        owners: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """One report payload; raises :class:`QueryFailedError` on error."""
        request = QueryRequest(
            id=self._take_id(),
            session=session,
            report=ReportRequest(
                backend=backend,
                start=start,
                end=end,
                owners=None if owners is None else tuple(owners),
            ),
        )
        response = await self.submit(request)
        if response.status != STATUS_OK or response.report is None:
            raise QueryFailedError(response)
        return response.report

    async def total_j(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Convenience: just the report's total joules."""
        payload = await self.query(session, backend, start, end)
        return float(payload["total_j"])

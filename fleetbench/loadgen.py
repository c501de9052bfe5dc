"""The asyncio load generator: connections, closed and open loops.

One single-threaded event loop drives at most two TCP connections.
Request ids come from one counter shared by every connection and phase,
so an id is unique per connection and across the whole run (the traced
ledger joins client and server records on it).

* A **closed loop** keeps a fixed number of requests outstanding on one
  connection: each slot sends its next request when the previous answer
  arrives.  Latency runs from send to response line.
* An **open loop** sends on a fixed schedule regardless of answers.
  Latency runs from when the request was *due*, so a stall is charged to
  every request it delays; how late the generator itself sent is kept
  apart as ``late``.

A request with no answer by the end of the phase's grace period fails
as a timeout; nothing waits forever.

The generator does not use :class:`repro.serve.net.AsyncServiceClient`:
that client resubmits shed queries (hiding them from the count) and
builds request and response objects per call, where the generator must
count every shed and stay cheap enough not to be the bottleneck.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: A request: (answer key, JSON body after the id, i.e. ``"k": v, ...}``).
Request = Tuple[tuple, bytes]

#: How long after the timed phase outstanding requests may still answer.
GRACE_S = 20.0

clock = time.perf_counter


def encode_body(document: Dict[str, Any]) -> bytes:
    """The wire line of ``document`` minus its leading ``{"id": N, ``."""
    return json.dumps(document).encode("utf-8")[1:] + b"\n"


class Connection:
    """One TCP connection with id-matched responses."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer)

    def send(self, rid: int, body: bytes) -> asyncio.Future:
        """Write one request; the future resolves to ``(recv_time, response)``."""
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        self.writer.write(b'{"id": %d, %s' % (rid, body))
        return future

    async def _read_loop(self) -> None:
        failure: BaseException = ConnectionError("connection closed")
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = clock()
                data = json.loads(line)
                future = self.pending.pop(data.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((received, data))
        except (ConnectionError, OSError, ValueError) as exc:
            failure = exc
        finally:
            self.fail_pending(failure)

    def fail_pending(self, exc: BaseException) -> None:
        """Fail every outstanding request (their senders count timeouts)."""
        pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            await asyncio.wait_for(self._read_task, timeout=GRACE_S)
        except asyncio.TimeoutError:
            self._read_task.cancel()


@dataclass
class Stream:
    """Outcome of one request stream in one phase."""

    name: str
    sent: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    timeouts: int = 0
    mismatches: int = 0
    hits: int = 0
    memoized: int = 0
    computed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: (request id, send time, response time) per answered request.
    rows: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Responses with status ok, per answer key (the oracle charges a
    #: wrong key's every response as a mismatch).
    keys: Counter = field(default_factory=Counter)
    first_error: Optional[str] = None
    #: When the stream's last closed-loop slot stopped.
    ended: float = 0.0
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.errors + self.shed + self.timeouts + self.mismatches


class Answers:
    """What the server answered, per request key, for the oracle.

    Every key keeps the digest of its first payload's canonical JSON;
    each later payload of the key is compared by digest too.  A key
    whose payloads differ within a run is ``diverged``.
    """

    def __init__(self) -> None:
        self.digests: Dict[tuple, bytes] = {}
        self.diverged: set = set()

    def note(self, key: tuple, payload: Any) -> bool:
        digest = payload_digest(payload)
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            self.diverged.add(key)
            return False
        return True


def canonical(payload: Any) -> str:
    """The byte-for-byte comparison form of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> bytes:
    return hashlib.blake2b(canonical(payload).encode("utf-8"), digest_size=16).digest()


def record(
    stream: Stream,
    answers: Answers,
    key: tuple,
    rid: int,
    sent: float,
    timed_from: float,
    outcome: Tuple[float, Dict[str, Any]],
) -> None:
    """Fold one response into its stream."""
    received, data = outcome
    status = data.get("status")
    if status == "ok":
        payload = data.get("report") if key[0] == "q" else data.get("aggregate")
        stream.keys[key] += 1
        if payload is None or not answers.note(key, payload):
            stream.mismatches += 1
            return
        stream.ok += 1
        stream.latencies_ms.append((received - timed_from) * 1e3)
        stream.rows.append((rid, sent, received))
        if data.get("cached"):
            stream.hits += 1
        stream.memoized += data.get("memoized", 0)
        stream.computed += data.get("computed", 0)
    else:
        if status == "shed":
            stream.shed += 1
        else:
            stream.errors += 1
        if stream.first_error is None:
            stream.first_error = json.dumps(data)[:300]


async def closed_loop(
    conn: Connection,
    stream: Stream,
    answers: Answers,
    ids: Iterator[int],
    next_request: Callable[[], Optional[Request]],
    stop_at: float,
) -> None:
    """One closed-loop slot: send, await the answer, repeat until ``stop_at``.

    ``next_request`` returning None ends the slot early (warm-up lists,
    fixed-count streams).
    """
    while clock() < stop_at:
        request = next_request()
        if request is None:
            break
        key, body = request
        rid = next(ids)
        sent = clock()
        stream.sent += 1
        try:
            outcome = await conn.send(rid, body)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            stream.timeouts += 1
            continue
        record(stream, answers, key, rid, sent, sent, outcome)
    stream.ended = max(stream.ended, clock())


def first(next_request: Callable[[], Request], count: int) -> Callable[[], Optional[Request]]:
    """``next_request``'s first ``count`` requests, then None."""
    taken = itertools.count()
    return lambda: next_request() if next(taken) < count else None


async def open_loop(
    conn: Connection,
    stream: Stream,
    answers: Answers,
    ids: Iterator[int],
    next_request: Callable[[], Request],
    start: float,
    stop_at: float,
    rate: float,
) -> List[asyncio.Future]:
    """Send on ``conn`` at ``rate``/s from ``start`` to ``stop_at``.

    Returns the futures still to settle; each one records itself.
    """
    futures: List[asyncio.Future] = []
    for index in itertools.count():
        due = start + index / rate
        if due >= stop_at:
            break
        now = clock()
        if due > now:
            await asyncio.sleep(due - now)
            now = clock()
        key, body = next_request()
        rid = next(ids)
        stream.sent += 1
        stream.late_ms.append((now - due) * 1e3)
        future = conn.send(rid, body)

        def settle(future, key=key, rid=rid, sent=now, due=due):
            if future.cancelled() or future.exception() is not None:
                stream.timeouts += 1
            else:
                record(stream, answers, key, rid, sent, due, future.result())

        future.add_done_callback(settle)
        futures.append(future)
    return futures


async def settle_all(conns: List[Connection], waiting: List[asyncio.Future], stop_at: float) -> None:
    """Wait for every outstanding request until ``stop_at + GRACE_S``, then fail the rest."""
    waiting = [f for f in waiting if not f.done()]
    if waiting:
        await asyncio.wait(waiting, timeout=max(0.0, stop_at + GRACE_S - clock()))
    for conn in conns:
        conn.fail_pending(asyncio.TimeoutError("no answer within the grace period"))

"""The three workloads: what each connection sends, derived from the seed.

Every workload has a closed-loop stream, so every end-to-end metric is
measured on every workload; two also run an open-loop stream:

* ``warm-hits`` — a closed loop only, asking a 320-key hot set (64
  sessions x 5 backends) that fits the server's 512-entry result cache.
  After the warm-up every timed answer is a cache hit: the time goes to
  the network, protocol, serving bookkeeping and telemetry layers while
  the analyzer and store sit idle.
* ``cold-mixed`` — the closed stream asks a distinct window on a random
  session and backend every time, so every request misses the cache and
  the analyzer's window integration dominates it.  The open stream asks
  a 160-key hot set at 50/s; it shows head-of-line blocking behind the
  cold work and the cold scan evicting the hot set from the cache.  Its
  rate stays small beside the closed stream's ~800/s because the server
  CPU it costs is charged to the closed stream's answers (at 200/s that
  share moved by a fifth whenever the host slowed the closed stream).
* ``restore-aggregate`` — the server restores a filled store instead of
  replaying.  One connection sends fleet aggregates one at a time, a
  fixed :data:`AGGREGATES_PER_S` per second of the phase however long
  they take (aggregates differ in cost, so a phase that got through
  fewer of them would have done different work): exactly 30% new
  shapes (computed, then 200 memo partials written) and 70% repeats
  (200 memo partials read).  The other connection's open
  stream asks a 160-key hot set of cache hits at a light 20/s, which
  shows how long a cheap query waits behind an aggregate without
  crowding the aggregates themselves (at 200/s the two streams starve
  each other by turns and a run's figures swing by half).  The sim
  kernel does not run here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from fleet import SPAN_MARGIN_S, Session
from loadgen import Request, encode_body

BACKENDS = ("energy", "batterystats", "powertutor", "eandroid", "collateral")
AGGREGATE_OPS = ("sum", "mean", "topk", "histogram")
GROUP_BYS = ("owner", "category", "mechanism")
NEW_SHAPE_SHARE = 0.3
#: Cold-query window lengths, as shares of the session's span (7 is
#: coprime to the 1000 session-backend pairs each slot cycles through).
COLD_WINDOW_SHARES = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
#: Aggregates a restore-aggregate phase sends per second of its length
#: (about what a 2-vCPU host completes).
AGGREGATES_PER_S = 10.0
#: Aggregate window length, as a share of the fleet's shortest span.
AGGREGATE_WINDOW_SHARE = 0.5


@dataclass
class ClosedStream:
    """``slots`` closed-loop slots on connection ``conn``.

    A slot sends until the timed phase ends, or, when ``per_s`` is set,
    exactly ``per_s`` x the phase's seconds requests however long they
    take, so every phase does the same work.
    """

    conn: int
    slots: int
    make: Callable[[int], Callable[[], Request]]  # slot index -> request source
    per_s: float = 0.0


@dataclass
class Workload:
    serve_args: Callable[[str, str], List[str]]  # (corpus dir, store dir) -> argv
    restore: bool
    warmup: List[Request]
    closed: List[ClosedStream]
    #: The open loop's requests, sent on connection 1 at ``open_rate``
    #: per second; none by default.
    open_source: Optional[Callable[[], Request]] = None
    open_rate: float = 0.0


def query(session: str, backend: str, start: float, end: float) -> Request:
    key = ("q", session, backend, start, end)
    body = encode_body({"session": session, "backend": backend, "start": start, "end": end})
    return key, body


def aggregate(shape: Dict[str, object]) -> Request:
    key = ("a",) + tuple(sorted((k, v if not isinstance(v, list) else tuple(v)) for k, v in shape.items()))
    return key, encode_body(shape)


def _window(rng: random.Random, span: float) -> Tuple[float, float]:
    """A window of at least 1 s strictly inside ``[0, span - margin]``."""
    top = span - SPAN_MARGIN_S
    start = round(rng.uniform(0.0, top - 1.0), 3)
    end = round(rng.uniform(start + 0.5, top), 3)
    return start, min(end, round(top, 3))


def hot_set(rng: random.Random, fleet: List[Session], sessions: int) -> List[Request]:
    """``sessions`` x 5 backends, one fixed window per session.

    One session is drawn from each of ``sessions`` strata of the fleet
    sorted by size, so the hot set's mix of small and large sessions,
    and with it the cost of an answer, barely moves from seed to seed.
    """
    by_size = sorted(fleet, key=lambda s: (s.ops, s.name))
    chosen = [
        rng.choice(by_size[len(by_size) * i // sessions : len(by_size) * (i + 1) // sessions])
        for i in range(sessions)
    ]
    keys = []
    for session in chosen:
        start, end = _window(rng, session.span)
        keys.extend(query(session.name, backend, start, end) for backend in BACKENDS)
    return keys


def _uniform(rng: random.Random, keys: List[Request]) -> Callable[[], Request]:
    return lambda: rng.choice(keys)


def _serve_batch(corpus: str, store: str) -> List[str]:
    return ["--batch", corpus, "--spill", "--store", store]


def _serve_restore(corpus: str, store: str) -> List[str]:
    return ["--store", store, "--restore"]


def warm_hits(seed: int, fleet: List[Session]) -> Workload:
    rng = random.Random(f"{seed}/warm-hits")
    hot = hot_set(rng, fleet, 64)
    closed = [
        ClosedStream(conn, 16, lambda slot, conn=conn: _uniform(random.Random(f"{seed}/{conn}/{slot}"), hot))
        for conn in (0, 1)
    ]
    return Workload(
        serve_args=_serve_batch,
        restore=False,
        warmup=list(hot),
        closed=closed,
    )


def cold_mixed(seed: int, fleet: List[Session]) -> Workload:
    rng = random.Random(f"{seed}/cold-mixed")
    hot = hot_set(rng, fleet, 32)
    seen = {key for key, _ in hot}
    # Fault every session in before timing: one full-window query each.
    fault_in = [query(s.name, "energy", 0.0, round(s.span - SPAN_MARGIN_S, 3)) for s in fleet]
    seen.update(key for key, _ in fault_in)

    def cold_source(slot: int) -> Callable[[], Request]:
        # Each slot walks a seeded shuffle of every (session, backend)
        # pair, with window lengths from a cycle whose length is coprime
        # to the pair count, so every run asks the same mix of session
        # sizes, backends and window lengths whatever the seed.
        slot_rng = random.Random(f"{seed}/cold/{slot}")
        pairs = [(session, backend) for session in fleet for backend in BACKENDS]
        slot_rng.shuffle(pairs)
        position = itertools.count()

        def draw() -> Request:
            while True:
                index = next(position)
                session, backend = pairs[index % len(pairs)]
                top = session.span - SPAN_MARGIN_S
                length = COLD_WINDOW_SHARES[index % len(COLD_WINDOW_SHARES)] * top
                start = round(slot_rng.uniform(0.0, top - length), 3)
                request = query(session.name, backend, start, round(start + length, 3))
                if request[0] not in seen:
                    seen.add(request[0])
                    return request

        return draw

    return Workload(
        serve_args=_serve_batch,
        restore=False,
        warmup=fault_in + hot,
        closed=[ClosedStream(0, 8, cold_source)],
        open_source=_uniform(random.Random(f"{seed}/open"), hot),
        open_rate=50.0,
    )


def restore_aggregate(seed: int, fleet: List[Session]) -> Workload:
    rng = random.Random(f"{seed}/restore-aggregate")
    hot = hot_set(rng, fleet, 32)
    shortest = min(s.span for s in fleet)
    seen_shapes: set = set()

    def aggregate_source(conn: int) -> Callable[[int], Callable[[], Request]]:
        def make(slot: int) -> Callable[[], Request]:
            # Deterministic mix: exactly NEW_SHAPE_SHARE of the sequence is
            # new, and the k-th new shape takes the k-th entry of seeded
            # cycles of backends, ops and group-bys (coprime lengths), over
            # a window of fixed length, so any run's new shapes cover each
            # evenly and the cost mix barely moves from seed to seed.
            shape_rng = random.Random(f"{seed}/aggregate/{conn}")
            cycles = [list(BACKENDS), list(AGGREGATE_OPS), list(GROUP_BYS)]
            for cycle in cycles:
                shape_rng.shuffle(cycle)
            issued: List[Dict[str, object]] = []
            position = itertools.count()

            def new_shape() -> Dict[str, object]:
                k = len(issued)
                backend, op, group_by = (cycle[k % len(cycle)] for cycle in cycles)
                length = round(AGGREGATE_WINDOW_SHARE * (shortest - SPAN_MARGIN_S), 3)
                while True:
                    start = round(shape_rng.uniform(0.0, shortest - SPAN_MARGIN_S - length), 3)
                    shape: Dict[str, object] = {
                        "backend": backend,
                        "op": op,
                        "group_by": group_by,
                        "sessions": ["*"],
                        "start": start,
                        "end": round(start + length, 3),
                    }
                    if op == "topk":
                        shape["k"] = 5
                    if op == "histogram":
                        shape.update(bins=16, bin_width=5.0)
                    if aggregate(shape)[0] not in seen_shapes:
                        seen_shapes.add(aggregate(shape)[0])
                        return shape

            def draw() -> Request:
                index = next(position)
                if not issued or int((index + 1) * NEW_SHAPE_SHARE) > int(index * NEW_SHAPE_SHARE):
                    issued.append(new_shape())
                    return aggregate(issued[-1])
                return aggregate(shape_rng.choice(issued))

            return draw

        return make

    # One full-window aggregate faults every session in and builds its analyzer.
    warm_shape = {
        "backend": "energy",
        "op": "sum",
        "group_by": "owner",
        "sessions": ["*"],
        "start": 0.0,
        "end": round(shortest - SPAN_MARGIN_S, 3),
    }
    seen_shapes.add(aggregate(warm_shape)[0])
    return Workload(
        serve_args=_serve_restore,
        restore=True,
        warmup=[aggregate(warm_shape)] + hot,
        closed=[ClosedStream(0, 1, aggregate_source(0), per_s=AGGREGATES_PER_S)],
        open_source=_uniform(random.Random(f"{seed}/open"), hot),
        open_rate=20.0,
    )


WORKLOADS: Dict[str, Callable[[int, List[Session]], Workload]] = {
    "warm-hits": warm_hits,
    "cold-mixed": cold_mixed,
    "restore-aggregate": restore_aggregate,
}


def oracle_request(key: tuple):
    """The in-process request object for an answer key."""
    from repro.aggregate import AggregateRequest
    from repro.reports.request import ReportRequest
    from repro.serve.protocol import QueryRequest

    if key[0] == "q":
        _, session, backend, start, end = key
        return QueryRequest(id=0, session=session, report=ReportRequest(backend=backend, start=start, end=end))
    shape = {k: (list(v) if isinstance(v, tuple) else v) for k, v in key[1:]}
    return AggregateRequest.from_dict(shape)

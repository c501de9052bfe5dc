"""Per-layer ledger: turn server spans and client records into layer metrics.

Spans come from ``launch.py`` (``[name, start, end, rid, tid, value]``).
Spans of one request share its id, even across the event-loop thread
and the pool thread; spans without a request id (set-up work) are
grouped by thread.  Within a group spans nest by time containment, and
a span's self time is its duration minus that of its direct children:
``serve.submit`` contains the store fault-in, the analyzer build and
``describe``; ``net.dispatch`` contains ``serve.submit``, so its self
time is the wait for the service lock.

Set-up figures count spans that start between process launch and the
``listening on`` line; serving figures count spans that start in the
timed phase.  The warm-up between the two is in neither.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from stats import percentile_or_zero
from workloads import BACKENDS

Span = Sequence  # [name, start, end, rid, tid, value]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    groups: Dict[object, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        groups[span[3] if span[3] is not None else ("thread", span[4])].append(index)
    for members in groups.values():
        members.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack: List[int] = []
        for index in members:
            start, end = spans[index][1], spans[index][2]
            while stack and not (spans[stack[-1]][1] <= start and end <= spans[stack[-1]][2]):
                stack.pop()
            if stack:
                own[stack[-1]] -= end - start
            stack.append(index)
    return own


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(
    spans: List[Span],
    setup: Tuple[float, float],
    timed: Tuple[float, float],
    client_rows: Dict[str, List[Tuple[int, float, float]]],
    net_stats: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer figure the traced run reports (units in the names)."""
    own = self_times(spans)
    in_setup = [i for i, s in enumerate(spans) if setup[0] <= s[1] <= setup[1]]
    in_timed = [i for i, s in enumerate(spans) if timed[0] <= s[1] <= timed[1]]
    counted = in_setup + in_timed

    def pick(indices: List[int], name: str) -> List[int]:
        return [i for i in indices if spans[i][0] == name]

    def total_s(indices: List[int]) -> float:
        return sum(spans[i][2] - spans[i][1] for i in indices)

    out: Dict[str, float] = {}

    replays = pick(in_setup, "check.replay")
    events = sum(spans[i][5] or 0 for i in replays)
    out["check.replay_calls"] = len(replays)
    out["check.replay_s"] = total_s(replays)
    out["sim.events"] = events
    out["sim.us_per_event"] = out["check.replay_s"] * 1e6 / events if events else 0.0
    out["offline.capture_s"] = total_s(pick(in_setup, "offline.capture"))

    puts = pick(counted, "store.put")
    gets = pick(counted, "store.get")
    out["store.put_calls"] = len(puts)
    out["store.put_s"] = total_s(puts)
    out["store.put_bytes"] = sum(spans[i][5] or 0 for i in puts)
    out["store.get_calls"] = len(gets)
    out["store.get_s"] = total_s(gets)

    out["serve.ingest_self_s"] = sum(own[i] for i in pick(in_setup, "serve.ingest"))
    out["serve.restore_s"] = total_s(pick(in_setup, "serve.restore"))
    submits = pick(in_timed, "serve.submit")
    out["serve.submit_calls"] = len(submits)
    out["serve.submit_self_us_p50.hit"] = percentile_or_zero(
        [own[i] * 1e6 for i in submits if spans[i][5] == 1], 0.5
    )
    out["serve.submit_self_us_p50.miss"] = percentile_or_zero(
        [own[i] * 1e6 for i in submits if spans[i][5] == 0], 0.5
    )

    builds = pick(in_timed, "offline.analyzer_build")
    out["offline.analyzer_builds"] = len(builds)
    out["offline.analyzer_build_s"] = total_s(builds)
    for backend in BACKENDS:
        out[f"offline.describe_us_p50.{backend}"] = percentile_or_zero(
            [(spans[i][2] - spans[i][1]) * 1e6 for i in pick(in_timed, f"offline.describe.{backend}")],
            0.5,
        )

    runs = pick(in_timed, "aggregate.run")
    memoized = sum(spans[i][5][0] for i in runs)
    computed = sum(spans[i][5][1] for i in runs)
    out["aggregate.run_calls"] = len(runs)
    out["aggregate.run_self_ms_p50"] = percentile_or_zero([own[i] * 1e3 for i in runs], 0.5)
    out["aggregate.partial_s"] = total_s(pick(in_timed, "aggregate.partial"))
    out["aggregate.memo_ratio"] = memoized / (memoized + computed) if memoized + computed else 0.0

    out["protocol.decode_us_p50"] = percentile_or_zero(
        [(spans[i][2] - spans[i][1]) * 1e6 for i in pick(in_timed, "protocol.decode")], 0.5
    )
    encode_by_rid: Dict[object, float] = defaultdict(float)
    for i in in_timed:
        if spans[i][0] in ("protocol.encode", "protocol.encode_line"):
            encode_by_rid[spans[i][3]] += own[i]
    out["protocol.encode_us_p50"] = percentile_or_zero([v * 1e6 for v in encode_by_rid.values()], 0.5)

    publishes = pick(in_timed, "telemetry.publish")
    answered = sum(len(rows) for rows in client_rows.values())
    out["telemetry.publish_calls"] = len(publishes)
    out["telemetry.publish_us_per_query"] = total_s(publishes) * 1e6 / answered if answered else 0.0

    # Client latency minus the service's own span for the same request id.
    service_s: Dict[object, float] = {}
    top_level: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for i in in_timed:
        name, start, end, rid = spans[i][0], spans[i][1], spans[i][2], spans[i][3]
        if name in ("serve.submit", "aggregate.run"):
            service_s[rid] = end - start
        if name in ("protocol.decode", "net.process", "protocol.encode_line"):
            top_level[rid].append((start, end))
    observed = covered = 0.0
    for stream, rows in sorted(client_rows.items()):
        residual = [
            (received - sent - service_s[rid]) * 1e6
            for rid, sent, received in rows
            if rid in service_s
        ]
        out[f"net.residual_us_p50.{stream}"] = percentile_or_zero(residual, 0.5)
        out[f"net.residual_us_p99.{stream}"] = percentile_or_zero(residual, 0.99)
        for rid, sent, received in rows:
            observed += received - sent
            covered += union_length(
                (max(s, sent), min(e, received)) for s, e in top_level.get(rid, ()) if min(e, received) > max(s, sent)
            )
    lock_wait = [own[i] * 1e6 for i in pick(in_timed, "net.dispatch")]
    out["net.lock_wait_us_p50"] = percentile_or_zero(lock_wait, 0.5)
    out["net.lock_wait_us_p99"] = percentile_or_zero(lock_wait, 0.99)
    for counter in ("shed", "deadline_exceeded", "errors", "parse_errors"):
        out[f"net.{counter}"] = net_stats.get(counter, 0)

    out["ledger.unattributed_ratio"] = 1.0 - covered / observed if observed else 0.0
    setup_len = setup[1] - setup[0]
    setup_cover = union_length(
        (spans[i][1], min(spans[i][2], setup[1])) for i in in_setup if spans[i][3] is None
    )
    out["ledger.setup_unattributed_ratio"] = 1.0 - setup_cover / setup_len if setup_len > 0 else 0.0
    return out

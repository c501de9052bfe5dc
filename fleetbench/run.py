#!/usr/bin/env python3
"""End-to-end fleet benchmark: replay -> store -> TCP query/aggregate.

    python3 fleetbench/run.py --workload warm-hits --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It generates a 200-session fleet from
``--seed`` (see ``fleet.py``), starts the deployed server
(``repro serve --listen``, through ``launch.py``) on it, drives one of
the workloads in ``workloads.py`` over TCP for ``--seconds``, checks
every answer against an in-process reference (``oracle.py``) and the
server's ``received == answered + errors + shed`` identity, and prints
a report whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  The server is set up
:data:`SETUPS` times and each one serves ``--seconds / SETUPS``; each
metric is the median over the set-ups, so a slow stretch of a shared
host that hits one of them does not move it.  ``--trace 1`` serves the
workload twice, untraced and then traced, and reports the per-layer
metrics of the traced run (``ledger.py``) plus the tracing overhead.
A failed request (error, shed, timeout or payload mismatch) or an
accounting break exits 1; a percentile the run cannot support exits 3.
Scratch files live under ``.fleetbench_work/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from fleet import write_fleet  # noqa: E402
from loadgen import (  # noqa: E402
    GRACE_S,
    Answers,
    Connection,
    Stream,
    clock,
    closed_loop,
    first,
    open_loop,
    settle_all,
)
from server import Server, ServerError  # noqa: E402
from stats import MIN_BEYOND, TooFewSamples, beyond, percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUPS = 3
WARMUP_SLOTS = 16
#: Longest the warm-up may take before its unanswered requests fail.
WARMUP_S = 60.0

#: The gated end-to-end metrics.  The server's cost is gated as CPU
#: time per answer: on a shared 2-vCPU host, other tenants take the
#: CPUs for minutes at a time, which halves wall-clock throughput for
#: every segment of a run but moves CPU time per answer by a few percent.
END_TO_END_UNITS = {
    "setup_s": "s",
    "server_cpu_ms_per_closed_ok": "ms",
    "server_rss_mb": "MiB",
}
#: Wall-clock figures printed beside them but not gated, for that reason;
#: tail percentiles and the open stream's latency are printed per stream.
WALL_CLOCK_UNITS = {
    "closed_ok_per_s": "1/s",
    "closed_p50_ms": "ms",
}


@dataclass
class Phase:
    """One served workload: warm-up, then the timed streams."""

    start: float
    end: float
    warmup: Stream
    closed: Stream
    open: Stream
    open_rate: float
    #: The generator's own CPU seconds over the timed phase: near
    #: ``end - start`` would mean the generator, not the server, is the
    #: bottleneck.
    generator_cpu_s: float = 0.0
    #: The server's CPU seconds (all threads) over the timed phase.
    server_cpu_s: float = 0.0

    @property
    def timed(self) -> List[Stream]:
        return [self.closed, self.open]


async def drive(workload: Workload, server: Server, seconds: float, ids: Iterator[int], answers: Answers) -> Phase:
    conns = [await Connection.open("127.0.0.1", server.port) for _ in range(2)]
    try:
        warmup = Stream("warmup")
        pending = iter(workload.warmup)
        warm_until = clock() + WARMUP_S
        warming = [
            asyncio.ensure_future(
                closed_loop(conns[slot % 2], warmup, answers, ids, lambda: next(pending, None), warm_until)
            )
            for slot in range(WARMUP_SLOTS)
        ]
        await settle_all(conns, warming, warm_until)
        await asyncio.gather(*warming)
        closed, open_ = Stream("closed"), Stream("open")
        # A collector pause in the generator would read as server latency.
        gc.collect()
        gc.disable()
        start = clock()
        cpu_start = time.process_time()
        server_cpu_start = server.cpu_s()
        stop_at = start + seconds
        slots = []
        for s in workload.closed:
            for slot in range(s.slots):
                source, until = s.make(slot), stop_at
                if s.per_s:
                    source, until = first(source, round(s.per_s * seconds)), stop_at + GRACE_S
                slots.append(asyncio.ensure_future(closed_loop(conns[s.conn], closed, answers, ids, source, until)))
        open_futures = []
        if workload.open_rate:
            open_futures = await open_loop(
                conns[1],
                open_,
                answers,
                ids,
                workload.open_source,
                start,
                stop_at,
                workload.open_rate,
            )
        await settle_all(conns, slots + open_futures, stop_at)
        await asyncio.gather(*slots)
        closed.elapsed_s = closed.ended - start
        end = clock()
        cpu_s = time.process_time() - cpu_start
        server_cpu_s = server.cpu_s() - server_cpu_start
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return Phase(
        start=start,
        end=end,
        warmup=warmup,
        closed=closed,
        open=open_,
        open_rate=workload.open_rate,
        generator_cpu_s=cpu_s,
        server_cpu_s=server_cpu_s,
    )


def passed(wrong: List[tuple], phases: List[Phase]) -> bool:
    """Whether a run counts as correct: no wrong payload and no failed request.

    A request that errs, is shed, times out or answers wrongly, in the
    warm-up or the timed phase, fails the run.
    """
    return not wrong and all(s.failed == 0 for p in phases for s in p.timed + [p.warmup])


def describe_stream(stream: Stream, open_rate: float) -> str:
    parts = [f"{stream.name}: sent {stream.sent}, ok {stream.ok}, errors {stream.errors}, "
             f"shed {stream.shed}, timeouts {stream.timeouts}, mismatches {stream.mismatches}"]
    count = len(stream.latencies_ms)
    for q in (0.5, 0.9, 0.99):
        try:
            value = f"{percentile(stream.latencies_ms, q):.3f} ms"
        except TooFewSamples:
            value = "unsupported"
        parts.append(f"p{q * 100:g} {value} (n={count}, beyond={max(0, beyond(count, q))})")
    if stream.ok:
        parts.append(f"cache hit ratio {stream.hits / stream.ok:.3f}")
    if stream.memoized + stream.computed:
        parts.append(f"memo ratio {stream.memoized / (stream.memoized + stream.computed):.3f}")
    if stream.late_ms:
        # Behind schedule: p99 send lateness beyond one inter-arrival gap.
        late = sorted(stream.late_ms)[int(0.99 * (len(stream.late_ms) - 1))]
        flag = " BEHIND SCHEDULE" if late > 1e3 / open_rate else ""
        parts.append(f"generator late p99 {late:.3f} ms{flag}")
    if stream.first_error:
        parts.append(f"first error {stream.first_error}")
    return "; ".join(parts)


class Bench:
    """One benchmark invocation's servers, phases and answers."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.fleet = write_fleet(args.seed, work / "fleet")
        self.corpus = str(work / "fleet" / "corpus")
        self.workload: Workload = self.fresh_workload()
        self.ids = itertools.count(1)
        self.answers = Answers()
        self.phases: List[Phase] = []
        self.net_stats: List[Dict[str, int]] = []
        self._stores = 0
        self.rss_mb: List[float] = []
        self.checked = 0
        self.base_store: Optional[Path] = None
        if self.workload.restore:
            self.base_store = work / "store-base"
            Server(["--batch", self.corpus, "--spill", "--store", str(self.base_store)]).stop()

    def fresh_workload(self) -> Workload:
        """The workload's request sources from their start.

        Each phase replays the same sequence, so an untraced and a traced
        phase do the same work and share their distinct answer keys.
        """
        return WORKLOADS[self.args.workload](self.args.seed, self.fleet)

    def store(self) -> str:
        """A store directory of its own for the next server."""
        self._stores += 1
        path = self.work / f"store-{self._stores}"
        if self.base_store is not None:
            shutil.copytree(self.base_store, path)
        return str(path)

    def start(self, spans: Optional[Path] = None) -> Server:
        return Server(self.workload.serve_args(self.corpus, self.store()), spans=spans)

    def serve(self, server: Server, seconds: float) -> Phase:
        try:
            phase = asyncio.run(drive(self.fresh_workload(), server, seconds, self.ids, self.answers))
            self.rss_mb.append(server.peak_rss_mb())
        except BaseException:
            server.kill()
            raise
        self.net_stats.append(server.stop())
        self.phases.append(phase)
        return phase

    def check(self) -> List[tuple]:
        """Run the oracle; charge every response of a wrong key as a mismatch."""
        from oracle import check, reference_service

        service = reference_service(Path(self.corpus), self.fleet)
        checked, wrong = check(service, self.answers)
        self.checked = checked
        for phase in self.phases:
            for stream in phase.timed + [phase.warmup]:
                stream.mismatches = sum(stream.keys[key] for key in wrong)
        return wrong


def end_to_end(bench: Bench, setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "server_cpu_ms_per_closed_ok": statistics.median(
            p.server_cpu_s * 1e3 / p.closed.ok for p in bench.phases
        ),
        "server_rss_mb": statistics.median(bench.rss_mb),
    }


def wall_clock(bench: Bench) -> Dict[str, float]:
    closed = [phase.closed for phase in bench.phases]
    return {
        "closed_ok_per_s": statistics.median(s.ok / s.elapsed_s for s in closed),
        "closed_p50_ms": statistics.median(percentile(s.latencies_ms, 0.5) for s in closed),
    }


def per_layer(bench: Bench, traced_server: Server, spans_path: Path) -> Dict[str, float]:
    from ledger import layer_metrics

    untraced, traced = bench.phases
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    metrics = layer_metrics(
        spans,
        setup=(traced_server.launched, traced_server.listening_at),
        timed=(traced.start, traced.end),
        client_rows={s.name: s.rows for s in traced.timed},
        net_stats=bench.net_stats[-1],
    )
    for stream in traced.timed:
        metrics[f"serve.cache_hit_ratio.{stream.name}"] = stream.hits / stream.ok if stream.ok else 0.0
    metrics["trace.overhead_ratio"] = (traced.closed.ok / traced.closed.elapsed_s) / (
        untraced.closed.ok / untraced.closed.elapsed_s
    )
    return metrics


def run(args: argparse.Namespace, work: Path) -> int:
    bench = Bench(args, work)
    print(
        f"fleetbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
        f"{len(bench.fleet)} sessions, ops {min(s.ops for s in bench.fleet)}..{max(s.ops for s in bench.fleet)}, "
        f"total span {sum(s.span for s in bench.fleet):.0f} s"
    )
    setups: List[float] = []
    if args.trace == 0:
        for _ in range(SETUPS):
            server = bench.start()
            setups.append(server.setup_s)
            bench.serve(server, args.seconds / SETUPS)
    else:
        bench.serve(bench.start(), args.seconds)
        spans_path = work / "spans.json"
        traced_server = bench.start(spans=spans_path)
        bench.serve(traced_server, args.seconds)

    wrong = bench.check()
    attempted = sum(s.sent for p in bench.phases for s in p.timed)
    failed = sum(s.failed for p in bench.phases for s in p.timed)
    for index, phase in enumerate(bench.phases):
        print(
            f"phase {index}: warm-up {phase.warmup.sent} request(s), {phase.warmup.failed} failed; "
            f"while timed, generator CPU {phase.generator_cpu_s / (phase.end - phase.start):.0%} and server CPU "
            f"{phase.server_cpu_s / (phase.end - phase.start):.0%} of one core, "
            f"{phase.server_cpu_s * 1e3 / max(1, phase.closed.ok):.4f} server CPU ms per closed ok"
        )
        for stream in phase.timed:
            print("  " + describe_stream(stream, phase.open_rate))
    if setups:
        print("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups))
    print("net stats: " + json.dumps(bench.net_stats[-1], sort_keys=True))
    print(f"oracle: {bench.checked} distinct key(s) checked in-process, {len(wrong)} wrong")
    for key in wrong[:5]:
        print(f"  wrong payload for {key!r}")
    import resource

    print(f"generator peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    print(f"failed_ratio {failed / attempted if attempted else 0.0:.6f} ({failed} of {attempted})")

    try:
        if args.trace == 0:
            metrics = end_to_end(bench, setups)
            units = END_TO_END_UNITS
            for name, value in wall_clock(bench).items():
                print(f"  {name} = {value:.6g} {WALL_CLOCK_UNITS[name]} (not gated)")
        else:
            metrics = per_layer(bench, traced_server, spans_path)
            units = {name: layer_unit(name) for name in metrics}
    except TooFewSamples as exc:
        print(f"run rejected: {exc} (each percentile needs {MIN_BEYOND} samples beyond it)", file=sys.stderr)
        return 3
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = passed(wrong, bench.phases)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    """The unit a per-layer metric's name carries (``store.put_s`` -> ``s``)."""
    words = name.split(".")[1].split("_")
    for word, unit in (("us", "us"), ("ms", "ms"), ("s", "s"), ("bytes", "bytes"), ("ratio", "ratio")):
        if word in words:
            return unit
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".fleetbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except ServerError as exc:
        print(f"server failure: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".fleetbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())

"""Server launcher: ``python fleetbench/launch.py [--spans FILE] serve ...``.

Runs ``repro.cli.main`` on the given arguments from the checkout's
``src``.  With ``--spans FILE`` it first wraps the public entry points
of each layer in span recorders, and writes every recorded span to
``FILE`` as JSON when the server exits.  Without it nothing is wrapped,
so the untraced and traced runs start the same process the same way and
their difference is the cost of tracing.

A span is ``[name, start, end, request_id, thread_id, value]``.  Times
are ``time.perf_counter()`` seconds, which on Linux is the system-wide
monotonic clock the load generator reads too.  The request id is taken
from the call's arguments where the layer sees it (decode, dispatch,
encode), and otherwise inherited from the enclosing span on the same
thread or the same asyncio task.  ``value`` carries one measured fact of
the call (bytes written, kernel events, cache hit) or ``null``.

Each function is wrapped under the name its callers look up: a class
attribute for methods, and the importing module's global for functions
taken in with ``from ... import``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, List, Optional

ROOT = Path(__file__).resolve().parent.parent


class SpanRecorder:
    """In-memory span log shared by every wrapper in the process."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._local = threading.local()
        self._task_rid: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
            "fleetbench_request_id", default=None
        )
        #: id(AggregateRequest) -> request id, handed from the event loop
        #: to the pool thread that computes the aggregate.
        self.aggregate_ids: dict = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self,
        fn: Callable,
        name: Any,
        rid_in: Optional[Callable] = None,
        rid_out: Optional[Callable] = None,
        value: Optional[Callable] = None,
    ) -> Callable:
        """A synchronous span around ``fn``.

        ``name`` is a string or ``f(args) -> str``; ``rid_in(args)`` and
        ``rid_out(result)`` name the request id where the call carries
        it; ``value(args, result)`` records one fact of the call.
        """
        records = self.records
        stack_of = self._stack
        task_rid = self._task_rid
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            rid = rid_in(args) if rid_in is not None else None
            if rid is None:
                rid = stack[-1] if stack else task_rid.get()
            stack.append(rid)
            result = None
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                if done and rid_out is not None:
                    rid = rid_out(result)
                records.append(
                    (
                        name if isinstance(name, str) else name(args),
                        start,
                        end,
                        rid,
                        ident(),
                        value(args, result) if done and value is not None else None,
                    )
                )

        return wrapper

    def wrap_process(self, fn: Callable, name: str) -> Callable:
        """A span around ``NetServer._process``, one asyncio task per request.

        Sets the task's request id so synchronous spans on the event loop
        inside it (response encoding) inherit it, and hands an
        aggregate's id to the pool thread through :attr:`aggregate_ids`.
        """
        records = self.records
        task_rid = self._task_rid
        aggregate_ids = self.aggregate_ids
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        async def wrapper(server, conn, decoded, query, deadline):
            rid = query.id if query is not None else decoded.id
            if query is None and decoded.aggregate is not None:
                aggregate_ids[id(decoded.aggregate)] = rid
            token = task_rid.set(rid)
            start = clock()
            try:
                return await fn(server, conn, decoded, query, deadline)
            finally:
                records.append((name, start, clock(), rid, ident(), None))
                task_rid.reset(token)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.write_text(json.dumps({"spans": self.records}), encoding="utf-8")


class _JsonProxy:
    """The ``json`` module as :mod:`repro.serve.net` sees it, with ``dumps`` traced."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._module, attr)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the ledger reads."""
    import repro.aggregate.engine as aggregate_engine
    import repro.serve.ingest as ingest
    import repro.serve.net as net
    from repro.check.runner import ScenarioExecutor
    from repro.offline.analyzer import OfflineAnalyzer
    from repro.serve.protocol import QueryResponse
    from repro.serve.service import ProfilingService
    from repro.store.artifact import ArtifactStore
    from repro.telemetry.bus import TelemetryBus

    wrap = recorder.wrap

    def patch(owner: Any, attr: str, name: Any, **kw: Any) -> None:
        setattr(owner, attr, wrap(getattr(owner, attr), name, **kw))

    # sim / check: the replay of one corpus entry
    patch(
        ScenarioExecutor,
        "run",
        "check.replay",
        value=lambda args, _: args[0].system.kernel.dispatched_count,
    )
    patch(ingest, "capture_trace", "offline.capture")
    # store
    patch(ArtifactStore, "put", "store.put", value=lambda _, info: info.size)
    patch(ArtifactStore, "get", "store.get")
    # serve
    patch(ProfilingService, "ingest", "serve.ingest")
    patch(ProfilingService, "restore_sessions", "serve.restore")
    patch(
        ProfilingService,
        "submit",
        "serve.submit",
        rid_in=lambda args: args[1].id,
        value=lambda _, response: 1 if response.cached else 0,
    )
    # offline analyzer
    patch(OfflineAnalyzer, "__init__", "offline.analyzer_build")
    patch(
        OfflineAnalyzer,
        "describe",
        lambda args: "offline.describe." + args[1].backend,
    )
    # aggregate
    patch(
        aggregate_engine,
        "run_aggregate",
        "aggregate.run",
        value=lambda _, response: [response.memoized, response.computed],
    )
    patch(aggregate_engine, "session_partial", "aggregate.partial")
    # protocol
    patch(net, "decode_request_line", "protocol.decode", rid_out=lambda d: d.id)
    patch(QueryResponse, "to_dict", "protocol.encode", rid_in=lambda args: args[0].id)
    patch(aggregate_engine.AggregateResponse, "to_dict", "protocol.encode")
    net.json = _JsonProxy(
        json,
        wrap(
            json.dumps,
            "protocol.encode_line",
            rid_in=lambda args: args[0].get("id") if isinstance(args[0], dict) else None,
        ),
    )
    # net: per-request task on the loop, and the pool-thread hop into the service
    net.NetServer._process = recorder.wrap_process(net.NetServer._process, "net.process")
    patch(net.NetServer, "_dispatch_query", "net.dispatch", rid_in=lambda args: args[1].id)
    patch(
        net.NetServer,
        "_dispatch_aggregate",
        "net.dispatch",
        rid_in=lambda args: recorder.aggregate_ids.pop(id(args[1]), None),
    )
    # telemetry
    patch(TelemetryBus, "publish", "telemetry.publish")


def main(argv: List[str]) -> int:
    spans: Optional[Path] = None
    if argv[:1] == ["--spans"]:
        spans = Path(argv[1])
        argv = argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    if spans is not None:
        install(recorder)
    code = repro_main(argv)
    if spans is not None:
        recorder.dump(spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

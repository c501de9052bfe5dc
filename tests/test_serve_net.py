"""Concurrency suite for the TCP serving front-end (`repro.serve.net`).

The contracts under test (see ``docs/SERVING.md``, "Network serving"):

* every complete request line produces exactly one response (one per
  matched session for the wildcard), malformed/oversized lines degrade
  to typed ``error`` responses, and nothing is ever silently dropped;
* the transport accounting closes: ``received == answered + errors +
  shed`` over admitted queries, and every response the server owes is
  written;
* one misbehaving connection — a mid-line disconnect, a slowloris
  writer — never wedges the others;
* deadlines surface as typed errors naming the query, never hangs;
* cache hits are answered on the event loop, never queued behind cold
  work on the owner thread, and the service's counters lose no update
  between the two threads;
* graceful shutdown flushes in-flight responses before closing;
* payloads served over TCP are byte-identical to the in-process path.

No pytest-asyncio in the environment: every test drives its own event
loop via ``asyncio.run``.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec, activate
from repro.faults.retry import RetryPolicy
from repro.faults.soak import canonical_report_bytes
from repro.offline import capture_trace
from repro.reports import ReportRequest
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    AsyncServiceClient,
    NetConfig,
    NetServer,
    ProfilingService,
    QueryRequest,
    ResultLRU,
    ServeStats,
    ServiceConfig,
)
from repro.telemetry import capture
from repro.workloads import run_scene1


@pytest.fixture(scope="module")
def scene_trace():
    run = run_scene1()
    return capture_trace(run.system, run.eandroid)


@pytest.fixture
def service(scene_trace):
    svc = ProfilingService(ServiceConfig(telemetry=False))
    svc.ingest_trace("scene", scene_trace, "test")
    return svc


def _query(qid: int, backend: str = "eandroid", session: str = "scene"):
    return QueryRequest(
        id=qid, session=session, report=ReportRequest(backend=backend)
    )


def _latency_plan(delay_ms: float, max_injections: int = 1) -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec(
                site="net.latency",
                kind="latency",
                probability=1.0,
                max_injections=max_injections,
                delay_ms=delay_ms,
            ),
        )
    )


def run_net(service, config, scenario):
    """Start a NetServer, run ``scenario(server, host, port)``, shut down."""

    async def main():
        server = NetServer(service, config)
        await server.start()
        try:
            host, port = server.address
            result = await scenario(server, host, port)
        finally:
            await server.shutdown()
        return server, result

    return asyncio.run(main())


async def _raw_roundtrip(host, port, lines, read_all=True, pause_s=0.0):
    """Write raw bytes lines, half-close, read response lines to EOF.

    ``pause_s`` > 0 sends each element as its own burst, that long apart.
    """
    reader, writer = await asyncio.open_connection(host, port)
    for line in lines:
        writer.write(line)
        if pause_s:
            await writer.drain()
            await asyncio.sleep(pause_s)
    await writer.drain()
    writer.write_eof()
    responses = []
    while read_all:
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        if not line:
            break
        responses.append(json.loads(line))
    writer.close()
    return responses


class _Yielding:
    """Yields the GIL inside every attribute write, widening each
    read-modify-write so two threads without a lock lose updates."""

    def __setattr__(self, name, value):
        time.sleep(0)
        super().__setattr__(name, value)


class _YieldingStats(_Yielding, ServeStats):
    pass


class _YieldingLRU(_Yielding, ResultLRU):
    pass


# ----------------------------------------------------------------------
# satellite contract: N concurrent clients, exactly-once responses
# ----------------------------------------------------------------------
class TestConcurrentClients:
    CLIENTS = 8
    QUERIES = 12

    def test_every_query_answered_exactly_once(self, service):
        backends = ("energy", "eandroid", "collateral")

        async def scenario(server, host, port):
            async def drive(client_index):
                queries = [
                    _query(qid, backends[qid % len(backends)])
                    for qid in range(1, self.QUERIES + 1)
                ]
                async with AsyncServiceClient(host, port) as client:
                    return await client.submit_all(queries)

            return await asyncio.gather(
                *(drive(i) for i in range(self.CLIENTS))
            )

        server, results = run_net(service, NetConfig(), scenario)
        assert len(results) == self.CLIENTS
        for responses in results:
            # exactly one response per query, ids echoed in order
            assert [r.id for r in responses] == list(
                range(1, self.QUERIES + 1)
            )
            assert all(r.status == STATUS_OK for r in responses)
        stats = server.stats
        assert stats.received == self.CLIENTS * self.QUERIES
        assert stats.received == stats.answered + stats.errors + stats.shed
        assert stats.responses_written == stats.answered + stats.errors + stats.shed
        assert stats.connections_opened == stats.connections_closed == self.CLIENTS
        # The service-level invariant holds through the transport too.
        assert (
            service.stats.received
            == service.stats.answered + service.stats.errors + service.stats.shed
        )

    def test_accounting_closes_across_loop_and_owner_threads(self, service):
        """Sheds on the loop, hits on the loop and misses on the owner
        thread all count into one set of service stats, none lost."""
        backends = ("energy", "eandroid", "collateral")
        service.stats = _YieldingStats()
        service.cache = _YieldingLRU(service.config.cache_entries)
        for backend in backends:  # hot keys the loop answers inline
            service.submit(_query(0, backend))
        base = (service.stats.received, service.stats.answered)
        calls = []
        calls_lock = threading.Lock()
        submit = service.submit

        def counted_submit(query):
            with calls_lock:
                calls.append(query.id)
            return submit(query)

        service.submit = counted_submit
        hits_before, misses_before = service.cache.hits, service.cache.misses

        def bursts_for(client):
            lines = []
            for i in range(1, 25):
                doc = {"id": i, "session": "scene", "backend": backends[i % 3]}
                if i % 3 == 0:  # a window nobody asked before: a miss
                    doc["end"] = 1.0 + client * 100 + i
                lines.append((json.dumps(doc) + "\n").encode("utf-8"))
            return [b"".join(lines[i : i + 6]) for i in range(0, 24, 6)]

        async def scenario(server, host, port):
            return await asyncio.gather(
                *(
                    _raw_roundtrip(host, port, bursts_for(c), pause_s=0.005)
                    for c in range(8)
                )
            )

        # Switch threads often so an unguarded read-modify-write on the
        # stats loses updates if a lock is missing.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server, results = run_net(service, NetConfig(max_pending=16), scenario)
        finally:
            sys.setswitchinterval(interval)
        net, svc = server.stats, service.stats
        assert sum(len(r) for r in results) == 8 * 24
        assert net.shed >= 1
        assert net.received == 8 * 24
        assert net.received == net.answered + net.errors + net.shed
        assert svc.received == svc.answered + svc.errors + svc.shed
        assert (svc.received - base[0], svc.answered - base[1]) == (
            net.received,
            net.answered,
        )
        assert (svc.errors, svc.shed) == (net.errors, net.shed)
        hits = service.cache.hits - hits_before
        misses = service.cache.misses - misses_before
        assert hits + misses == len(calls) == net.received - net.shed
        assert hits >= 1 and misses >= 1, (hits, misses)

    def test_tcp_payloads_byte_identical_to_in_process(self, service):
        queries = [
            _query(qid, backend)
            for qid, backend in enumerate(
                ("energy", "batterystats", "powertutor", "eandroid", "collateral"),
                start=1,
            )
        ]
        expected = {
            q.id: canonical_report_bytes(service.submit(q).report) for q in queries
        }

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit_all(queries)

        _, responses = run_net(service, NetConfig(), scenario)
        for response in responses:
            assert response.status == STATUS_OK
            assert canonical_report_bytes(response.report) == expected[response.id]


# ----------------------------------------------------------------------
# wire behaviour: wildcard, malformed, oversized
# ----------------------------------------------------------------------
class TestWireBehaviour:
    def test_wildcard_expands_server_side_preserving_id(self, service, scene_trace):
        service.ingest_trace("second", scene_trace, "test")

        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 7, "session": "*", "backend": "energy"}\n']
            )

        _, responses = run_net(service, NetConfig(), scenario)
        assert len(responses) == 2  # one per ingested session
        assert {r["id"] for r in responses} == {7}
        assert {r["session"] for r in responses} == {"scene", "second"}
        assert all(r["status"] == STATUS_OK for r in responses)

    def test_wildcard_with_no_sessions_is_a_typed_error(self):
        empty = ProfilingService(ServiceConfig(telemetry=False))

        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 3, "session": "*", "backend": "energy"}\n']
            )

        _, responses = run_net(empty, NetConfig(), scenario)
        (response,) = responses
        assert response["id"] == 3
        assert response["status"] == STATUS_ERROR
        assert "no sessions" in response["error"]

    def test_malformed_lines_degrade_to_typed_errors(self, service):
        lines = [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b'{"id": 4, "session": "scene", "backend": "bogus"}\n',
            b'{"id": 5, "session": "scene", "backend": "energy"}\n',
        ]

        async def scenario(server, host, port):
            return await _raw_roundtrip(host, port, lines)

        server, responses = run_net(service, NetConfig(), scenario)
        assert len(responses) == len(lines)  # nothing silently dropped
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["status"] == STATUS_ERROR  # line seq as fallback id
        assert "not valid JSON" in by_id[1]["error"]
        assert by_id[2]["status"] == STATUS_ERROR
        assert "JSON object" in by_id[2]["error"]
        assert by_id[4]["status"] == STATUS_ERROR
        assert "bogus" in by_id[4]["error"]
        # The connection survived all three: the valid query answered.
        assert by_id[5]["status"] == STATUS_OK
        assert server.stats.parse_errors == 3

    def test_oversized_line_is_refused_and_connection_survives(self, service):
        config = NetConfig(max_line_bytes=1024)
        lines = [
            b'{"pad": "' + b"x" * 4096 + b'"}\n',
            b'{"id": 2, "session": "scene", "backend": "energy"}\n',
        ]

        async def scenario(server, host, port):
            return await _raw_roundtrip(host, port, lines)

        server, responses = run_net(service, config, scenario)
        assert len(responses) == 2
        assert responses[0]["status"] == STATUS_ERROR
        assert "maximum line size" in responses[0]["error"]
        assert responses[1]["status"] == STATUS_OK
        assert server.stats.oversized == 1

    def test_aggregate_requests_are_served_over_tcp(self, service):
        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 9, "op": "sum", "backend": "energy"}\n']
            )

        _, responses = run_net(service, NetConfig(), scenario)
        (response,) = responses
        assert response["id"] == 9
        assert response["status"] == STATUS_OK
        assert "aggregate" in response


# ----------------------------------------------------------------------
# isolation: one bad client never wedges the others
# ----------------------------------------------------------------------
class TestConnectionIsolation:
    def test_midline_disconnect_never_wedges_others(self, service):
        async def scenario(server, host, port):
            # Client A dies mid-line (no newline, hard abort).
            reader_a, writer_a = await asyncio.open_connection(host, port)
            writer_a.write(b'{"id": 1, "session": "scene", "ba')
            await writer_a.drain()
            writer_a.transport.abort()
            # Client B is unaffected.
            async with AsyncServiceClient(host, port) as client:
                payload = await asyncio.wait_for(
                    client.query("scene", "eandroid"), timeout=10.0
                )
            return payload

        server, payload = run_net(service, NetConfig(), scenario)
        assert payload["backend"] == "eandroid"
        # The half line died with its connection: no query, no response.
        assert server.stats.received == 1
        assert server.stats.connections_closed == 2

    def test_slowloris_never_wedges_others(self, service):
        line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'

        async def scenario(server, host, port):
            async def slow_client():
                reader, writer = await asyncio.open_connection(host, port)
                for i in range(len(line)):
                    writer.write(line[i : i + 1])
                    await writer.drain()
                    await asyncio.sleep(0.004)
                response = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
                writer.close()
                return response

            async def fast_client():
                async with AsyncServiceClient(host, port) as client:
                    queries = [_query(qid) for qid in range(1, 21)]
                    return await client.submit_all(queries)

            return await asyncio.gather(slow_client(), fast_client())

        _, (slow_response, fast_responses) = run_net(
            service, NetConfig(), scenario
        )
        # The fast client's 20 queries all completed while the slowloris
        # dribbled — and the slow client still got its answer.
        assert all(r.status == STATUS_OK for r in fast_responses)
        assert slow_response["status"] == STATUS_OK

    def test_max_connections_refuses_loudly(self, service):
        config = NetConfig(max_connections=1)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                await client.query("scene", "energy")  # A is admitted
                reader_b, writer_b = await asyncio.open_connection(host, port)
                refusal = json.loads(
                    await asyncio.wait_for(reader_b.readline(), timeout=10.0)
                )
                eof = await asyncio.wait_for(reader_b.read(), timeout=10.0)
                writer_b.close()
            return refusal, eof

        server, (refusal, eof) = run_net(service, config, scenario)
        assert refusal["status"] == STATUS_ERROR
        assert "connection limit" in refusal["error"]
        assert eof == b""  # the refused connection is closed, not hung
        assert server.stats.connections_refused == 1


# ----------------------------------------------------------------------
# deadlines and shedding
# ----------------------------------------------------------------------
class TestDeadlinesAndShedding:
    def test_deadline_returns_typed_error_naming_the_query(self, service):
        config = NetConfig(deadline_s=0.2)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit(_query(5))

        with activate(_latency_plan(1500.0), seed=0):
            server, response = run_net(service, config, scenario)
        assert response.status == STATUS_ERROR
        assert "deadline exceeded" in response.error
        assert "query 5" in response.error
        assert "'scene'" in response.error
        assert server.stats.deadline_exceeded == 1
        assert server.stats.received == (
            server.stats.answered + server.stats.errors + server.stats.shed
        )

    def test_cache_hit_is_not_queued_behind_cold_work(self, service):
        """A stalled owner thread delays misses, never a cached answer."""
        service.submit(_query(1, "energy"))  # warm the hot key
        cold_line = b'{"id": 2, "session": "scene", "backend": "eandroid"}\n'

        async def scenario(server, host, port):
            cold_reader, cold_writer = await asyncio.open_connection(host, port)
            cold_writer.write(cold_line)
            await cold_writer.drain()
            cold = asyncio.ensure_future(cold_reader.readline())
            await asyncio.sleep(0.05)  # the miss now sleeps on the owner
            loop = asyncio.get_running_loop()
            started = loop.time()
            async with AsyncServiceClient(host, port) as client:
                hit = await client.submit(_query(3, "energy"))
            elapsed = loop.time() - started
            cold_first = cold.done()
            cold_response = json.loads(await asyncio.wait_for(cold, 10.0))
            cold_writer.close()
            return hit, elapsed, cold_first, cold_response

        with activate(_latency_plan(1000.0, max_injections=None), seed=0):
            _, (hit, elapsed, cold_first, cold) = run_net(
                service, NetConfig(), scenario
            )
        assert hit.status == STATUS_OK and hit.cached
        assert elapsed < 0.2
        assert not cold_first  # the hit overtook the stalled miss
        assert cold["status"] == STATUS_OK and not cold["cached"]

    def test_shed_resubmit_recovers_through_the_retry_policy(self, service):
        config = NetConfig(max_pending=1)
        slow_line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'
        policy = RetryPolicy(base_delay_s=0.4, multiplier=1.0, max_delay_s=1.0)

        async def scenario(server, host, port):
            # Occupy the single admission slot with a latency-injected
            # query, then submit through the retrying client: the first
            # attempt is shed, the resubmit (after ~0.4s) is answered.
            _, slow_writer = await asyncio.open_connection(host, port)
            slow_writer.write(slow_line)
            await slow_writer.drain()
            await asyncio.sleep(0.05)  # let the slow query be admitted
            client = AsyncServiceClient(host, port, policy=policy)
            await client.connect()
            try:
                response = await client.submit(_query(2, backend="eandroid"))
            finally:
                await client.close()
                slow_writer.close()
            return response

        with activate(_latency_plan(200.0), seed=0):
            server, response = run_net(service, config, scenario)
        assert response.status == STATUS_OK
        assert server.stats.shed >= 1

    def test_still_shed_after_bounded_resubmits_is_typed(self, service):
        config = NetConfig(max_pending=1)
        slow_line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'

        async def scenario(server, host, port):
            _, slow_writer = await asyncio.open_connection(host, port)
            slow_writer.write(slow_line)
            await slow_writer.drain()
            await asyncio.sleep(0.05)
            # Default policy backs off ~35ms total: the slot is still
            # occupied (2s of injected latency) when resubmits run out.
            client = AsyncServiceClient(host, port, max_resubmits=2)
            await client.connect()
            try:
                response = await client.submit(_query(2, backend="eandroid"))
            finally:
                await client.close()
                slow_writer.close()
            return response

        with activate(_latency_plan(2000.0), seed=0):
            server, response = run_net(service, config, scenario)
        assert response.status == STATUS_SHED
        assert "still shed after 2 resubmit(s)" in response.error

    def test_async_client_refuses_the_wildcard(self, service):
        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                with pytest.raises(ValueError, match="wildcard"):
                    await client.submit(_query(1, session="*"))
            return True

        run_net(service, NetConfig(), scenario)


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_flushes_in_flight_responses(self, service):
        async def scenario():
            server = NetServer(service, NetConfig())
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            with activate(_latency_plan(300.0), seed=0):
                writer.write(
                    b'{"id": 11, "session": "scene", "backend": "energy"}\n'
                )
                await writer.drain()
                await asyncio.sleep(0.1)  # the query is now in flight
                shutdown = asyncio.ensure_future(server.shutdown())
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                tail = await asyncio.wait_for(reader.read(), timeout=10.0)
                await shutdown
            writer.close()
            return server, json.loads(line), tail

        server, response, tail = asyncio.run(scenario())
        # The in-flight query's answer was flushed before the close.
        assert response["id"] == 11
        assert response["status"] == STATUS_OK
        assert tail == b""
        assert server.stats.connections_closed == 1
        assert not server._connections

    def test_connections_after_shutdown_are_refused(self, service):
        async def scenario():
            server = NetServer(service, NetConfig())
            await server.start()
            host, port = server.address
            await server.shutdown()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            return True

        assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestNetTelemetry:
    def test_connection_and_deadline_events_are_published(self, service):
        config = NetConfig(deadline_s=0.2)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit(_query(5))

        with capture() as recorder:
            with activate(_latency_plan(1500.0), seed=0):
                run_net(service, config, scenario)
        names = [type(event).__name__ for event in recorder.events]
        assert "ConnectionOpenedEvent" in names
        assert "ConnectionClosedEvent" in names
        assert "QueryDeadlineExceededEvent" in names
        deadline_event = next(
            e
            for e in recorder.events
            if type(e).__name__ == "QueryDeadlineExceededEvent"
        )
        assert deadline_event.session == "scene"
        assert deadline_event.deadline_s == 0.2

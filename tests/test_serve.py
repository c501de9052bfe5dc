"""The energy query service: ingestion, serving, caching, backpressure."""

import json

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.offline import TraceFormatError, capture_trace
from repro.reports import BACKENDS, ReportRequest
from repro.serve import (
    ALL_SESSIONS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    ProfilingService,
    ProtocolError,
    QueryFailedError,
    QueryRequest,
    QueryResponse,
    ServiceClient,
    ServiceConfig,
    parse_queries_jsonl,
)
from repro.workloads import run_scene1


@pytest.fixture(scope="module")
def scene_run():
    return run_scene1()


@pytest.fixture(scope="module")
def scene_trace(scene_run):
    return capture_trace(scene_run.system, scene_run.eandroid)


@pytest.fixture()
def service(scene_trace):
    svc = ProfilingService(ServiceConfig(telemetry=False))
    svc.ingest_trace("scene", scene_trace, "test")
    return svc


class TestIngestion:
    def test_single_json_file(self, tmp_path, scene_trace):
        path = tmp_path / "device.json"
        path.write_text(scene_trace.to_json(), encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        assert svc.ingest(path) == ["device"]

    def test_jsonl_stream(self, tmp_path, scene_trace):
        line = scene_trace.to_json()
        path = tmp_path / "fleet.jsonl"
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        assert svc.ingest(path) == ["fleet#1", "fleet#2"]

    def test_directory_and_corpus_entries(self):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        names = svc.ingest("corpus")
        assert len(names) >= 1
        # corpus entries replay their recorded scenario into a trace
        for name in names:
            assert svc.sessions[name].trace.channels

    def test_malformed_document_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        with pytest.raises(TraceFormatError):
            svc.ingest(bad)

    def test_missing_path_raises(self):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        with pytest.raises(FileNotFoundError):
            svc.ingest("no-such-path")


class TestServing:
    def test_served_equals_live(self, service, scene_run):
        system, ea = scene_run.system, scene_run.eandroid
        client = ServiceClient(service)
        for backend, live in (
            ("batterystats", BatteryStats(system).report()),
            ("powertutor", PowerTutor(system).report()),
            ("eandroid", ea.report()),
        ):
            payload = client.query("scene", backend)
            assert payload["total_j"] == pytest.approx(
                live.total_energy_j(), rel=1e-6
            )
            served = {
                row["uid"]: row["energy_j"]
                for row in payload["entries"]
                if row["uid"] is not None
            }
            for entry in live.entries:
                if entry.uid is not None:
                    assert served[entry.uid] == pytest.approx(
                        entry.energy_j, rel=1e-6, abs=1e-9
                    )

    def test_all_backends_answer(self, service):
        client = ServiceClient(service)
        for backend in BACKENDS:
            payload = client.query("scene", backend)
            assert payload["schema"] == "repro.report/1"
            assert payload["backend"] == backend

    def test_cache_hits_on_repeat(self, service):
        (query,) = ServiceClient(service).build("scene", "eandroid")
        first = service.submit(query)
        second = service.submit(query)
        assert not first.cached and second.cached
        assert first.report == second.report
        assert service.cache.hits == 1 and service.cache.misses == 1

    def test_unknown_session_is_error(self, service):
        (query,) = ServiceClient(service).build("ghost", "energy")
        response = service.submit(query)
        assert response.status == STATUS_ERROR
        assert "ghost" in response.error
        with pytest.raises(QueryFailedError):
            ServiceClient(service).query("ghost", "energy")

    def test_wildcard_fans_out(self, scene_trace):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        svc.ingest_trace("a", scene_trace, "test")
        svc.ingest_trace("b", scene_trace, "test")
        payloads = ServiceClient(svc).query(ALL_SESSIONS, "energy")
        assert set(payloads) == {"a", "b"}

    def test_shed_on_small_queue(self, scene_trace):
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = svc.serve_batch(queries, burst=5)
        statuses = [r.status for r in responses]
        assert statuses.count(STATUS_OK) == 2
        assert statuses.count(STATUS_SHED) == 3
        assert svc.stats.shed == 3

    def test_client_resubmits_shed(self, scene_trace):
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = client.submit_all(queries, burst=5)
        assert all(r.status == STATUS_OK for r in responses)

    def test_shed_exhaustion_names_query_and_session(self, scene_trace):
        """A still-shed response must say which query, where, how hard
        the client tried — not a bare 'queue full'."""
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc, max_resubmits=0)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = client.submit_all(queries, burst=5)
        shed = [r for r in responses if r.status == STATUS_SHED]
        assert len(shed) == 3
        for response in shed:
            assert f"query {response.id} " in response.error
            assert "session 'scene'" in response.error
            assert "0 resubmit(s)" in response.error

    def test_duplicate_ids_each_get_a_response(self, service):
        # Regression: responses were folded back by id, so a repeated id
        # lost all but one response while the stats counted every query.
        queries = parse_queries_jsonl(
            [
                json.dumps({"id": 7, "session": "scene", "backend": "energy"}),
                json.dumps({"id": 7, "session": "scene", "backend": "eandroid"}),
            ]
        )
        responses = service.serve_batch(queries)
        assert [r.id for r in responses] == [7, 7]
        assert [r.report["backend"] for r in responses] == ["energy", "eandroid"]
        assert len(responses) == service.stats.answered == service.stats.received

    def test_manifest_shape(self, service):
        ServiceClient(service).query("scene", "energy")
        manifest = service.manifest()
        assert manifest["kind"] == "repro-serve-manifest"
        assert manifest["stats"]["answered"] == 1
        assert "scene" in manifest["sessions"]
        assert manifest["cache"]["capacity"] == service.config.cache_entries


class TestProtocol:
    def test_query_round_trip(self):
        query = QueryRequest(
            id=7,
            session="scene",
            report=ReportRequest(backend="eandroid", start=1.0, end=9.0),
        )
        assert QueryRequest.from_dict(query.to_dict()) == query

    def test_response_round_trip(self):
        response = QueryResponse(
            id=7, session="scene", status=STATUS_OK, report={"total_j": 1.0}
        )
        restored = QueryResponse.from_dict(response.to_dict())
        assert restored.id == 7 and restored.report == {"total_j": 1.0}

    def test_parse_queries_jsonl(self):
        lines = [
            "# comment",
            "",
            json.dumps({"session": "a", "backend": "energy"}),
            json.dumps({"id": 9, "session": "b", "backend": "eandroid"}),
        ]
        queries = parse_queries_jsonl(lines)
        assert [q.id for q in queries] == [3, 9]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ProtocolError, match="line 2"):
            parse_queries_jsonl(["# ok", "{broken"])

    def test_bad_backend_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_queries_jsonl([json.dumps({"session": "a", "backend": "nope"})])


class TestStdinDaemon:
    """The stdin/stdout JSONL loop (`repro serve --daemon`)."""

    def _run_daemon(self, service, lines, monkeypatch, capsys):
        import io

        from repro.cli import _serve_daemon

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        _serve_daemon(service)
        return [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]

    def test_oversized_line_degrades_to_typed_error(
        self, service, monkeypatch, capsys
    ):
        # Regression: an over-long stdin line used to be fed straight to
        # the JSON parser; it must hit the shared MAX_LINE_BYTES guard
        # and come back as a typed error, like the TCP front-end.
        from repro.serve import MAX_LINE_BYTES

        huge = json.dumps(
            {
                "id": 5,
                "session": "scene",
                "backend": "energy",
                "pad": "x" * MAX_LINE_BYTES,
            }
        )
        follow_up = json.dumps({"id": 6, "session": "scene", "backend": "energy"})
        out = self._run_daemon(
            service, [huge + "\n", follow_up + "\n"], monkeypatch, capsys
        )
        assert len(out) == 2
        assert out[0]["status"] == "error"
        assert "maximum line size" in out[0]["error"]
        assert str(MAX_LINE_BYTES) in out[0]["error"]
        # the loop survives the oversized line and serves the next one
        assert out[1]["id"] == 6 and out[1]["status"] == STATUS_OK

    def test_garbage_line_is_typed_error_not_crash(
        self, service, monkeypatch, capsys
    ):
        out = self._run_daemon(
            service,
            ['{"id": broken\n', "# comment\n", "\n"],
            monkeypatch,
            capsys,
        )
        assert len(out) == 1
        assert out[0]["status"] == "error" and out[0]["error"]

    def test_valid_queries_still_answer(self, service, monkeypatch, capsys):
        line = json.dumps({"id": 3, "session": "scene", "backend": "eandroid"})
        out = self._run_daemon(service, [line + "\n"], monkeypatch, capsys)
        assert [r["status"] for r in out] == [STATUS_OK]
        assert out[0]["report"]["total_j"] > 0.0

    def test_empty_wildcard_is_one_typed_error(self, monkeypatch, capsys):
        # Regression: with nothing ingested the daemon printed nothing.
        empty = ProfilingService(ServiceConfig(telemetry=False))
        line = json.dumps({"id": 4, "session": ALL_SESSIONS, "backend": "energy"})
        out = self._run_daemon(empty, [line + "\n"], monkeypatch, capsys)
        assert len(out) == 1
        assert out[0]["id"] == 4 and out[0]["status"] == STATUS_ERROR
        assert out[0]["session"] == ALL_SESSIONS
        assert "matched no sessions" in out[0]["error"]

    def test_wildcard_responses_echo_the_line_id(
        self, scene_trace, monkeypatch, capsys
    ):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        svc.ingest_trace("a", scene_trace, "test")
        svc.ingest_trace("b", scene_trace, "test")
        line = json.dumps({"id": 42, "session": ALL_SESSIONS, "backend": "energy"})
        follow_up = json.dumps({"id": 1, "session": "a", "backend": "eandroid"})
        out = self._run_daemon(
            svc, [line + "\n", follow_up + "\n"], monkeypatch, capsys
        )
        assert [(r["id"], r["session"], r["status"]) for r in out] == [
            (42, "a", STATUS_OK),
            (42, "b", STATUS_OK),
            (1, "a", STATUS_OK),
        ]

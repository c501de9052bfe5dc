"""Fleet aggregation: requests, partials, scatter-gather, memoization."""

import json

import pytest

from repro.aggregate import (
    AGGREGATE_SCHEMA,
    PARTIAL_SCHEMA,
    AggregateRequest,
    AggregateRequestError,
    GroupedPartial,
    HistogramPartial,
    PartialFormatError,
    PartialMergeError,
    category_of,
    empty_partial,
    is_aggregate_document,
    merge_partials,
    partial_from_dict,
    run_aggregate,
    session_values,
)
from repro.offline import capture_trace
from repro.offline.analyzer import OfflineAnalyzer
from repro.reports import ReportRequest, UnknownBackendError
from repro.serve import ProfilingService, ServiceConfig
from repro.workloads import run_attack3, run_scene1


@pytest.fixture(scope="module")
def scene_trace():
    run = run_scene1()
    return capture_trace(run.system, run.eandroid)


@pytest.fixture(scope="module")
def attack_trace():
    run = run_attack3()
    return capture_trace(run.system, run.eandroid)


@pytest.fixture()
def fleet(scene_trace, attack_trace):
    svc = ProfilingService(ServiceConfig(telemetry=False))
    svc.ingest_trace("fleet-a", scene_trace, "test")
    svc.ingest_trace("fleet-b", attack_trace, "test")
    svc.ingest_trace("other-c", attack_trace, "test")
    return svc


class TestRequest:
    def test_defaults_and_roundtrip(self):
        request = AggregateRequest(backend="eandroid")
        assert request.op == "sum" and request.group_by == "owner"
        assert request.sessions == ("*",)
        rebuilt = AggregateRequest.from_dict(request.to_dict())
        assert rebuilt == request

    def test_sessions_string_accepted(self):
        request = AggregateRequest.from_dict(
            {"backend": "energy", "op": "sum", "sessions": "fleet-*"}
        )
        assert request.sessions == ("fleet-*",)

    def test_selector_is_a_set(self):
        a = AggregateRequest(backend="energy", sessions=("b", "a", "b"))
        b = AggregateRequest(backend="energy", sessions=("a", "b"))
        assert a.sessions == ("a", "b")
        assert a.key() == b.key()

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"backend": "nope"}, UnknownBackendError),
            ({"backend": "energy", "op": "max"}, AggregateRequestError),
            ({"backend": "energy", "group_by": "uid"}, AggregateRequestError),
            ({"backend": "energy", "sessions": ()}, AggregateRequestError),
            ({"backend": "energy", "start": -1.0}, AggregateRequestError),
            ({"backend": "energy", "start": 5.0, "end": 1.0}, AggregateRequestError),
            ({"backend": "energy", "op": "topk", "k": 0}, AggregateRequestError),
            ({"backend": "energy", "op": "histogram", "bins": 0}, AggregateRequestError),
            (
                {"backend": "energy", "op": "histogram", "bin_width": 0.0},
                AggregateRequestError,
            ),
        ],
    )
    def test_validation(self, kwargs, error):
        with pytest.raises(error):
            AggregateRequest(**kwargs)

    def test_missing_backend(self):
        with pytest.raises(AggregateRequestError):
            AggregateRequest.from_dict({"op": "sum"})

    def test_selector_matching(self):
        request = AggregateRequest(backend="energy", sessions=("fleet-*",))
        names = ["fleet-a", "fleet-b", "other-c"]
        assert request.select(names) == ["fleet-a", "fleet-b"]
        assert not request.matches("other-c")

    def test_cache_token_ignores_selector_and_k(self):
        base = AggregateRequest(backend="energy", op="topk", k=10)
        narrowed = AggregateRequest(
            backend="energy", op="topk", k=3, sessions=("fleet-*",)
        )
        assert base.cache_token() == narrowed.cache_token()

    def test_cache_token_tracks_window_and_backend(self):
        base = AggregateRequest(backend="energy")
        assert base.cache_token() != AggregateRequest(backend="eandroid").cache_token()
        assert (
            base.cache_token()
            != AggregateRequest(backend="energy", start=1.0).cache_token()
        )

    def test_sum_and_mean_share_partials(self):
        total = AggregateRequest(backend="energy", op="sum")
        mean = AggregateRequest(backend="energy", op="mean")
        histogram = AggregateRequest(backend="energy", op="histogram")
        assert total.cache_token() == mean.cache_token()
        assert total.cache_token() != histogram.cache_token()

    def test_is_aggregate_document(self):
        assert is_aggregate_document({"backend": "energy", "op": "sum"})
        assert not is_aggregate_document({"session": "a", "backend": "energy"})
        assert not is_aggregate_document([1, 2])


class TestCategoryOf:
    def test_corpus_package_ids_carry_their_category(self):
        assert category_of("com.play.game.app0001") == "game"

    def test_framework_labels(self):
        assert category_of("Screen") == "system_screen"
        assert category_of("Screen (no foreground)") == "system_screen"
        assert category_of("Android OS") == "system_os"

    def test_hash_fallback_is_deterministic(self):
        from repro.apps import CATEGORY_PROFILES

        names = {profile[0] for profile in CATEGORY_PROFILES}
        assert category_of("Victim") == category_of("Victim")
        assert category_of("Victim") in names


class TestGroupedPartial:
    def test_merge_is_disjoint_union(self):
        a = GroupedPartial.for_session("s1", {"g1": 1.0, "g2": 2.0})
        b = GroupedPartial.for_session("s2", {"g2": 3.0})
        merged = a.merge(b)
        assert merged.sessions == frozenset({"s1", "s2"})
        assert merged.totals() == {"g1": 1.0, "g2": 5.0}
        # purity: the inputs are untouched
        assert a.totals() == {"g1": 1.0, "g2": 2.0}

    def test_merge_rejects_session_overlap(self):
        a = GroupedPartial.for_session("s1", {"g": 1.0})
        with pytest.raises(PartialMergeError, match="s1"):
            a.merge(GroupedPartial.for_session("s1", {"g": 2.0}))

    def test_merge_rejects_kind_mismatch(self):
        a = GroupedPartial.for_session("s1", {"g": 1.0})
        b = HistogramPartial.for_session("s2", {"g": 1.0}, bins=4, bin_width=1.0)
        with pytest.raises(PartialMergeError):
            a.merge(b)

    def test_empty_is_identity(self):
        request = AggregateRequest(backend="energy")
        a = GroupedPartial.for_session("s1", {"g": 1.5})
        assert empty_partial(request).merge(a).to_dict() == a.to_dict()
        assert a.merge(GroupedPartial()).to_dict() == a.to_dict()

    def test_finalize_sum_and_mean(self):
        request = AggregateRequest(backend="energy", op="mean")
        merged = merge_partials(
            [
                GroupedPartial.for_session("s1", {"g": 1.0}),
                GroupedPartial.for_session("s2", {"g": 3.0}),
            ],
            request,
        )
        result = merged.finalize(request)
        assert result["groups"]["g"] == {"mean": 2.0, "count": 2, "total": 4.0}
        total = merged.finalize(AggregateRequest(backend="energy", op="sum"))
        assert total == {"groups": {"g": 4.0}, "group_count": 1}

    def test_finalize_topk_breaks_ties_on_label(self):
        request = AggregateRequest(backend="energy", op="topk", k=2)
        merged = GroupedPartial.for_session("s1", {"b": 5.0, "a": 5.0, "c": 1.0})
        result = merged.finalize(request)
        assert [row["group"] for row in result["top"]] == ["a", "b"]
        assert result["group_count"] == 3

    def test_roundtrip(self):
        a = GroupedPartial.for_session("s1", {"g1": 1.25, "g2": 0.5})
        rebuilt = partial_from_dict(a.to_dict())
        assert rebuilt.to_dict() == a.to_dict()
        assert rebuilt.to_dict()["schema"] == PARTIAL_SCHEMA


class TestHistogramPartial:
    def test_binning_clamps_both_ends(self):
        partial = HistogramPartial.for_session(
            "s1", {"low": -2.0, "mid": 1.5, "high": 99.0}, bins=4, bin_width=1.0
        )
        assert partial.counts == (1, 1, 0, 1)
        assert partial.samples == 3

    def test_merge_adds_counts(self):
        a = HistogramPartial.for_session("s1", {"g": 0.5}, bins=3, bin_width=1.0)
        b = HistogramPartial.for_session("s2", {"g": 0.6}, bins=3, bin_width=1.0)
        assert a.merge(b).counts == (2, 0, 0)

    def test_merge_rejects_shape_mismatch(self):
        a = HistogramPartial.for_session("s1", {"g": 0.5}, bins=3, bin_width=1.0)
        b = HistogramPartial.for_session("s2", {"g": 0.5}, bins=4, bin_width=1.0)
        with pytest.raises(PartialMergeError, match="shapes differ"):
            a.merge(b)

    def test_roundtrip(self):
        a = HistogramPartial.for_session("s1", {"g": 2.5}, bins=4, bin_width=2.0)
        assert partial_from_dict(a.to_dict()).to_dict() == a.to_dict()


class TestPartialFromDict:
    @pytest.mark.parametrize(
        "data",
        [
            "not a mapping",
            {"schema": "other/1", "kind": "grouped"},
            {"schema": PARTIAL_SCHEMA, "kind": "mystery"},
            {"schema": PARTIAL_SCHEMA, "kind": "grouped"},  # missing fields
            {"schema": PARTIAL_SCHEMA, "kind": "histogram", "counts": "x"},
        ],
    )
    def test_malformed(self, data):
        with pytest.raises(PartialFormatError):
            partial_from_dict(data)


class TestAggregateEngine:
    def test_sum_matches_report_rows(self, fleet, scene_trace, attack_trace):
        request = AggregateRequest(backend="eandroid", op="sum", group_by="owner")
        payload = fleet.aggregate(request).payload
        assert payload["schema"] == AGGREGATE_SCHEMA
        assert payload["partial"] is False and not payload["missing_sessions"]
        expected = {}
        for trace in (scene_trace, attack_trace, attack_trace):
            view = OfflineAnalyzer(trace).describe(ReportRequest(backend="eandroid"))
            for entry in view.rows():
                expected[entry.label] = expected.get(entry.label, 0.0) + entry.energy_j
        groups = payload["result"]["groups"]
        assert set(groups) == set(expected)
        for label, total in expected.items():
            assert groups[label] == pytest.approx(total)

    def test_selector_narrows_the_fleet(self, fleet):
        request = AggregateRequest(
            backend="energy", sessions=("fleet-*",), op="sum"
        )
        payload = fleet.aggregate(request).payload
        assert payload["sessions"] == ["fleet-a", "fleet-b"]

    def test_no_matching_sessions(self, fleet):
        request = AggregateRequest(backend="energy", sessions=("nothing-*",))
        payload = fleet.aggregate(request).payload
        assert payload["sessions"] == [] and payload["partial"] is False
        assert payload["result"] == {"groups": {}, "group_count": 0}

    def test_mechanism_group_by_reads_the_link_log(self, fleet, attack_trace):
        request = AggregateRequest(backend="energy", group_by="mechanism")
        payload = fleet.aggregate(request).payload
        kinds = {link.kind for link in attack_trace.links}
        assert kinds and set(payload["result"]["groups"]) <= kinds | {
            link.kind for link in fleet.sessions["fleet-a"].trace.links
        }
        values = session_values(OfflineAnalyzer(attack_trace), request)
        assert all(v > 0 for v in values.values())

    def test_histogram_counts_all_groups(self, fleet):
        request = AggregateRequest(
            backend="energy", op="histogram", bins=8, bin_width=20.0
        )
        payload = fleet.aggregate(request).payload
        result = payload["result"]
        assert len(result["bins"]) == 8
        assert sum(result["bins"]) == result["samples"] > 0

    def test_stats_count_aggregates(self, fleet):
        fleet.aggregate(AggregateRequest(backend="energy"))
        assert fleet.stats.aggregates == 1
        assert fleet.stats.as_dict()["aggregates"] == 1

    def test_response_to_dict_shape(self, fleet):
        response = fleet.aggregate(AggregateRequest(backend="energy"))
        data = response.to_dict()
        assert data["status"] == "ok"
        assert data["aggregate"]["schema"] == AGGREGATE_SCHEMA
        assert data["computed"] == 3 and data["memoized"] == 0


class TestMemoization:
    def _service(self, tmp_path, scene_trace, attack_trace):
        svc = ProfilingService(
            ServiceConfig(telemetry=False, store_dir=str(tmp_path / "store"))
        )
        svc.ingest_trace("m-a", scene_trace, "test", digest="a" * 64)
        svc.ingest_trace("m-b", attack_trace, "test", digest="b" * 64)
        return svc

    def test_second_run_is_all_memo_hits(self, tmp_path, scene_trace, attack_trace):
        svc = self._service(tmp_path, scene_trace, attack_trace)
        request = AggregateRequest(backend="eandroid")
        live = svc.aggregate(request)
        warm = svc.aggregate(request)
        assert (live.computed, live.memoized) == (2, 0)
        assert (warm.computed, warm.memoized) == (0, 2)
        assert json.dumps(live.payload, sort_keys=True) == json.dumps(
            warm.payload, sort_keys=True
        )

    def test_partials_shared_across_selectors_and_ops(
        self, tmp_path, scene_trace, attack_trace
    ):
        svc = self._service(tmp_path, scene_trace, attack_trace)
        svc.aggregate(AggregateRequest(backend="eandroid", op="sum"))
        narrowed = svc.aggregate(
            AggregateRequest(backend="eandroid", op="mean", sessions=("m-a",))
        )
        assert (narrowed.computed, narrowed.memoized) == (0, 1)

    def test_corrupt_memo_degrades_to_recompute(
        self, tmp_path, scene_trace, attack_trace
    ):
        from repro.aggregate.engine import _memo_ref
        from repro.aggregate import AGGREGATE_REF_NAMESPACE

        svc = self._service(tmp_path, scene_trace, attack_trace)
        request = AggregateRequest(backend="eandroid")
        live = svc.aggregate(request)
        # Point one memo ref at garbage bytes.
        info = svc.store.put_bytes(b"garbage", kind="junk", codec="json", version=1)
        svc.store.set_ref(
            AGGREGATE_REF_NAMESPACE, _memo_ref("a" * 64, request), info.digest
        )
        healed = svc.aggregate(request)
        assert (healed.computed, healed.memoized) == (1, 1)
        assert json.dumps(healed.payload, sort_keys=True) == json.dumps(
            live.payload, sort_keys=True
        )

    def test_unkeyed_sessions_always_recompute(self, tmp_path, scene_trace):
        svc = ProfilingService(
            ServiceConfig(telemetry=False, store_dir=str(tmp_path / "store"))
        )
        svc.ingest_trace("plain", scene_trace, "test")  # no digest
        request = AggregateRequest(backend="energy")
        assert svc.aggregate(request).computed == 1
        assert svc.aggregate(request).computed == 1

    def test_ingest_wires_content_digests(self, tmp_path, scene_trace):
        path = tmp_path / "device.json"
        path.write_text(scene_trace.to_json(), encoding="utf-8")
        svc = ProfilingService(
            ServiceConfig(telemetry=False, store_dir=str(tmp_path / "store"))
        )
        (name,) = svc.ingest(path)
        assert svc.sessions[name].content_digest
        request = AggregateRequest(backend="energy")
        assert svc.aggregate(request).computed == 1
        assert svc.aggregate(request).memoized == 1


class TestTelemetry:
    def test_aggregate_events_published(self, scene_trace):
        from repro.telemetry import Category
        from repro.telemetry.bus import TelemetryRecorder

        svc = ProfilingService(ServiceConfig(telemetry=True))
        svc.ingest_trace("t-a", scene_trace, "test")
        recorder = TelemetryRecorder()
        recorder.attach(svc.bus, categories=[Category.AGGREGATE])
        svc.aggregate(AggregateRequest(backend="energy"))
        names = [event.name for event in recorder.events]
        assert names == ["aggregate_issued", "aggregate_partial", "aggregate_merged"]
        merged = recorder.events[-1]
        assert merged.partial is False and merged.merged == 1


class TestCli:
    def test_aggregate_command(self, tmp_path, scene_trace, capsys):
        from repro.cli import main

        trace_path = tmp_path / "device.json"
        trace_path.write_text(scene_trace.to_json(), encoding="utf-8")
        out = tmp_path / "agg.json"
        code = main(
            [
                "aggregate",
                "--batch",
                str(trace_path),
                "--backend",
                "eandroid",
                "--op",
                "topk",
                "--k",
                "3",
                "--out",
                str(out),
                "--fail-on-partial",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == AGGREGATE_SCHEMA
        assert payload["partial"] is False
        assert len(payload["result"]["top"]) <= 3

    def test_bad_request_exits_2(self, tmp_path, scene_trace, capsys):
        from repro.cli import main

        trace_path = tmp_path / "device.json"
        trace_path.write_text(scene_trace.to_json(), encoding="utf-8")
        code = main(
            ["aggregate", "--batch", str(trace_path), "--backend", "bogus"]
        )
        assert code == 2

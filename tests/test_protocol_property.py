"""Property tests for the JSONL wire protocol and its framing layer.

Two contracts, pinned with hypothesis:

* **round-trip identity** — any valid query / aggregate / response
  object survives encode → frame → chunked reassembly → decode exactly
  (the same `DecodedLine` both serving front-ends consume);
* **never-raise degradation** — `decode_request_line` turns arbitrary
  garbage, truncation, and type confusion into a typed ``error`` result
  and never lets an exception escape (an escaping exception would kill
  a connection handler), and `LineAssembler` yields the same framing
  events for a byte stream regardless of how the chunks split it;
* **encoder byte identity** — `encode_response_line`, which splices a
  cached report's pre-encoded text into the line, writes exactly the
  bytes of ``json.dumps(response.to_dict()) + "\n"``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregateRequest
from repro.aggregate.engine import AggregateResponse
from repro.aggregate.request import GROUP_BYS, OPS
from repro.reports import BACKENDS, ReportRequest
from repro.serve import (
    LineAssembler,
    QueryRequest,
    QueryResponse,
    decode_request_line,
    encode_response_line,
    responses_to_jsonl,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_session_names = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "N"), include_characters="-_."
    ),
    min_size=1,
    max_size=24,
)

_windows = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
).map(lambda w: (w[0], None if w[1] is None else max(w[0], w[1])))


@st.composite
def report_requests(draw):
    start, end = draw(_windows)
    owners = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=99_999), min_size=1, max_size=6
            ),
        )
    )
    return ReportRequest(
        backend=draw(st.sampled_from(BACKENDS)),
        start=start,
        end=end,
        owners=None if owners is None else tuple(owners),
    )


@st.composite
def query_requests(draw):
    return QueryRequest(
        id=draw(st.integers(min_value=0, max_value=2**31)),
        session=draw(_session_names),
        report=draw(report_requests()),
    )


@st.composite
def aggregate_requests(draw):
    op = draw(st.sampled_from(OPS))
    start, end = draw(_windows)
    return AggregateRequest(
        backend=draw(st.sampled_from(BACKENDS)),
        op=op,
        group_by=draw(st.sampled_from(GROUP_BYS)),
        sessions=tuple(draw(st.lists(_session_names, min_size=1, max_size=4))),
        start=start,
        end=end,
        k=draw(st.integers(min_value=1, max_value=50)),
        bins=draw(st.integers(min_value=1, max_value=64)),
        bin_width=draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False)),
    )


@st.composite
def query_responses(draw):
    status = draw(st.sampled_from(("ok", "shed", "error")))
    report = None
    error = None
    if status == "ok":
        report = draw(
            st.dictionaries(
                st.sampled_from(("schema", "backend", "total_j", "rows")),
                st.one_of(st.text(max_size=16), st.floats(allow_nan=False)),
                max_size=4,
            )
        )
    else:
        error = draw(st.text(min_size=1, max_size=64))
    return QueryResponse(
        id=draw(st.integers(min_value=0, max_value=2**31)),
        session=draw(_session_names),
        status=status,
        report=report,
        error=error,
        cached=draw(st.booleans()),
        latency_us=draw(st.floats(min_value=0.0, max_value=1e9, allow_nan=False)),
    )


#: Numbers whose JSON spelling is easy to get wrong by hand.
_edge_numbers = st.one_of(
    st.sampled_from((-0.0, 0.0, 1e-300, 5e-324, 1e300, 2**53 + 1, 2**64, -(10**30))),
    st.floats(),  # NaN and the infinities included: json.dumps spells them
    st.integers(),
)

_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _edge_numbers,
        st.text(max_size=12),  # non-ASCII and control characters too
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)

_json_objects = st.dictionaries(st.text(max_size=8), _json_values, max_size=5)


@st.composite
def wire_responses(draw):
    """Responses as the serving paths build them, edge values included."""
    status = draw(st.sampled_from(("ok", "shed", "error")))
    report = draw(_json_objects) if status == "ok" else None
    precoded = report is not None and draw(st.booleans())
    # Extras may shadow fixed fields: the encoder must keep their slots.
    extras = draw(
        st.dictionaries(
            st.one_of(
                st.sampled_from(("id", "report", "error", "status", "shard")),
                st.text(max_size=8),
            ),
            _json_values,
            max_size=3,
        )
    )
    return QueryResponse(
        id=draw(st.integers()),
        session=draw(st.text(max_size=24)),
        status=status,
        report=report,
        error=draw(st.one_of(st.none(), st.text(max_size=32))),
        cached=draw(st.booleans()),
        latency_us=draw(_edge_numbers),
        extras=extras,
        report_text=json.dumps(report) if precoded else None,
    )


@st.composite
def aggregate_responses(draw):
    return AggregateResponse(
        status=draw(st.sampled_from(("ok", "error"))),
        request=draw(aggregate_requests()),
        payload=draw(st.one_of(st.none(), _json_objects)),
        error=draw(st.one_of(st.none(), st.text(max_size=32))),
        latency_us=draw(_edge_numbers),
        memoized=draw(st.integers(min_value=0, max_value=500)),
        computed=draw(st.integers(min_value=0, max_value=500)),
    )


def _chunked(data: bytes, cuts):
    """Split ``data`` at the (sorted, de-duplicated) cut offsets."""
    offsets = sorted({min(c, len(data)) for c in cuts})
    pieces = []
    last = 0
    for offset in offsets:
        pieces.append(data[last:offset])
        last = offset
    pieces.append(data[last:])
    return [p for p in pieces if p]


# ----------------------------------------------------------------------
# round-trip identity: encode -> frame -> split -> decode
# ----------------------------------------------------------------------
class TestRoundTrips:
    @given(query=query_requests())
    @settings(max_examples=200, deadline=None)
    def test_query_line_roundtrip(self, query):
        line = json.dumps(query.to_dict())
        decoded = decode_request_line(line)
        assert decoded.kind == "query"
        assert decoded.id == query.id
        assert decoded.query == query
        assert decoded.query.key() == query.key()

    @given(request=aggregate_requests())
    @settings(max_examples=200, deadline=None)
    def test_aggregate_line_roundtrip(self, request):
        line = json.dumps(request.to_dict())
        decoded = decode_request_line(line)
        assert decoded.kind == "aggregate"
        # `to_dict` drops k/bins/bin_width for ops that ignore them, so
        # identity holds on the wire form and the cache key, not on raw
        # dataclass equality.
        assert decoded.aggregate.to_dict() == request.to_dict()
        assert decoded.aggregate.key() == request.key()

    @given(response=query_responses())
    @settings(max_examples=200, deadline=None)
    def test_response_line_roundtrip(self, response):
        line = json.dumps(response.to_dict())
        rebuilt = QueryResponse.from_dict(json.loads(line))
        assert rebuilt.to_dict() == response.to_dict()

    @given(
        queries=st.lists(query_requests(), min_size=1, max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_framing_is_chunking_invariant(self, queries, cuts):
        """Any chunking of the same byte stream frames the same lines."""
        stream = b"".join(
            (json.dumps(q.to_dict()) + "\n").encode("utf-8") for q in queries
        )
        assembler = LineAssembler()
        events = []
        for chunk in _chunked(stream, cuts):
            events.extend(assembler.feed(chunk))
        assembler.finish()
        assert [kind for kind, _ in events] == ["line"] * len(queries)
        decoded = [
            decode_request_line(line.decode("utf-8")) for _, line in events
        ]
        assert [d.query for d in decoded] == queries


# ----------------------------------------------------------------------
# the response encoder: spliced text, byte-identical lines
# ----------------------------------------------------------------------
class TestLineEncoder:
    @given(response=wire_responses())
    @settings(max_examples=400, deadline=None)
    def test_query_response_bytes_match_json_dumps(self, response):
        expected = (json.dumps(response.to_dict()) + "\n").encode("utf-8")
        assert encode_response_line(response).encode("utf-8") == expected

    @given(response=aggregate_responses(), line_id=st.integers())
    @settings(max_examples=200, deadline=None)
    def test_aggregate_response_bytes_match_json_dumps(self, response, line_id):
        data = response.to_dict()
        assert encode_response_line(response) == json.dumps(data) + "\n"
        assert (
            encode_response_line(response, line_id=line_id)
            == json.dumps({"id": line_id, **data}) + "\n"
        )

    @given(responses=st.lists(wire_responses(), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_jsonl_matches_per_line_json_dumps(self, responses):
        expected = "\n".join(json.dumps(r.to_dict()) for r in responses) + "\n"
        assert responses_to_jsonl(responses) == expected


# ----------------------------------------------------------------------
# degradation: garbage never raises, never silently drops
# ----------------------------------------------------------------------
class TestGarbageDegradation:
    @given(text=st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_raises(self, text):
        decoded = decode_request_line(text, default_id=42)
        assert decoded.kind in ("query", "aggregate", "error")
        if decoded.kind == "error":
            assert decoded.error  # typed and non-empty, never silent

    @given(
        query=query_requests(),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_query_lines_are_typed_errors(self, query, frac):
        line = json.dumps(query.to_dict())
        cut = int(len(line) * frac)
        decoded = decode_request_line(line[:cut], default_id=7)
        # A proper prefix of a JSON object is never a valid object.
        assert decoded.kind == "error"
        assert decoded.error
        assert decoded.id == 7

    @given(
        payload=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=16),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_documents_never_raise(self, payload):
        decoded = decode_request_line(json.dumps(payload))
        assert decoded.kind in ("query", "aggregate", "error")
        if decoded.kind == "error":
            assert decoded.error

    def test_pathological_literals_are_typed_errors(self):
        # Infinity ids overflow int(); deep nesting can hit the
        # recursion limit — both must degrade, not raise.
        for line in (
            '{"id": Infinity, "session": "s", "backend": "energy"}',
            "[" * 10_000 + "]" * 10_000,
            '{"session": "s"}',  # missing backend
            '{"backend": "energy"}',  # missing session
            '{"id": [1], "session": "s", "backend": "energy"}',
        ):
            decoded = decode_request_line(line)
            assert decoded.kind == "error", line
            assert decoded.error


# ----------------------------------------------------------------------
# the framing layer under oversized lines
# ----------------------------------------------------------------------
class TestOversizedResync:
    @given(
        junk_len=st.integers(min_value=65, max_value=4096),
        cuts=st.lists(st.integers(min_value=0, max_value=8192), max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_oversized_line_flags_once_and_resyncs(self, junk_len, cuts):
        assembler = LineAssembler(max_line_bytes=64)
        follow_up = b'{"id": 1, "session": "s", "backend": "energy"}'
        stream = b"x" * junk_len + b"\n" + follow_up + b"\n"
        events = []
        for chunk in _chunked(stream, cuts):
            events.extend(assembler.feed(chunk))
        assembler.finish()
        kinds = [kind for kind, _ in events]
        assert kinds == ["oversized", "line"]
        assert events[1][1] == follow_up

    @given(tail_len=st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_unterminated_tail_is_dropped_at_eof(self, tail_len):
        # A mid-line disconnect leaves a partial line: it must die with
        # the connection, never parse as a query.
        assembler = LineAssembler(max_line_bytes=1024)
        events = assembler.feed(b'{"id": 1}\n' + b"y" * tail_len)
        assembler.finish()
        assert [kind for kind, _ in events] == ["line"]
        # after finish() the assembler is clean for reuse
        assert assembler.feed(b"z\n") == [("line", b"z")]

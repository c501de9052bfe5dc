"""Self-tests of the fleet benchmark (generator, oracle, percentile rule, ledger).

    python -m pytest fleetbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from fleet import write_fleet  # noqa: E402
from ledger import self_times, union_length  # noqa: E402
from loadgen import Answers, Stream  # noqa: E402
from oracle import check, reference_service  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402
from workloads import query  # noqa: E402


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_writes_the_same_bytes(tmp_path):
    first = write_fleet(7, tmp_path / "a", sessions=12)
    second = write_fleet(7, tmp_path / "b", sessions=12)
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert len(list((tmp_path / "a" / "corpus").iterdir())) == 12
    other = write_fleet(8, tmp_path / "c", sessions=12)
    assert [s.name for s in other] != [s.name for s in first]


def test_sizes_are_heavy_tailed_within_bounds(tmp_path):
    fleet = write_fleet(3, tmp_path, sessions=40)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [s["name"] for s in manifest["sessions"]] == [s.name for s in fleet]
    ops = sorted(s.ops for s in fleet)
    # Body ops are log-uniform in [40, 800]; the structural quiesce ops ride on top.
    assert ops[0] >= 40 and ops[-1] <= 800 + 12
    assert ops[len(ops) // 2] < (ops[0] + ops[-1]) / 2  # median below midrange


@pytest.fixture(scope="module")
def small_fleet(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    fleet = write_fleet(5, out, sessions=3)
    return fleet, reference_service(out / "corpus", fleet)


def test_oracle_accepts_true_answers_and_catches_one_corrupted_byte(small_fleet):
    fleet, service = small_fleet
    session = fleet[0]
    key, _ = query(session.name, "eandroid", 0.0, round(session.span / 2, 3))
    from workloads import oracle_request

    payload = service.submit(oracle_request(key)).report
    wire = json.dumps(payload)

    honest = Answers()
    honest.note(key, json.loads(wire))
    assert check(service, honest) == (1, [])

    # Flip one digit of one number in the wire bytes.
    digit = next(i for i, ch in enumerate(wire) if ch.isdigit() and ch != "9")
    corrupted = wire[:digit] + str(int(wire[digit]) + 1) + wire[digit + 1:]
    assert corrupted != wire
    lying = Answers()
    lying.note(key, json.loads(corrupted))
    assert check(service, lying) == (1, [key])


def test_answers_flag_a_key_whose_payloads_differ_within_a_run():
    answers = Answers()
    key, other = ("q", "s", "energy", 0.0, 1.0), ("q", "s", "energy", 0.0, 2.0)
    assert answers.note(key, {"total_j": 1.0})
    assert answers.note(key, {"total_j": 1.0})
    assert not answers.note(key, {"total_j": 1.5})
    # 1 == 1.0 in Python, but not byte for byte.
    assert answers.note(other, {"total_j": 1.0})
    assert not answers.note(other, {"total_j": 1})
    assert answers.diverged == {key, other}


def test_one_timed_out_request_fails_the_run():
    from run import Phase, passed

    def phase(closed: Stream) -> Phase:
        return Phase(start=0.0, end=1.0, warmup=Stream("warmup"), closed=closed, open=Stream("open"), open_rate=0.0)

    assert passed([], [phase(Stream("closed", sent=5, ok=5))])
    assert not passed([], [phase(Stream("closed", sent=5, ok=4, timeouts=1))])
    assert not passed([("q", "s", "energy", 0.0, 1.0)], [phase(Stream("closed", sent=5, ok=5))])


@pytest.mark.parametrize(
    "count, q, supported",
    [(19, 0.5, False), (20, 0.5, True), (99, 0.9, False), (100, 0.9, True), (999, 0.99, False), (1000, 0.99, True)],
)
def test_no_percentile_without_ten_samples_beyond_it(count, q, supported):
    samples = [float(i) for i in range(count)]
    if supported:
        value = percentile(samples, q)
        assert sum(1 for s in samples if s > value) >= 10
    else:
        with pytest.raises(TooFewSamples):
            percentile(samples, q)


def test_self_time_subtracts_direct_children_within_a_request():
    spans = [
        ["net.process", 0.0, 10.0, 1, 100, None],
        ["net.dispatch", 1.0, 8.0, 1, 200, None],  # other thread, same request
        ["serve.submit", 3.0, 7.0, 1, 200, None],
        ["offline.describe.energy", 4.0, 6.0, 1, 200, None],
        ["net.process", 2.0, 5.0, 2, 100, None],  # overlaps, but another request
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 3.0]
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0

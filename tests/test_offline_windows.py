"""One-sweep collateral windows == the per-boundary naive recompute.

The offline analyzer derives every host's collateral link windows in one
sweep per report.  The original derivation — rebuild the live link list
by scanning every link at every boundary, then walk reachability for
every host — survives here as :func:`naive_link_windows`, the
differential oracle (the ``PowerTrace.naive_energy_j`` precedent).  The
sweep must match it exactly, dict insertion order included: a host's
target order decides the float summation order of its row's energy.
"""

import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import SCREEN_TARGET, AttackKind, LinkGraph
from repro.offline import DeviceTrace, OfflineAnalyzer
from repro.offline.trace import ChannelTrace, LinkRecord
from repro.reports.request import ReportRequest
from repro.serve.ingest import iter_traces

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def naive_reachable(host: int, live: List) -> Set[int]:
    """Reachability by scanning every live link per visited node."""
    reached: Set[int] = set()
    frontier = [host]
    seen = {host}
    while frontier:
        node = frontier.pop()
        for link in live:
            if link.driving_uid != node:
                continue
            target = link.target
            if target == host or target in reached:
                continue
            reached.add(target)
            if target not in seen and target != SCREEN_TARGET:
                seen.add(target)
                frontier.append(target)
    return reached


def naive_link_windows(
    trace: DeviceTrace, start: float, end: float
) -> Dict[int, Dict[int, List[Tuple[float, float]]]]:
    """host -> target -> windows, resampling the whole link log per boundary."""
    boundaries = sorted(
        {start, end}
        | {l.begin_time for l in trace.links}
        | {l.end_time for l in trace.links if l.end_time is not None}
    )
    boundaries = [b for b in boundaries if start <= b <= end]
    if not boundaries or boundaries[0] > start:
        boundaries.insert(0, start)
    if boundaries[-1] < end:
        boundaries.append(end)
    windows: Dict[int, Dict[int, List[Tuple[float, float]]]] = {}
    hosts = {l.driving_uid for l in trace.links}
    for seg_start, seg_end in zip(boundaries, boundaries[1:]):
        if seg_end <= seg_start:
            continue
        midpoint = (seg_start + seg_end) / 2.0
        live = [
            l
            for l in trace.links
            if l.begin_time <= midpoint
            and (l.end_time is None or l.end_time > midpoint)
        ]
        for host in hosts:
            for target in naive_reachable(host, live):
                target_windows = windows.setdefault(host, {}).setdefault(target, [])
                if target_windows and target_windows[-1][1] == seg_start:
                    target_windows[-1] = (target_windows[-1][0], seg_end)
                else:
                    target_windows.append((seg_start, seg_end))
    return windows


def naive_energy_j(
    analyzer: OfflineAnalyzer,
    owner: Optional[int] = None,
    start: float = 0.0,
    end: Optional[float] = None,
) -> float:
    """Window energy by filtering every channel (no owner index)."""
    window_end = analyzer.trace.captured_at if end is None else end
    return sum(
        channel.energy_j(start, window_end)
        for (channel_owner, _), channel in analyzer._channels.items()
        if owner is None or channel_owner == owner
    )


class NaiveAnalyzer(OfflineAnalyzer):
    """The analyzer with both fast paths swapped for their oracles."""

    def _link_windows(self, start, end):
        return naive_link_windows(self.trace, start, end)

    def energy_j(self, owner=None, start=0.0, end=None):
        return naive_energy_j(self, owner, start, end)


def ordered(windows) -> list:
    """The windows as nested item lists, so ``==`` also checks order."""
    return [(host, list(targets.items())) for host, targets in windows.items()]


def report_bytes(analyzer: OfflineAnalyzer, request: ReportRequest) -> str:
    return json.dumps(analyzer.describe(request).to_dict())


def check_windows_and_reports(trace: DeviceTrace, windows) -> None:
    fast, naive = OfflineAnalyzer(trace), NaiveAnalyzer(trace)
    hosts = sorted({l.driving_uid for l in trace.links})
    for start, end in windows:
        assert ordered(fast._link_windows(start, end)) == ordered(
            naive_link_windows(trace, start, end)
        ), (start, end)
        requests = [
            ReportRequest(backend="eandroid", start=start, end=end),
            ReportRequest(backend="collateral", start=start, end=end),
            ReportRequest(
                backend="collateral", start=start, end=end, owners=tuple(hosts[::2])
            ),
        ]
        for request in requests:
            assert report_bytes(fast, request) == report_bytes(naive, request)
        for host in hosts:
            assert list(fast.collateral_breakdown(host, start, end).items()) == list(
                naive.collateral_breakdown(host, start, end).items()
            )


# ----------------------------------------------------------------------
# corpus traces
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_traces() -> List[DeviceTrace]:
    return [ingested.trace for ingested in iter_traces(CORPUS_DIR)]


def corpus_windows(trace: DeviceTrace) -> List[Tuple[float, float]]:
    cap = trace.captured_at
    link_times = sorted({l.begin_time for l in trace.links})
    middle = link_times[len(link_times) // 2] if link_times else cap / 2
    return [
        (0.0, cap),
        (cap / 3, 2 * cap / 3),
        (middle, cap),  # starts on a link boundary
        (0.0, middle),  # ends on one
        (middle, middle),
        (cap / 2, cap * 1.5),  # past capture
        (cap, cap + 10.0),
    ]


def test_corpus_traces_carry_links(corpus_traces):
    assert len(corpus_traces) >= 3
    assert sum(len(trace.links) for trace in corpus_traces) > 0


def test_sweep_matches_naive_on_corpus(corpus_traces):
    for trace in corpus_traces:
        check_windows_and_reports(trace, corpus_windows(trace))


def test_owner_index_is_bit_identical_on_corpus(corpus_traces):
    for trace in corpus_traces:
        analyzer = OfflineAnalyzer(trace)
        cap = trace.captured_at
        for start, end in ((0.0, None), (cap / 4, cap / 2), (cap / 2, cap / 2)):
            for owner in sorted(analyzer.owners()) + [None]:
                fast = analyzer.energy_j(owner=owner, start=start, end=end)
                assert repr(fast) == repr(
                    naive_energy_j(analyzer, owner, start, end)
                ), (owner, start, end)
            assert analyzer.energy_j(owner=987_654, start=start, end=end) == 0.0


# ----------------------------------------------------------------------
# generated link logs
# ----------------------------------------------------------------------
# uids whose set iteration order depends on insertion order and table
# size (several share a slot mod 8 with each other and with the screen's
# -100), so any reordering of the walk or of a rebuilt set shows up.
UIDS = (10_004, 10_012, 10_022, 10_005, 10_020)
TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0, 5.0, 7.5, 9.0, 12.0])


@st.composite
def link_logs(draw) -> DeviceTrace:
    """Small traces whose link logs mix chains, cycles and the screen.

    Times come from a coarse grid so same-instant begins and ends are
    common; links may stay open at capture; the log order is shuffled
    unless ``sorted`` is drawn, covering both sweep paths.
    """
    captured_at = 10.0
    links = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        begin = draw(TIMES)
        end = draw(st.one_of(st.none(), TIMES.filter(lambda t, b=begin: t >= b)))
        links.append(
            LinkRecord(
                kind=draw(st.sampled_from([k.value for k in AttackKind])),
                driving_uid=draw(st.sampled_from(UIDS)),
                target=draw(st.sampled_from(UIDS + (SCREEN_TARGET,))),
                begin_time=begin,
                end_time=end,
            )
        )
    if draw(st.booleans()):
        links.sort(key=lambda l: l.begin_time)
    # Three channels per owner with awkward draws, so summing an owner's
    # channels in another order changes the last bits.
    channels = [
        ChannelTrace(
            owner=owner,
            component=component,
            breakpoints=[(0.0, scale * (owner % 97 + 1) / 3.0), (3.3, scale / 7.0)],
        )
        for owner in UIDS + (SCREEN_TARGET,)
        for component, scale in (("cpu", 1e3), ("wifi", 0.1), ("gps", 1e-4))
    ]
    return DeviceTrace(
        captured_at=captured_at,
        channels=channels,
        apps={uid: f"app{uid}" for uid in UIDS},
        links=links,
    )


window_pairs = st.lists(st.tuples(TIMES, TIMES), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(link_logs(), window_pairs)
def test_sweep_matches_naive_on_generated_logs(trace, pairs):
    windows = [(min(a, b), max(a, b)) for a, b in pairs]
    windows += [(a, a) for a, _ in pairs[:1]]  # start == end
    windows += [(5.0, 15.0), (0.0, 20.0)]  # past captured_at
    check_windows_and_reports(trace, windows)


def test_open_chain_and_cycle_windows():
    a, b, c = UIDS[:3]
    trace = DeviceTrace(
        captured_at=10.0,
        links=[
            LinkRecord("activity", a, b, 1.0, None),  # open at capture
            LinkRecord("service_bind", b, c, 2.0, 6.0),
            LinkRecord("service_bind", c, a, 3.0, 3.0),  # same-instant
            LinkRecord("activity", c, a, 4.0, 5.0),  # closes the cycle
            LinkRecord("screen", b, SCREEN_TARGET, 5.0, 8.0),
        ],
    )
    windows = OfflineAnalyzer(trace)._link_windows(0.0, 10.0)
    assert ordered(windows) == ordered(naive_link_windows(trace, 0.0, 10.0))
    assert windows[a] == {
        b: [(1.0, 10.0)],
        c: [(2.0, 6.0)],
        SCREEN_TARGET: [(5.0, 8.0)],
    }
    assert windows[c] == {a: [(4.0, 5.0)], b: [(4.0, 5.0)]}


def test_one_link_window_sweep_per_report(monkeypatch):
    a, b, c = UIDS[:3]
    trace = DeviceTrace(
        captured_at=10.0,
        links=[
            LinkRecord("activity", a, b, 1.0, 4.0),
            LinkRecord("activity", b, c, 2.0, None),
            LinkRecord("activity", c, a, 3.0, 6.0),
        ],
    )
    analyzer = OfflineAnalyzer(trace)
    calls = []
    sweep = OfflineAnalyzer._link_windows

    def counted(self, start, end):
        calls.append((start, end))
        return sweep(self, start, end)

    monkeypatch.setattr(OfflineAnalyzer, "_link_windows", counted)
    reports = [
        lambda: analyzer.eandroid_report(),
        lambda: analyzer.collateral_report(),
        lambda: analyzer.collateral_report(hosts=(a, c)),
        lambda: analyzer.describe(ReportRequest(backend="eandroid")),
        lambda: analyzer.describe(ReportRequest(backend="collateral", owners=(b,))),
    ]
    for report in reports:
        calls.clear()
        report()
        assert len(calls) == 1


# ----------------------------------------------------------------------
# the live graph shares the reachability walk
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.sampled_from(UIDS),
            st.sampled_from(UIDS + (SCREEN_TARGET,)),
        ),
        max_size=25,
    )
)
def test_live_graph_matches_naive_reachability(script):
    graph = LinkGraph()
    for step, (begin, driver, target) in enumerate(script):
        live = graph.live_links()
        if begin or not live:
            graph.begin(AttackKind.ACTIVITY, driver, target, float(step))
        else:
            graph.end(live[driver % len(live)], float(step))
        # hosts() is kept up to date, in the order a rebuild would give
        assert list(graph.hosts()) == list(
            {link.driving_uid for link in graph.all_links()}
        )
        for host in graph.hosts():
            assert list(graph.reachable_from(host)) == list(
                naive_reachable(host, graph.live_links())
            )

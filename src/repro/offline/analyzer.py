"""Offline attribution: reconstruct profiler views from a trace.

Given a :class:`~repro.offline.trace.DeviceTrace` — and nothing else —
the analyzer re-derives each profiler's battery view:

* :meth:`OfflineAnalyzer.batterystats_report` — per-app direct energy,
  screen/OS as standalone rows;
* :meth:`OfflineAnalyzer.powertutor_report` — screen redistributed over
  the recorded foreground timeline;
* :meth:`OfflineAnalyzer.eandroid_report` — the baseline plus collateral
  charges integrated over the recorded attack-link windows.

The invariant (tested): for any run, the offline reports equal the
online ones to numerical precision.  That makes traces a complete,
portable record — the "offline analysis" form of the paper's system.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..accounting.base import AppEnergyEntry, ProfilerReport
from ..core.links import SCREEN_TARGET, reachable
from ..power.meter import SCREEN_OWNER, SYSTEM_OWNER
from ..power.trace import PowerTrace
from .trace import DeviceTrace, LinkRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..reports.request import ReportRequest
    from ..reports.view import ProfilerReportView

#: host -> target -> merged charge windows, targets in first-reached order.
LinkWindows = Dict[int, Dict[int, List[Tuple[float, float]]]]


class OfflineAnalyzer:
    """Attribution over a captured trace."""

    def __init__(self, trace: DeviceTrace) -> None:
        self.trace = trace
        self._channels: Dict[Tuple[int, str], PowerTrace] = {}
        for channel in trace.channels:
            power_trace = PowerTrace()
            for t, mw in channel.breakpoints:
                power_trace.append(t, mw)
            self._channels[(channel.owner, channel.component)] = power_trace
        # Each owner's channels in ``_channels`` order, so an owner's
        # energy sums the same terms in the same order as a full scan.
        owner_channels: Dict[int, List[PowerTrace]] = {}
        for (owner, _), power_trace in self._channels.items():
            owner_channels.setdefault(owner, []).append(power_trace)
        self._owner_channels = {o: tuple(c) for o, c in owner_channels.items()}
        # The link log, indexed once for the per-report sweep: its
        # boundary instants, and link positions in begin order (a capture
        # logs links as they begin, so usually just the log order).
        links = trace.links
        self._hosts = {l.driving_uid for l in links}
        self._link_times = sorted(
            {l.begin_time for l in links}
            | {l.end_time for l in links if l.end_time is not None}
        )
        self._begin_order: Sequence[int] = range(len(links))
        if any(a.begin_time > b.begin_time for a, b in zip(links, links[1:])):
            self._begin_order = sorted(
                self._begin_order, key=lambda i: links[i].begin_time
            )

    # ------------------------------------------------------------------
    # primitive energy queries
    # ------------------------------------------------------------------
    def energy_j(
        self,
        owner: Optional[int] = None,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Energy over a window, optionally for one owner."""
        window_end = self.trace.captured_at if end is None else end
        channels = (
            self._channels.values()
            if owner is None
            else self._owner_channels.get(owner, ())
        )
        return sum(channel.energy_j(start, window_end) for channel in channels)

    def owners(self) -> Set[int]:
        """Every owner appearing in the trace."""
        return {owner for owner, _ in self._channels}

    def label_for(self, uid: int) -> str:
        """Display label for a uid from the trace's app table."""
        return self.trace.apps.get(uid, f"uid:{uid}")

    def _foreground_intervals(
        self, uid: int, start: float, end: float
    ) -> List[Tuple[float, float]]:
        changes = self.trace.foreground
        result: List[Tuple[float, float]] = []
        for index, (t, owner) in enumerate(changes):
            seg_start = max(t, start)
            seg_end = changes[index + 1][0] if index + 1 < len(changes) else end
            seg_end = min(seg_end, end)
            if owner == uid and seg_end > seg_start:
                result.append((seg_start, seg_end))
        return result

    # ------------------------------------------------------------------
    # profiler reconstructions
    # ------------------------------------------------------------------
    def batterystats_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The stock-Android view, from the trace alone."""
        window_end = self.trace.captured_at if end is None else end
        report = ProfilerReport(
            profiler="BatteryStats (offline)", start=start, end=window_end
        )
        for owner in self.owners():
            energy = self.energy_j(owner=owner, start=start, end=window_end)
            if energy <= 0:
                continue
            if owner == SCREEN_OWNER:
                entry = AppEnergyEntry(
                    uid=None, label="Screen", energy_j=energy, is_screen=True
                )
            elif owner == SYSTEM_OWNER:
                entry = AppEnergyEntry(
                    uid=None, label="Android OS", energy_j=energy, is_system=True
                )
            else:
                entry = AppEnergyEntry(
                    uid=owner,
                    label=self.label_for(owner),
                    energy_j=energy,
                    is_system=owner in self.trace.system_uids,
                )
            report.entries.append(entry)
        return report.finalize()

    def powertutor_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The PowerTutor view, from the trace alone."""
        window_end = self.trace.captured_at if end is None else end
        report = ProfilerReport(
            profiler="PowerTutor (offline)", start=start, end=window_end
        )
        energies: Dict[int, float] = {}
        system_energy = 0.0
        for owner in self.owners():
            energy = self.energy_j(owner=owner, start=start, end=window_end)
            if energy <= 0:
                continue
            if owner == SYSTEM_OWNER:
                system_energy += energy
            elif owner != SCREEN_OWNER:
                energies[owner] = energies.get(owner, 0.0) + energy
        screen_channel = self._channels.get((SCREEN_OWNER, "screen"))
        unattributed = 0.0
        if screen_channel is not None:
            total_screen = screen_channel.energy_j(start, window_end)
            attributed = 0.0
            for uid in {u for _, u in self.trace.foreground if u is not None}:
                share = sum(
                    screen_channel.energy_j(s, e)
                    for s, e in self._foreground_intervals(uid, start, window_end)
                )
                if share > 0:
                    energies[uid] = energies.get(uid, 0.0) + share
                    attributed += share
            unattributed = max(0.0, total_screen - attributed)
        for uid, energy in energies.items():
            report.entries.append(
                AppEnergyEntry(
                    uid=uid,
                    label=self.label_for(uid),
                    energy_j=energy,
                    is_system=uid in self.trace.system_uids,
                )
            )
        if system_energy > 0:
            report.entries.append(
                AppEnergyEntry(
                    uid=None, label="System", energy_j=system_energy, is_system=True
                )
            )
        if unattributed > 0:
            report.entries.append(
                AppEnergyEntry(
                    uid=None,
                    label="Screen (no foreground)",
                    energy_j=unattributed,
                    is_screen=True,
                )
            )
        return report.finalize()

    # ------------------------------------------------------------------
    # E-Android offline
    # ------------------------------------------------------------------
    def _link_windows(self, start: float, end: float) -> LinkWindows:
        """host -> target -> merged charge windows, from the link log.

        One sweep over the link boundaries in ``[start, end]``: at each
        segment's midpoint, links that have begun join the live set and
        links that have ended leave it; where it changed, every host's
        reachable targets are walked again, and they extend that host's
        windows — the offline equivalent of the live map-set sync.
        """
        times = self._link_times
        boundaries: List[float] = []
        if start < end:
            lo = bisect.bisect_right(times, start)
            hi = bisect.bisect_left(times, end)
            boundaries = [start, *times[lo:hi], end]
        links = self.trace.links
        begin_order = self._begin_order
        next_begin = 0
        live: Dict[int, LinkRecord] = {}
        extending: List[List[Tuple[float, float]]] = []
        stale = True
        windows: LinkWindows = {}
        for seg_start, seg_end in zip(boundaries, boundaries[1:]):
            midpoint = (seg_start + seg_end) / 2.0
            while (
                next_begin < len(begin_order)
                and links[begin_order[next_begin]].begin_time <= midpoint
            ):
                index = begin_order[next_begin]
                next_begin += 1
                link = links[index]
                if link.end_time is None or link.end_time > midpoint:
                    live[index] = link
                    stale = True
            ended = [
                index
                for index, link in live.items()
                if link.end_time is not None and link.end_time <= midpoint
            ]
            for index in ended:
                del live[index]
                stale = True
            if stale:
                # Adjacency in link-log order, as the live graph keeps it.
                adjacency: Dict[int, List[int]] = {}
                for index in sorted(live):
                    link = live[index]
                    adjacency.setdefault(link.driving_uid, []).append(link.target)
                # The window list of every reached (host, target); a first
                # reach inserts the host and the target in walk order.
                extending = []
                for host in self._hosts:
                    if host not in adjacency:
                        continue
                    targets = reachable(host, adjacency)
                    if targets:
                        host_windows = windows.setdefault(host, {})
                        extending += [host_windows.setdefault(t, []) for t in targets]
                stale = False
            for target_windows in extending:
                if target_windows and target_windows[-1][1] == seg_start:
                    target_windows[-1] = (target_windows[-1][0], seg_end)
                else:
                    target_windows.append((seg_start, seg_end))
        return windows

    def _breakdown(
        self, windows: Dict[int, List[Tuple[float, float]]]
    ) -> Dict[int, float]:
        """target -> joules over one host's charge windows (zeros dropped)."""
        breakdown: Dict[int, float] = {}
        for target, intervals in windows.items():
            owner = SCREEN_OWNER if target == SCREEN_TARGET else target
            total = sum(
                self.energy_j(owner=owner, start=s, end=e) for s, e in intervals
            )
            if total > 0:
                breakdown[target] = total
        return breakdown

    def _charge(self, entry: AppEnergyEntry, breakdown: Dict[int, float]) -> None:
        """Superimpose one host's collateral breakdown on its row."""
        for target, joules in breakdown.items():
            label = "Screen" if target == SCREEN_TARGET else self.label_for(target)
            entry.collateral_j[label] = entry.collateral_j.get(label, 0.0) + joules
            entry.energy_j += joules

    def collateral_breakdown(
        self, host: int, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[int, float]:
        """target -> joules charged to ``host``, from the trace alone."""
        window_end = self.trace.captured_at if end is None else end
        return self._breakdown(self._link_windows(start, window_end).get(host, {}))

    def eandroid_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The revised (BatteryStats-based) E-Android view, offline."""
        window_end = self.trace.captured_at if end is None else end
        report = self.batterystats_report(start, window_end)
        report.profiler = "E-Android (offline)"
        windows = self._link_windows(start, window_end)
        for host in sorted(self._hosts):
            breakdown = self._breakdown(windows.get(host, {}))
            if not breakdown:
                continue
            entry = report.entry_for_uid(host)
            if entry is None:
                entry = AppEnergyEntry(
                    uid=host, label=self.label_for(host), energy_j=0.0
                )
                report.entries.append(entry)
            self._charge(entry, breakdown)
        report.entries.sort(key=lambda e: e.energy_j, reverse=True)
        ground_truth = self.energy_j(start=start, end=window_end)
        for entry in report.entries:
            entry.percent = (
                100.0 * entry.energy_j / ground_truth if ground_truth > 0 else 0.0
            )
        return report

    # ------------------------------------------------------------------
    # raw-energy / collateral report forms (for the unified API)
    # ------------------------------------------------------------------
    def energy_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """Ground-truth per-owner energy, as report rows (no policy).

        One row per owner in the trace — Screen and Android OS keep
        their aggregate labels, every app keeps its uid — with no
        redistribution or collateral superimposition at all.
        """
        window_end = self.trace.captured_at if end is None else end
        report = ProfilerReport(
            profiler="Energy (ground truth)", start=start, end=window_end
        )
        for owner in self.owners():
            energy = self.energy_j(owner=owner, start=start, end=window_end)
            if energy <= 0:
                continue
            if owner == SCREEN_OWNER:
                entry = AppEnergyEntry(
                    uid=None, label="Screen", energy_j=energy, is_screen=True
                )
            elif owner == SYSTEM_OWNER:
                entry = AppEnergyEntry(
                    uid=None, label="Android OS", energy_j=energy, is_system=True
                )
            else:
                entry = AppEnergyEntry(
                    uid=owner,
                    label=self.label_for(owner),
                    energy_j=energy,
                    is_system=owner in self.trace.system_uids,
                )
            report.entries.append(entry)
        return report.finalize()

    def collateral_report(
        self,
        start: float = 0.0,
        end: Optional[float] = None,
        hosts: Optional[Tuple[int, ...]] = None,
    ) -> ProfilerReport:
        """Per-host collateral inventories as report rows.

        One row per driving host carrying attack links in the window;
        the row's energy is the collateral total and its
        ``collateral_j`` map is the per-target breakdown.  ``hosts``
        restricts which driving uids are rendered.
        """
        window_end = self.trace.captured_at if end is None else end
        report = ProfilerReport(
            profiler="Collateral (offline)", start=start, end=window_end
        )
        all_hosts = sorted(self._hosts)
        if hosts is not None:
            wanted = set(hosts)
            all_hosts = [h for h in all_hosts if h in wanted]
        windows = self._link_windows(start, window_end)
        for host in all_hosts:
            breakdown = self._breakdown(windows.get(host, {}))
            if not breakdown:
                continue
            entry = AppEnergyEntry(
                uid=host, label=self.label_for(host), energy_j=0.0
            )
            self._charge(entry, breakdown)
            report.entries.append(entry)
        return report.finalize()

    def describe(self, request: "ReportRequest") -> "ProfilerReportView":
        """Answer a typed request — any of the five backends, offline.

        This is the dispatch the serving layer relies on: one analyzer
        (one ingested trace) renders every report surface through the
        unified :class:`~repro.reports.ReportView` protocol.
        """
        from ..reports.request import UnknownBackendError
        from ..reports.view import ProfilerReportView, view_from_report

        start, end = request.start, request.end
        if request.backend == "energy":
            report = self.energy_report(start, end)
        elif request.backend == "batterystats":
            report = self.batterystats_report(start, end)
        elif request.backend == "powertutor":
            report = self.powertutor_report(start, end)
        elif request.backend == "eandroid":
            report = self.eandroid_report(start, end)
        elif request.backend == "collateral":
            report = self.collateral_report(start, end, hosts=request.owners)
            return ProfilerReportView(backend="collateral", report=report)
        else:  # pragma: no cover - ReportRequest already validates
            raise UnknownBackendError(request.backend)
        return view_from_report(report, request.backend, request)

"""Collateral energy maps.

"E-Android maintains a collateral energy map for fine grained collateral
energy accounting" (§I): for each app, a map whose elements are the
apps/screen currently (or previously) charged to it, each with the exact
time windows during which the charge accrues.

The map layer is deliberately dumb about *why* windows open and close —
that is the link graph's job.  :class:`CollateralMapSet.sync` diffs the
reachability of every host against the currently-open elements and
opens/closes windows accordingly, which realises Algorithm 1's
``AddElement`` / attack-state updates including chain propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .links import LinkGraph, reachable


@dataclass
class ElementWindow:
    """Charge windows for one (host, target) map element."""

    target: int
    closed: List[Tuple[float, float]] = field(default_factory=list)
    open_since: Optional[float] = None
    #: Monotonic change counter (bumped on open/close); keys the
    #: accounting layer's per-element charge memoization.
    version: int = 0

    @property
    def is_open(self) -> bool:
        """Whether the element is currently accruing charge."""
        return self.open_since is not None

    def open(self, time: float) -> bool:
        """Start accruing (no-op while already open)."""
        if self.open_since is None:
            self.open_since = time
            self.version += 1
            return True
        return False

    def close(self, time: float) -> bool:
        """Stop accruing; the window is archived."""
        if self.open_since is not None:
            if time > self.open_since:
                self.closed.append((self.open_since, time))
            self.open_since = None
            self.version += 1
            return True
        return False

    def intervals(self, until: float) -> List[Tuple[float, float]]:
        """All windows, the open one truncated at ``until``."""
        result = list(self.closed)
        if self.open_since is not None and until > self.open_since:
            result.append((self.open_since, until))
        return result

    def total_duration(self, until: float) -> float:
        """Summed window length."""
        return sum(end - start for start, end in self.intervals(until))

    def clipped_intervals(
        self, start: float, end: float
    ) -> List[Tuple[float, float]]:
        """Windows intersected with [start, end)."""
        clipped = []
        for seg_start, seg_end in self.intervals(end):
            lo, hi = max(seg_start, start), min(seg_end, end)
            if hi > lo:
                clipped.append((lo, hi))
        return clipped


class CollateralEnergyMap:
    """One app's map: target -> charge windows."""

    def __init__(self, host_uid: int) -> None:
        self.host_uid = host_uid
        self._elements: Dict[int, ElementWindow] = {}

    def element(self, target: int) -> ElementWindow:
        """The window record for a target (created on demand)."""
        window = self._elements.get(target)
        if window is None:
            window = ElementWindow(target=target)
            self._elements[target] = window
        return window

    def open_targets(self) -> Set[int]:
        """Targets currently accruing charge."""
        return {t for t, w in self._elements.items() if w.is_open}

    def all_targets(self) -> Set[int]:
        """Every target that ever appeared in the map."""
        return set(self._elements)

    def items(self) -> Iterable[Tuple[int, ElementWindow]]:
        """(target, window) pairs."""
        return self._elements.items()

    def __contains__(self, target: int) -> bool:
        return target in self._elements

    def __len__(self) -> int:
        return len(self._elements)


class CollateralMapSet:
    """All apps' collateral energy maps, kept in lockstep with the links."""

    def __init__(self) -> None:
        self._maps: Dict[int, CollateralEnergyMap] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter of window open/close events across all maps.

        Keys the E-Android interface's report cache: an unchanged
        version (plus an unchanged meter epoch) means every collateral
        charge is bit-identical to the previous snapshot of the window.
        """
        return self._version

    def map_for(self, host_uid: int) -> CollateralEnergyMap:
        """The map of one host (created on demand)."""
        existing = self._maps.get(host_uid)
        if existing is None:
            existing = CollateralEnergyMap(host_uid)
            self._maps[host_uid] = existing
        return existing

    def hosts(self) -> Set[int]:
        """Every uid that has (or had) a non-empty map."""
        return {uid for uid, m in self._maps.items() if len(m)}

    def maps_containing(self, target: int) -> List[CollateralEnergyMap]:
        """Maps whose *open* elements include ``target`` (Algorithm 1's Mp)."""
        return [
            m for m in self._maps.values() if target in m.open_targets()
        ]

    def sync(self, now: float, graph: LinkGraph) -> None:
        """Diff reachability against open elements for every host.

        For each host: targets newly reachable over live links open a
        window; open targets no longer reachable close theirs.  Running
        this after every link begin/end implements Algorithm 1 — the
        parent-map additions (lines 8-10) and the service back-
        propagation (lines 11-15) are both just reachability.
        """
        adjacency = graph.live_adjacency()
        for host in graph.hosts():
            host_map = self.map_for(host)
            reach = reachable(host, adjacency)
            open_now = host_map.open_targets()
            for target in reach - open_now:
                if host_map.element(target).open(now):
                    self._version += 1
            for target in open_now - reach:
                if host_map.element(target).close(now):
                    self._version += 1

"""Attack links — live edges in the collateral energy graph.

Each mechanism of Fig. 5 opens an :class:`AttackLink` from a *driving*
app to a *target* (another app's uid, or the screen) when its begin
condition fires and closes it on its end condition.  The set of live
links forms a directed graph; an app's collateral energy map contains
every target *reachable* from it through live links, which is how the
multi-collateral (Fig. 6) and hybrid-chain (Fig. 7) cases fall out of
one rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Set

SCREEN_TARGET = -100
"""Pseudo-target for screen-directed attacks (same id as the meter's
SCREEN_OWNER, so energy lookups are uniform)."""


def reachable(host: int, adjacency: Mapping[int, Sequence[int]]) -> Set[int]:
    """Targets transitively reachable from ``host`` over live links.

    This is the membership rule of Algorithm 1: the host's map contains
    every driven app/screen its live attack chain reaches (excluding the
    host itself, so cycles don't self-charge; the screen is a sink).
    ``adjacency`` maps each driving uid to the targets of its live
    links, in link order — the live graph (:meth:`LinkGraph.reachable_from`)
    and the offline analyzer's link-log sweep both walk it here.
    """
    reached: Set[int] = set()
    frontier = [host]
    while frontier:
        for target in adjacency.get(frontier.pop(), ()):
            if target == host or target in reached:
                continue
            reached.add(target)
            if target != SCREEN_TARGET:
                frontier.append(target)
    return reached


class AttackKind(Enum):
    """The five attack-lifecycle machines of Fig. 5."""

    ACTIVITY = "activity"              # Fig. 5a — started by another app
    INTERRUPT = "interrupt"            # Fig. 5b — forced to background
    SERVICE_START = "service_start"    # Fig. 5c — startService
    SERVICE_BIND = "service_bind"      # Fig. 5c — bindService
    SCREEN = "screen"                  # Fig. 5d — brightness manipulation
    WAKELOCK = "wakelock"              # Fig. 5e — screen wakelock misuse


@dataclass
class AttackLink:
    """One live (or ended) collateral attack edge."""

    link_id: int
    kind: AttackKind
    driving_uid: int
    target: int  # uid, or SCREEN_TARGET
    begin_time: float
    end_time: Optional[float] = None
    detail: str = ""

    @property
    def alive(self) -> bool:
        """Whether the end condition has not fired yet."""
        return self.end_time is None

    def duration(self, now: float) -> float:
        """Length of the attack window so far."""
        end = now if self.end_time is None else self.end_time
        return max(0.0, end - self.begin_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "SCREEN" if self.target == SCREEN_TARGET else f"uid:{self.target}"
        state = "alive" if self.alive else f"ended@{self.end_time:.1f}"
        return (
            f"AttackLink(#{self.link_id} {self.kind.value} "
            f"uid:{self.driving_uid} -> {target}, {state})"
        )


class LinkGraph:
    """The set of all attack links, live and ended."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._links: List[AttackLink] = []
        self._live: Dict[int, AttackLink] = {}
        self._hosts: Set[int] = set()

    def begin(
        self,
        kind: AttackKind,
        driving_uid: int,
        target: int,
        time: float,
        detail: str = "",
    ) -> AttackLink:
        """Open a new attack link."""
        link = AttackLink(
            link_id=next(self._ids),
            kind=kind,
            driving_uid=driving_uid,
            target=target,
            begin_time=time,
            detail=detail,
        )
        self._links.append(link)
        self._live[link.link_id] = link
        self._hosts.add(driving_uid)
        return link

    def end(self, link: AttackLink, time: float) -> None:
        """Close a link (idempotent for already-ended links)."""
        if link.alive:
            link.end_time = time
            self._live.pop(link.link_id, None)

    def live_links(self) -> List[AttackLink]:
        """All currently live links."""
        return list(self._live.values())

    def all_links(self) -> List[AttackLink]:
        """Every link ever opened."""
        return list(self._links)

    def live_from(self, driving_uid: int) -> List[AttackLink]:
        """Live links driven by one uid."""
        return [l for l in self._live.values() if l.driving_uid == driving_uid]

    def live_targeting(self, target: int) -> List[AttackLink]:
        """Live links pointing at one target."""
        return [l for l in self._live.values() if l.target == target]

    def hosts(self) -> AbstractSet[int]:
        """Every uid that has ever driven a link (a live view: don't mutate)."""
        return self._hosts

    def live_adjacency(self) -> Dict[int, List[int]]:
        """driving uid -> targets of its live links, in link order."""
        adjacency: Dict[int, List[int]] = {}
        for link in self._live.values():
            adjacency.setdefault(link.driving_uid, []).append(link.target)
        return adjacency

    def reachable_from(self, host: int) -> Set[int]:
        """Targets transitively reachable from ``host`` over live links."""
        return reachable(host, self.live_adjacency())

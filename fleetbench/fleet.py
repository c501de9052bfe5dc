"""Deterministic fleet generator: one seed -> 200 corpus entries.

Each session is a ``repro-check-corpus`` entry whose scenario comes
from :func:`repro.check.generator.generate_scenario`.  Session sizes are
heavy-tailed: body ops are log-uniform between :data:`MIN_OPS` and
:data:`MAX_OPS`, drawn stratified (one draw per equal-probability
stratum, then shuffled) so the fleet's total work barely moves from one
seed to the next while every seed still gets a different fleet.  Each
session has 3-6 packages.

Next to the corpus the generator writes ``manifest.json`` recording each
session's span.  The simulated clock only moves in ``advance`` and
``quiesce`` ops, so the span is the sum of their seconds and is known
without replaying; windows drawn inside it are always valid.  The
server receives only the corpus directory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

FLEET_SESSIONS = 200
MIN_OPS = 40
MAX_OPS = 800
MIN_PACKAGES = 3
MAX_PACKAGES = 6

#: Windows end this far before a session's span, so float summation
#: order in the simulator can never push a window past the trace's end.
SPAN_MARGIN_S = 0.01


@dataclass(frozen=True)
class Session:
    """One generated session: its served name and its valid span."""

    name: str
    span: float
    ops: int
    packages: int


def plan(seed: int, sessions: int = FLEET_SESSIONS) -> List[Dict[str, int]]:
    """The fleet's shape for ``seed``: scenario seed, ops and packages."""
    rng = random.Random(seed)
    low, high = math.log(MIN_OPS), math.log(MAX_OPS)
    sizes = [
        int(round(math.exp(low + (high - low) * (i + rng.random()) / sessions)))
        for i in range(sessions)
    ]
    rng.shuffle(sizes)
    seeds: List[int] = []
    taken = set()
    while len(seeds) < sessions:
        candidate = rng.getrandbits(31)
        if candidate not in taken:
            taken.add(candidate)
            seeds.append(candidate)
    return [
        {
            "seed": scenario_seed,
            "ops": ops,
            "packages": rng.randint(MIN_PACKAGES, MAX_PACKAGES),
        }
        for scenario_seed, ops in zip(seeds, sizes)
    ]


def write_fleet(seed: int, out_dir: Path, sessions: int = FLEET_SESSIONS) -> List[Session]:
    """Write the corpus under ``out_dir/corpus`` plus ``out_dir/manifest.json``.

    The same seed writes the same bytes.  Returns the sessions in
    served-name order.
    """
    from repro.check.campaign import write_corpus_entry
    from repro.check.generator import generate_scenario

    corpus = out_dir / "corpus"
    fleet: List[Session] = []
    for shape in plan(seed, sessions):
        scenario = generate_scenario(
            shape["seed"], ops=shape["ops"], packages=shape["packages"]
        )
        entry = write_corpus_entry(
            corpus,
            scenario,
            oracles=["fleet"],
            violations=[],
            original_ops=len(scenario.ops),
        )
        span = sum(
            float(op.args.get("seconds", 0.0))
            for op in scenario.ops
            if op.kind in ("advance", "quiesce")
        )
        fleet.append(
            Session(
                name=entry.path.stem,
                span=span,
                ops=len(scenario.ops),
                packages=len(scenario.packages),
            )
        )
    fleet.sort(key=lambda s: s.name)
    manifest = {
        "seed": seed,
        "sessions": [
            {"name": s.name, "span": s.span, "ops": s.ops, "packages": s.packages}
            for s in fleet
        ],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return fleet

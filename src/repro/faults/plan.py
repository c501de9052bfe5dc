"""Typed fault plans — what to break, where, and how often.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
naming an injection *site pattern* (``fnmatch`` glob over the site
labels threaded through store/exec/serve — ``store.read``,
``exec.dispatch``, ``serve.*`` …), a fault *kind*, and a probability.
Plans are plain JSON documents so a failing chaos finding can be
checked into the corpus and replayed bit-for-bit:

.. code-block:: json

    {
      "schema": 1,
      "kind": "repro-fault-plan",
      "specs": [
        {"site": "store.read", "kind": "corrupt", "probability": 0.05},
        {"site": "exec.dispatch", "kind": "crash", "probability": 0.05}
      ]
    }

Fault kinds (the columns of the degradation matrix in
``docs/TESTING.md``):

========== ==========================================================
kind        effect at the site
========== ==========================================================
io-error    raise :class:`~repro.faults.plane.InjectedIOError`
            (an ``OSError``) — transient by construction, so retry
            policies can recover
torn-write  truncate the bytes of a *non-durable* write at a random
            offset (a durable/fsync'd write cannot tear)
latency     sleep ``delay_ms`` host-milliseconds (± jitter)
crash       raise :class:`~repro.faults.plane.InjectedWorkerCrash`
            — models a worker process dying mid-job
corrupt     flip one byte of the data flowing through a read site
========== ==========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

PLAN_SCHEMA = 1
PLAN_KIND = "repro-fault-plan"

#: The recognised fault kinds, in degradation-matrix order.
FAULT_KINDS = ("io-error", "torn-write", "latency", "crash", "corrupt")

#: The canonical injection-site labels threaded through the codebase.
#: Plans may target any subset (or glob patterns over them).
KNOWN_SITES = (
    "store.read",       # ArtifactStore.get_bytes
    "store.write",      # ArtifactStore._atomic_write (blob/manifest/ref)
    "store.fsync",      # the durable-write fsync path
    "exec.spawn",       # ProcessPoolExecutor creation
    "exec.dispatch",    # worker entry (_execute_job)
    "exec.result",      # result return to the parent
    "serve.parse",      # trace/corpus document parse during ingest
    "serve.spill",      # SessionRecord.spill to the store
    "serve.restore",    # spilled-session fault-in on first query
    "serve.query",      # in-process query answer path
    "aggregate.dispatch",  # in-process per-session partial compute
    "aggregate.merge",     # gather-step partial merge
    "net.accept",       # TCP front-end connection admission
    "net.read",         # socket read path (request bytes)
    "net.write",        # socket write path (response lines)
    "net.latency",      # query dispatch delay (drives the deadline path)
)


class FaultPlanError(ValueError):
    """A fault plan document is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: a site pattern, a kind, and a firing probability."""

    site: str
    kind: str
    probability: float
    max_injections: Optional[int] = None
    delay_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability {self.probability!r} outside [0, 1]"
            )
        if self.max_injections is not None and self.max_injections < 0:
            raise FaultPlanError(
                f"max_injections {self.max_injections!r} must be >= 0"
            )
        if self.delay_ms < 0:
            raise FaultPlanError(f"delay_ms {self.delay_ms!r} must be >= 0")
        if not self.site:
            raise FaultPlanError("site pattern must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        out: Dict[str, Any] = {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
        }
        if self.max_injections is not None:
            out["max_injections"] = self.max_injections
        if self.kind == "latency":
            out["delay_ms"] = self.delay_ms
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Rebuild from :meth:`to_dict` data (validating as it goes)."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be a JSON object, got {data!r}")
        try:
            return cls(
                site=str(data["site"]),
                kind=str(data["kind"]),
                probability=float(data["probability"]),
                max_injections=(
                    None
                    if data.get("max_injections") is None
                    else int(data["max_injections"])
                ),
                delay_ms=float(data.get("delay_ms", 2.0)),
            )
        except KeyError as exc:
            raise FaultPlanError(f"fault spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, FaultPlanError):
                raise
            raise FaultPlanError(f"malformed fault spec: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered list of fault specs (order is part of determinism)."""

    specs: Sequence[FaultSpec] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON plan document."""
        return {
            "schema": PLAN_SCHEMA,
            "kind": PLAN_KIND,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The plan as canonical JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Parse and validate one plan document."""
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        if data.get("kind") != PLAN_KIND:
            raise FaultPlanError(
                f"document is not a {PLAN_KIND!r} (kind={data.get('kind')!r})"
            )
        if data.get("schema") != PLAN_SCHEMA:
            raise FaultPlanError(
                f"unsupported plan schema {data.get('schema')!r} "
                f"(expected {PLAN_SCHEMA})"
            )
        specs = data.get("specs")
        if not isinstance(specs, list):
            raise FaultPlanError("plan 'specs' must be a JSON array")
        return cls(specs=[FaultSpec.from_dict(spec) for spec in specs])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_json(text)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as a JSON document."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def mixed(cls, rate: float = 0.05, delay_ms: float = 2.0) -> "FaultPlan":
        """The standard mixed plan: every fault kind at one rate.

        This is what ``repro check --chaos`` and the soak test use —
        io-errors and byte corruption on store reads, torn and failing
        store writes, worker crashes and latency spikes in the engine,
        parse/spill/restore/query failures in the serving path, and
        dispatch/merge failures in fleet aggregation.
        """
        specs: List[FaultSpec] = [
            FaultSpec(site="store.read", kind="io-error", probability=rate),
            FaultSpec(site="store.read", kind="corrupt", probability=rate),
            FaultSpec(site="store.write", kind="torn-write", probability=rate),
            FaultSpec(site="store.write", kind="io-error", probability=rate),
            FaultSpec(
                site="exec.dispatch",
                kind="latency",
                probability=rate,
                delay_ms=delay_ms,
            ),
            FaultSpec(site="exec.dispatch", kind="crash", probability=rate),
            FaultSpec(site="exec.result", kind="crash", probability=rate),
            FaultSpec(site="serve.parse", kind="io-error", probability=rate),
            FaultSpec(site="serve.spill", kind="io-error", probability=rate),
            FaultSpec(site="serve.restore", kind="io-error", probability=rate),
            FaultSpec(site="serve.query", kind="io-error", probability=rate),
            # Appended (not inserted) so the earlier specs keep their rng
            # streams and existing chaos runs stay bit-reproducible.
            FaultSpec(site="aggregate.dispatch", kind="io-error", probability=rate),
            FaultSpec(site="aggregate.merge", kind="io-error", probability=rate),
        ]
        return cls(specs=specs)

"""The chaos soak: serve a corpus under faults, prove nothing is lost.

One soak run answers the acceptance question of the chaos harness in a
single deterministic pass:

1. a *reference* :class:`~repro.serve.service.ProfilingService` ingests
   the corpus fault-free and answers every (session × backend) query;
2. a *chaos* service — spilling sessions through its own store, with
   lenient ingest — repeats the exact same work under an armed
   :class:`~repro.faults.FaultPlan`;
3. the two are reconciled item by item: every corpus source must end as
   a session or a recorded :class:`~repro.serve.ingest.IngestError`,
   every query must come back exactly once, every ``ok`` answer must be
   **byte-identical** to the fault-free answer, and every non-``ok``
   answer must carry a typed, non-empty error.  Anything else is a
   *silent drop* and fails the soak.

``repro check --chaos`` and ``tests/test_faults_chaos.py`` both drive
this; :func:`replay_chaos_entry` replays one checked-in chaos corpus
document (its recorded seed + fault plan) the same way.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .plan import FaultPlan
from .plane import activate

PathLike = Union[str, Path]

#: Backends each session is queried under during a soak (a spread of
#: the cheap baseline, the superimposing profiler, and the breakdown).
SOAK_BACKENDS = ("energy", "eandroid", "collateral")

#: Suffixes the serving path ingests (mirrors repro.serve.ingest).
_SOURCE_SUFFIXES = (".json", ".jsonl", ".bin", ".rtb")


def canonical_report_bytes(payload: Dict[str, Any]) -> bytes:
    """The byte-identity form of one report payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class SoakResult:
    """Everything one soak run established."""

    seed: int
    plan: Dict[str, Any]
    sources: int
    reference_sessions: int
    chaos_sessions: int
    ingest_errors: int
    queries: int
    ok: int
    ok_identical: int
    typed_errors: int
    injected: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no silent drop or divergence was found."""
        return not self.problems

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the manifest chaos section)."""
        return {
            "seed": self.seed,
            "plan": self.plan,
            "sources": self.sources,
            "reference_sessions": self.reference_sessions,
            "chaos_sessions": self.chaos_sessions,
            "ingest_errors": self.ingest_errors,
            "queries": self.queries,
            "ok": self.ok,
            "ok_identical": self.ok_identical,
            "typed_errors": self.typed_errors,
            "injected": dict(self.injected),
            "problems": list(self.problems),
            "passed": self.passed,
        }


def _count_sources(corpus_dir: Path) -> int:
    if corpus_dir.is_file():
        return 1
    return sum(
        1
        for child in corpus_dir.iterdir()
        if child.is_file() and child.suffix in _SOURCE_SUFFIXES
    )


def _reference_answers(corpus: Path, backends: Sequence[str], tmp: Path, problems):
    """Fault-free pass: (requests, expected-bytes-by-id, session names)."""
    from ..reports.request import ReportRequest
    from ..serve.protocol import STATUS_OK, QueryRequest
    from ..serve.service import ProfilingService, ServiceConfig

    reference = ProfilingService(
        ServiceConfig(telemetry=False, store_dir=str(tmp / "ref"))
    )
    ref_names = reference.ingest(corpus)
    requests = [
        # Session names sort so query ids are stable run to run; ids
        # start at 1 because the TCP front-end's connection-refusal
        # lines carry id 0 and must never match a real query.
        QueryRequest(id=qid, session=session, report=ReportRequest(backend=backend))
        for qid, (session, backend) in enumerate(
            ((s, b) for s in sorted(ref_names) for b in backends), start=1
        )
    ]
    expected: Dict[int, bytes] = {}
    for request in requests:
        response = reference.submit(request)
        if response.status != STATUS_OK or response.report is None:
            problems.append(
                f"reference query {request.id} ({request.session}/"
                f"{request.report.backend}) failed fault-free: {response.error}"
            )
        else:
            expected[request.id] = canonical_report_bytes(response.report)
    return requests, expected, ref_names


def _reconcile_responses(requests, responses, expected, problems):
    """Item-by-item reconciliation; returns (ok, ok_identical, typed_errors).

    The invariants (same for every transport): every query answered
    exactly once, ``ok`` answers byte-identical to the fault-free run,
    non-``ok`` answers carrying a typed, non-empty error.
    """
    from ..serve.protocol import STATUS_OK

    if len(responses) != len(requests):
        problems.append(
            f"{len(requests)} queries submitted, {len(responses)} answered"
        )
    ok = ok_identical = typed_errors = 0
    for request, response in zip(requests, responses):
        label = f"query {request.id} ({request.session}/{request.report.backend})"
        if response.id != request.id:
            problems.append(f"{label} answered with id {response.id}")
        if response.status == STATUS_OK:
            ok += 1
            if response.report is None:
                problems.append(f"{label} ok without a report payload")
            elif canonical_report_bytes(response.report) != expected.get(request.id):
                problems.append(f"{label} diverged from the fault-free report")
            else:
                ok_identical += 1
        elif response.error:
            typed_errors += 1
        else:
            problems.append(
                f"{label} degraded without a typed error "
                f"(status {response.status!r})"
            )
    return ok, ok_identical, typed_errors


def run_soak(
    corpus_dir: PathLike,
    seed: int,
    plan: Optional[FaultPlan] = None,
    backends: Sequence[str] = SOAK_BACKENDS,
) -> SoakResult:
    """One full reference-vs-chaos pass over ``corpus_dir``."""
    from ..serve.service import ProfilingService, ServiceConfig

    plan = plan if plan is not None else FaultPlan.mixed(0.05)
    corpus = Path(corpus_dir)
    sources = _count_sources(corpus)
    problems: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        requests, expected, ref_names = _reference_answers(
            corpus, backends, Path(tmp), problems
        )

        # --- the same work under faults -------------------------------
        chaos = ProfilingService(
            ServiceConfig(
                telemetry=False,
                store_dir=str(Path(tmp) / "chaos"),
                spill=True,
            )
        )
        with activate(plan, seed) as plane:
            chaos_names = chaos.ingest(corpus, strict=False)
            responses = [chaos.submit(request) for request in requests]
            injected = dict(plane.summary()["injected"])

        # --- reconciliation: nothing silently dropped ------------------
        if len(chaos_names) + len(chaos.ingest_errors) != sources:
            problems.append(
                f"ingest accounting broken: {sources} source(s) but "
                f"{len(chaos_names)} session(s) + "
                f"{len(chaos.ingest_errors)} error record(s)"
            )
        ok, ok_identical, typed_errors = _reconcile_responses(
            requests, responses, expected, problems
        )
        received = chaos.stats.received
        settled = chaos.stats.answered + chaos.stats.errors + chaos.stats.shed
        if received != settled:
            problems.append(
                f"service accounting broken: received {received} != "
                f"answered+errors+shed {settled}"
            )

    return SoakResult(
        seed=int(seed),
        plan=plan.to_dict(),
        sources=sources,
        reference_sessions=len(ref_names),
        chaos_sessions=len(chaos_names),
        ingest_errors=len(chaos.ingest_errors),
        queries=len(requests),
        ok=ok,
        ok_identical=ok_identical,
        typed_errors=typed_errors,
        injected=injected,
        problems=problems,
    )


def run_net_soak(
    corpus_dir: PathLike,
    seed: int,
    plan: Optional[FaultPlan] = None,
    backends: Sequence[str] = SOAK_BACKENDS,
    deadline_s: float = 0.25,
) -> SoakResult:
    """A soak pass where the chaos phase is served **over TCP**.

    Same contract as :func:`run_soak`, but the chaos service sits behind
    a :class:`~repro.serve.net.NetServer` with ``net.*`` fault sites
    armed, and queries travel through an
    :class:`~repro.serve.net.AsyncServiceClient`.  Injected transport
    latency beyond ``deadline_s`` must surface as a typed deadline
    ``error`` naming the query; injected accept/read/write failures must
    kill at most the one connection (the client reconnects and resubmits)
    — a query that never comes back is recorded as a client-side typed
    error, never silently dropped.  Ingest happens before the plane is
    armed: this soak targets the transport, not the ingest path.
    """
    import asyncio

    from ..serve.service import ProfilingService, ServiceConfig

    if plan is None:
        from .plan import FaultSpec

        # Default: enough injected latency to trip the deadline twice.
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="net.latency",
                    kind="latency",
                    probability=1.0,
                    max_injections=2,
                    delay_ms=max(100.0, 6000.0 * deadline_s),
                )
            ]
        )
    corpus = Path(corpus_dir)
    sources = _count_sources(corpus)
    problems: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-chaos-net-") as tmp:
        requests, expected, ref_names = _reference_answers(
            corpus, backends, Path(tmp), problems
        )

        chaos = ProfilingService(ServiceConfig(telemetry=False))
        chaos_names = chaos.ingest(corpus)
        with activate(plan, seed) as plane:
            responses, net_stats = asyncio.run(
                _serve_over_net(chaos, requests, deadline_s)
            )
            injected = dict(plane.summary()["injected"])

        ok, ok_identical, typed_errors = _reconcile_responses(
            requests, responses, expected, problems
        )
        received = net_stats["received"]
        settled = (
            net_stats["answered"] + net_stats["errors"] + net_stats["shed"]
        )
        if received != settled:
            problems.append(
                f"net accounting broken: received {received} != "
                f"answered+errors+shed {settled}"
            )

    return SoakResult(
        seed=int(seed),
        plan=plan.to_dict(),
        sources=sources,
        reference_sessions=len(ref_names),
        chaos_sessions=len(chaos_names),
        ingest_errors=len(chaos.ingest_errors),
        queries=len(requests),
        ok=ok,
        ok_identical=ok_identical,
        typed_errors=typed_errors,
        injected=injected,
        problems=problems,
    )


async def _serve_over_net(service, requests, deadline_s: float, attempts: int = 4):
    """Drive ``requests`` sequentially through a chaos-armed NetServer.

    Sequential on purpose: with one query in flight at a time, fault
    injections land in a deterministic order for a given (plan, seed),
    which is what lets a checked-in chaos corpus entry replay its
    net-latency → deadline finding bit-for-bit.
    """
    import asyncio

    from ..serve.net import AsyncServiceClient, NetConfig, NetServer
    from ..serve.protocol import STATUS_ERROR, QueryResponse

    server = NetServer(service, NetConfig(deadline_s=deadline_s))
    await server.start()
    host, port = server.address
    client: Optional[AsyncServiceClient] = None
    responses: List[QueryResponse] = []
    # Generous wall-clock cap per attempt: the server answers deadline
    # misses in ~deadline_s, so only a torn/killed connection trips this.
    attempt_timeout = max(5.0, 8 * deadline_s)
    try:
        for request in requests:
            response: Optional[QueryResponse] = None
            for _ in range(attempts):
                if client is None:
                    try:
                        client = AsyncServiceClient(host, port)
                        await client.connect()
                    except (ConnectionError, OSError):
                        client = None
                        await asyncio.sleep(0.01)
                        continue
                try:
                    response = await asyncio.wait_for(
                        client.submit(request), timeout=attempt_timeout
                    )
                    break
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    # The fault plane killed this connection: hang up
                    # and resubmit on a fresh one.
                    try:
                        await client.close()
                    except Exception:
                        pass
                    client = None
            if response is None:
                responses.append(
                    QueryResponse(
                        id=request.id,
                        session=request.session,
                        status=STATUS_ERROR,
                        error=(
                            f"query {request.id} on session "
                            f"{request.session!r} lost to transport faults "
                            f"after {attempts} attempt(s)"
                        ),
                    )
                )
            else:
                responses.append(response)
        net_stats = server.stats.as_dict()
    finally:
        if client is not None:
            await client.close()
        await server.shutdown()
    return responses, net_stats


def replay_chaos_entry(path: PathLike) -> SoakResult:
    """Replay one chaos corpus document under its recorded plan + seed.

    The document is a normal shrunk-scenario corpus entry carrying a
    ``chaos`` section (``{"seed": N, "fault_plan": {...}}``, written by
    ``repro check --chaos``); the scenario is served reference-vs-chaos
    exactly like a full soak, so the finding replays bit-for-bit.  An
    entry whose plan targets ``net.*`` sites replays through
    :func:`run_net_soak` — over a real TCP server — for the same reason.
    """
    from ..check.campaign import load_corpus_entry

    entry_path = Path(path)
    document = load_corpus_entry(entry_path)
    chaos = document.get("chaos")
    if not isinstance(chaos, dict):
        raise ValueError(f"{entry_path}: corpus entry has no chaos section")
    plan = FaultPlan.from_dict(chaos["fault_plan"])
    seed = int(chaos["seed"])
    with tempfile.TemporaryDirectory(prefix="repro-chaos-entry-") as tmp:
        staged = Path(tmp) / entry_path.name
        staged.write_bytes(entry_path.read_bytes())
        if any(spec.site.startswith("net.") for spec in plan.specs):
            return run_net_soak(staged, seed, plan)
        return run_soak(staged, seed, plan)

"""Correctness oracle: rebuild the fleet in-process and compare every answer.

The reference is a fresh :class:`repro.serve.ProfilingService` with no
store and no result cache, ingesting the same corpus files the server
got.  Every distinct answered key is asked again in-process
(``submit`` for reports, ``run_aggregate`` for aggregates) and the
server's payload must equal the reference byte for byte as canonical
JSON (compared by digest).  Keys whose answers differed between two
responses of the same run fail too.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from fleet import Session
from loadgen import Answers, payload_digest
from workloads import oracle_request


def reference_service(corpus: Path, fleet: List[Session]):
    """The in-process fleet; checks that every recorded span fits its trace."""
    from repro.serve import ProfilingService, ServiceConfig

    service = ProfilingService(ServiceConfig(cache_entries=0, telemetry=False))
    service.ingest(corpus)
    for session in fleet:
        captured = service.sessions[session.name].captured_at
        if session.span > captured + 1e-6:
            raise ValueError(
                f"session {session.name}: generated span {session.span} s "
                f"exceeds the replayed trace's {captured} s"
            )
    return service


def check(service, answers: Answers) -> Tuple[int, List[tuple]]:
    """(keys checked, keys whose payload is wrong)."""
    from repro.aggregate.engine import run_aggregate

    wrong = set(answers.diverged)
    for key, digest in answers.digests.items():
        request = oracle_request(key)
        if key[0] == "q":
            response = service.submit(request)
            reference = response.report if response.ok else None
        else:
            response = run_aggregate(service, request)
            reference = response.payload if response.ok else None
        if reference is None or payload_digest(reference) != digest:
            wrong.add(key)
    return len(answers.digests), sorted(wrong, key=repr)

#!/usr/bin/env python
"""Drive the TCP serving front-end with concurrent clients and diff it
against the in-process batch path.

Starts ``python -m repro serve --batch ... --listen 127.0.0.1:0`` as a
subprocess, scrapes the bound port from its stderr, splits a JSONL
query file round-robin across N concurrent asyncio clients (each
writes its share, half-closes, and reads to EOF), then asserts:

* every query ends ``status: ok`` — zero errors, and every ``shed``
  response is resubmitted (bounded rounds with backoff — the
  protocol's documented caller's move) until it answers;
* the multiset of ``(session, canonical report payload)`` pairs is
  byte-identical to a reference ``responses.jsonl`` produced by the
  in-process ``--queries`` path over the same corpus (ids differ by
  design: the server expands ``"*"`` preserving the original line id,
  the batch client assigns fresh ids — payloads must not);
* every response line is exactly ``json.dumps(json.loads(line)) +
  "\\n"`` — the bytes the server's encoder must write, whether it
  splices a cached report's pre-encoded text or encodes the whole
  response (the query file repeats its keys, so most answers are
  cache hits);
* SIGINT shuts the server down gracefully (exit code 0, final
  ``net stats`` line on stderr).

    python tools/net_smoke.py --batch corpus/ \
        --queries examples/queries.jsonl \
        --reference serve-out/responses.jsonl --clients 8
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import List, Tuple


def canonical_payload(report: dict) -> str:
    """Order-independent identity for one report payload."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def load_reference(path: Path) -> Counter:
    """Multiset of (session, canonical payload) from a responses.jsonl."""
    pairs: Counter = Counter()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("status") != "ok":
            raise SystemExit(f"reference response not ok: {doc}")
        pairs[(doc["session"], canonical_payload(doc["report"]))] += 1
    if not pairs:
        raise SystemExit(f"reference {path} holds no responses")
    return pairs


def start_server(batch: str, timeout_s: float = 120.0):
    """Launch the listening server; return (process, host, port)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--batch",
            batch,
            "--listen",
            "127.0.0.1:0",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + timeout_s
    assert proc.stderr is not None
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("server never reported its listening address")
        line = proc.stderr.readline()
        if not line:
            proc.wait()
            raise SystemExit(f"server exited early with code {proc.returncode}")
        print(f"[server] {line.rstrip()}", file=sys.stderr)
        if line.startswith("listening on "):
            host, _, port_text = line.split()[-1].rpartition(":")
            return proc, host, int(port_text)


async def run_client(
    host: str, port: int, lines: List[str], timeout_s: float
) -> List[dict]:
    """Write one client's share, half-close, read responses to EOF."""
    reader, writer = await asyncio.open_connection(host, port)

    async def read_all() -> List[dict]:
        responses = []
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
            if not raw:
                return responses
            line = raw.decode("utf-8")
            doc = json.loads(line)
            if line != json.dumps(doc) + "\n":
                raise SystemExit(
                    f"response line is not json.dumps bytes: {line[:200]!r}"
                )
            responses.append(doc)

    # Read concurrently with writing: a client that writes its whole
    # share first can deadlock against server write backpressure once
    # both socket buffers fill.
    collector = asyncio.ensure_future(read_all())
    try:
        for line in lines:
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
        writer.write_eof()
        return await collector
    finally:
        if not collector.done():
            collector.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def drive(
    host: str, port: int, query_lines: List[str], clients: int, timeout_s: float
) -> Tuple[List[dict], int]:
    shares: List[List[str]] = [[] for _ in range(clients)]
    for index, line in enumerate(query_lines):
        shares[index % clients].append(line)
    results = await asyncio.gather(
        *(run_client(host, port, share, timeout_s) for share in shares)
    )
    responses = [doc for batch in results for doc in batch]
    return responses, len([s for s in shares if s])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", default="corpus/", help="ingest path")
    parser.add_argument("--queries", default="examples/queries.jsonl")
    parser.add_argument(
        "--reference",
        required=True,
        help="responses.jsonl from the in-process --queries path",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-read timeout (s)"
    )
    args = parser.parse_args(argv)

    # Explicit unique ids so shed responses map back to their query
    # regardless of which client carried the line.
    requests = {}
    for index, line in enumerate(
        Path(args.queries).read_text(encoding="utf-8").splitlines()
    ):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        doc = json.loads(line)
        doc["id"] = len(requests) + 1
        requests[doc["id"]] = doc
    query_lines = [json.dumps(doc) for doc in requests.values()]
    next_id = len(requests) + 1
    reference = load_reference(Path(args.reference))

    ok: List[dict] = []
    proc, host, port = start_server(args.batch)
    try:
        responses, active = asyncio.run(
            drive(host, port, query_lines, args.clients, args.timeout)
        )
        for round_index in range(1, 11):
            shed = [doc for doc in responses if doc.get("status") == "shed"]
            bad = [
                doc
                for doc in responses
                if doc.get("status") not in ("ok", "shed")
            ]
            if bad:
                raise SystemExit(
                    f"{len(bad)} error response(s) over TCP, first: {bad[0]}"
                )
            ok.extend(doc for doc in responses if doc.get("status") == "ok")
            if not shed:
                break
            # Back off, then resubmit each shed query session-specific
            # (the wildcard already expanded server-side).
            time.sleep(0.2 * round_index)
            resubmits = []
            for doc in shed:
                original = requests[doc["id"]]
                retry = dict(original, id=next_id, session=doc["session"])
                requests[next_id] = retry
                next_id += 1
                resubmits.append(json.dumps(retry))
            print(
                f"[smoke] round {round_index}: resubmitting "
                f"{len(resubmits)} shed quer(ies)",
                file=sys.stderr,
            )
            responses, _ = asyncio.run(
                drive(host, port, resubmits, args.clients, args.timeout)
            )
        else:
            raise SystemExit("queries still shed after 10 resubmit rounds")
    finally:
        proc.send_signal(signal.SIGINT)
        stderr_tail = proc.stderr.read() if proc.stderr else ""
        code = proc.wait(timeout=60)
        for line in stderr_tail.splitlines():
            print(f"[server] {line}", file=sys.stderr)

    if code != 0:
        raise SystemExit(f"server exited {code} after SIGINT (expected 0)")
    if "net stats:" not in stderr_tail:
        raise SystemExit("server never printed its final net stats line")

    served: Counter = Counter(
        (doc["session"], canonical_payload(doc["report"])) for doc in ok
    )
    if served != reference:
        missing = reference - served
        extra = served - reference
        raise SystemExit(
            "TCP payloads diverge from the in-process path: "
            f"{sum(missing.values())} missing, {sum(extra.values())} extra; "
            f"first missing: {next(iter(missing), None)}"
        )
    print(
        f"net smoke ok: {len(ok)} response(s) over {active} "
        f"concurrent client(s), payload multiset byte-identical to "
        f"{args.reference}, graceful shutdown exit 0"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

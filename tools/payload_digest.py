#!/usr/bin/env python
"""Pin the served payload bytes of a ``responses.jsonl`` to a digest.

Every ``"latency_us"`` value (the one wall-clock field) is masked to
``0``; the sha256 of the remaining bytes must equal the digest recorded
in ``--expect`` for the running Python's ``major.minor``.  Any analyzer
change that moves a single payload byte — an energy's last bit, a row's
order — changes the digest.  Digests are kept per Python version because
``sum()`` over floats is compensated from Python 3.12 on, so 3.11 serves
different last bits.

    python tools/payload_digest.py serve-out/responses.jsonl \\
        --expect examples/queries.responses.sha256

``--write`` records the running version's digest instead (only when a
payload change is intended; say so in the change log).
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path
from typing import Dict

LATENCY = re.compile(rb'"latency_us": [-+0-9.eE]+')


def masked_digest(path: Path) -> str:
    """sha256 of the file with every latency masked to 0."""
    masked = LATENCY.sub(b'"latency_us": 0', path.read_bytes())
    return hashlib.sha256(masked).hexdigest()


def read_digests(path: Path) -> Dict[str, str]:
    """``major.minor -> digest`` from ``<version> <sha256>`` lines."""
    if not path.exists():
        return {}
    pairs = (line.split() for line in path.read_text().splitlines())
    return {fields[0]: fields[1] for fields in pairs if len(fields) == 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("responses", type=Path)
    parser.add_argument("--expect", type=Path, required=True)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    digest = masked_digest(args.responses)
    digests = read_digests(args.expect)
    if args.write:
        digests[version] = digest
        args.expect.write_text(
            "".join(f"{v} {d}\n" for v, d in sorted(digests.items()))
        )
        print(f"recorded {version} {digest} in {args.expect}")
        return 0
    expected = digests.get(version)
    if expected is None:
        print(
            f"no digest recorded for Python {version} in {args.expect}",
            file=sys.stderr,
        )
        return 2
    if digest != expected:
        print(
            f"payload digest {digest} != {expected} (Python {version}, "
            f"{args.expect}): a served payload byte changed",
            file=sys.stderr,
        )
        return 1
    print(f"payload digest ok (Python {version}): {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

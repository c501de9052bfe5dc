"""Percentiles under the benchmark's sample rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; otherwise the run cannot support it and
:class:`TooFewSamples` is raised.  Percentiles use the nearest-rank
definition, so every reported value is a measured sample.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (``0 < q < 1``) of ``samples``.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q!r}")
    count = len(samples)
    if count == 0 or beyond(count, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} sample(s) give {max(0, beyond(count, q)) if count else 0}"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * count)) - 1]


def percentile_or_zero(samples: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0.0 when the sample cannot support it.

    For per-layer figures only; end-to-end percentiles must use
    :func:`percentile` so an unsupported value rejects the run.
    """
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return 0.0

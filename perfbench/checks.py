"""Percentile and output checks shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, NamedTuple, Sequence

#: A reported percentile needs at least this many samples above it.
MIN_TAIL_SAMPLES = 10

#: ``SimulationResult.to_dict()`` keys that hold host time, not outcome.
HOST_TIME_KEYS = frozenset({"wall_clock"})


class Percentile(NamedTuple):
    """A nearest-rank percentile with the sample count behind it."""

    q: float
    value: float
    samples: int
    beyond: int


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have a tail."""


def tail_percentile(samples: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises:
        TooFewSamples: When fewer than :data:`MIN_TAIL_SAMPLES` samples
            lie above the percentile's rank.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return Percentile(q, sorted(samples)[rank - 1], n, beyond)


def result_differences(left: Dict[str, Any], right: Dict[str, Any]) -> List[str]:
    """Keys on which two ``SimulationResult.to_dict()`` payloads differ.

    Host-time keys are ignored: the rest is simulated outcome, which a
    run must reproduce exactly.
    """
    keys = (set(left) | set(right)) - HOST_TIME_KEYS
    return sorted(key for key in keys if left.get(key) != right.get(key))


def fingerprint(payload: Dict[str, Any]) -> Dict[str, str]:
    """A digest per key of a ``SimulationResult.to_dict()`` payload.

    Comparing fingerprints with :func:`result_differences` finds the
    same differing keys as comparing the payloads, without keeping
    whole results in memory, where they would inflate the peak RSS the
    benchmark reports.
    """
    return {
        key: hashlib.sha256(
            json.dumps(value, sort_keys=True).encode("utf-8")
        ).hexdigest()
        for key, value in payload.items()
        if key not in HOST_TIME_KEYS
    }

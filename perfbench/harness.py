"""Measurement primitives: percentiles, run-to-run spread, operation
accounting and the closed loop.

Nothing here imports hybridseq, so the rules can be tested on their own.
The error type that counts as a failed operation is handed to `Ops` by the
caller.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that it describes one or two outliers, not a tail.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation."""
    if len(samples) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def min_samples_for(q: float) -> int:
    """Smallest sample count whose q-th percentile has MIN_TAIL_SAMPLES
    samples beyond it (100 for p90)."""
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q))


def tail_valid(n: int, q: float) -> bool:
    return n >= min_samples_for(q)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of `statistics.quantiles`."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Ops:
    """Attempted and failed operations; a failure never aborts the run.

    An operation fails when it raises `error_type` or when its output check
    returns False.  Latency samples an operation records are kept only when
    it succeeds, so every reported latency belongs to a correct result.
    """

    def __init__(self, error_type: type[BaseException]):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, op, samples: dict[str, list] | None = None) -> bool:
        """Run `op(pending)`; it appends its latencies to `pending[name]`
        and returns whether its output checks passed."""
        self.attempted += 1
        pending: dict[str, list] = {}
        try:
            ok = bool(op(pending))
        except self.error_type as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: output check failed")
            return False
        if samples is not None:
            for name, vals in pending.items():
                samples.setdefault(name, []).extend(vals)
        return True

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def closed_loop(cycle, seconds: float, enough=lambda: True, cap_seconds: float = 150.0) -> int:
    """One client: call `cycle(i)` until `seconds` have passed and
    `enough()` holds, each cycle starting after the previous one returns.

    Returns the number of cycles.  Raises RuntimeError when `enough()`
    still fails after `cap_seconds`, rather than reporting a percentile
    that has too few samples behind it.
    """
    start = time.perf_counter()
    i = 0
    while True:
        cycle(i)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and enough():
            return i
        if elapsed >= cap_seconds:
            raise RuntimeError(
                f"closed loop ran {elapsed:.0f} s without collecting enough samples"
            )

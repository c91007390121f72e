"""Small shared helpers: deterministic summation, thread caps, float formatting."""

from __future__ import annotations

import math
import os

import numpy as np

# Cap used by the experiment sweeps; 0 or unset means "decide automatically".
THREADS_ENV_VAR = "CALORIC_THREADS"


def det_sum(values) -> float:
    """Correctly rounded sum of an array, independent of evaluation order.

    Uses Shewchuk's error-free accumulation (``math.fsum``), so repeated
    calls on identical inputs are bit-identical and parallel producers can
    hand results to this single fixed reduction.
    """
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.ravel(order="C").tolist())


def thread_cap() -> int:
    """Worker cap from CALORIC_THREADS; 0 or unset picks min(4, cpu count).

    Raises ValueError naming the variable for anything but a non-negative
    integer, so a bad value is a config error rather than a run failure.
    """
    cap_txt = os.environ.get(THREADS_ENV_VAR, "").strip()
    try:
        cap = int(cap_txt) if cap_txt else 0
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(
            f"{THREADS_ENV_VAR} must be a non-negative integer (0 = automatic), got {cap_txt!r}")
    return cap or min(4, os.cpu_count() or 1)


def worker_count(n_tasks: int) -> int:
    """Number of workers for an experiment sweep, capped by CALORIC_THREADS."""
    return max(1, min(thread_cap(), n_tasks))


def fmt_float(x: float) -> str:
    """Stable shortest-round-trip formatting for CSV output."""
    return format(float(x), ".17g")


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept; returns (slope, intercept, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a line fit")
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sstot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if sstot == 0.0 else 1.0 - float((resid**2).sum()) / sstot
    return slope, intercept, r2

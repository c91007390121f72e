"""Small shared helpers: exact summation, thread caps, float formatting."""

from __future__ import annotations

import math
import os

import numpy as np

# Cap used by the experiment sweeps; 0 or unset means "decide automatically".
THREADS_ENV_VAR = "CALORIC_THREADS"


def det_sum(values, axis=None) -> float | np.ndarray:
    """Correctly rounded sum of an array, independent of evaluation order.

    ``axis=None`` sums every element and returns a float; ``axis=-1``
    returns one sum per row of the last axis.  The sum is exact before its
    single final rounding (to nearest, ties to even), so it equals
    ``math.fsum`` bit for bit, signs included (an exact-zero total is
    +0.0), whatever order, grouping or batching produced the terms.
    Non-finite input follows ``math.fsum``: nan gives nan, inf gives inf,
    +inf with -inf raises ValueError.  A finite total beyond the float
    range raises OverflowError; unlike ``math.fsum``, an intermediate
    overflow does not.  Stacks of at most ``_FSUM_MAX_TERMS`` terms are
    summed row by row with ``math.fsum`` (faster there, same result),
    larger ones, and any stack on which ``math.fsum`` meets an intermediate
    overflow, by exact integer limbs.
    """
    arr = np.asarray(values, dtype=float)
    if axis is None:
        return float(_row_sums(arr.reshape(1, arr.size))[0])
    if axis != -1:
        raise ValueError(f"det_sum reduces everything (axis=None) or rows (axis=-1), got axis={axis!r}")
    lead = arr.shape[:-1]
    return _row_sums(arr.reshape(math.prod(lead), arr.shape[-1])).reshape(lead)


# Exact summation.  A finite double x = frac * 2^e (np.frexp) has its lowest
# mantissa bit at position p = e + 1073, with 0 <= p <= 2097 (p = 0 for
# 2^-1074, the smallest subnormal).  So x = y * 2^(32k - _BIAS) with the limb
# index k = p // 32 and y = frac * 2^(53 + p % 32), an integer below 2^84
# with at most 53 significant bits.  Truncating divisions by 2^64 and 2^32
# cut y exactly into three base-2^32 digits of its sign, and np.bincount adds
# the digits of equal weight as doubles.  A block of at most _BLOCK terms
# puts at most 3 * _BLOCK digits, each below 2^32 in magnitude, into a bin,
# so every bin total stays below 2^47 and is exact.  Block totals are added
# as int64, which cannot wrap for rows of up to _MAX_TERMS terms.  The limbs
# of a row then form one Python int, and CPython's int / int true division
# rounds it correctly.
_BIAS = 1126
_LIMB_BITS = 32
_N_LIMBS = 2097 // _LIMB_BITS + 3  # digits at limbs k..k+2
_BLOCK = 1 << 13
_MAX_TERMS = _BLOCK << 15
_SCALE = 1 << _BIAS
_DIGIT_OFFSETS = np.arange(3).reshape(3, 1, 1)
# Stacks of up to this many terms in all go to math.fsum, one row at a time.
# The limb path costs about 25 us plus 3 us per row whatever the size; fsum
# costs about 1 us per row plus 0.02-0.15 us per term, rising with the spread
# of the terms' exponents.  Timed on the arrays the gate and measure-sweep
# benchmark passes reduce (CHANGES.md has the table), the summed cost of a
# pass is flat for thresholds from 1280 to 3584 terms and worse outside.
_FSUM_MAX_TERMS = 2560


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D float array."""
    n_rows, n_terms = rows.shape
    if rows.size <= _FSUM_MAX_TERMS:
        try:
            return np.array([math.fsum(row.tolist()) for row in rows], dtype=float)
        except OverflowError:
            pass  # an intermediate overflow in fsum; the limb path has none
    if not np.isfinite(rows).all():
        return np.array([math.fsum(row) for row in rows.tolist()], dtype=float)
    if n_terms > _MAX_TERMS:
        raise ValueError(f"det_sum rows are limited to {_MAX_TERMS} terms, got {n_terms}")
    limbs = np.zeros((n_rows, _N_LIMBS), dtype=np.int64)
    row_step = max(1, _BLOCK // max(1, n_terms))
    term_step = max(1, min(n_terms, _BLOCK))
    for r0 in range(0, n_rows, row_step):
        for c0 in range(0, n_terms, term_step):
            limbs[r0:r0 + row_step] += _limb_totals(rows[r0:r0 + row_step, c0:c0 + term_step])
    totals = [0] * n_rows
    row_idx, limb_idx = np.nonzero(limbs)
    for r, k, v in zip(row_idx.tolist(), limb_idx.tolist(), limbs[row_idx, limb_idx].tolist()):
        totals[r] += v << (_LIMB_BITS * k)
    return np.array([t / _SCALE for t in totals], dtype=float)


def _limb_totals(block: np.ndarray) -> np.ndarray:
    """Exact limb totals, shape (n_rows, _N_LIMBS), of a block of finite rows."""
    n_rows, n_terms = block.shape
    frac, pos = np.frexp(block)
    pos += _BIAS - 53  # p
    shift = pos & (_LIMB_BITS - 1)
    shift += 53
    pos >>= 5  # k = p // _LIMB_BITS
    pos += (np.arange(n_rows, dtype=pos.dtype) * _N_LIMBS)[:, None]
    digits = np.empty((3, n_rows, n_terms))
    low, mid, top = digits
    np.ldexp(frac, shift, out=low)  # y
    np.multiply(low, 2.0**-64, out=top)
    np.trunc(top, out=top)
    low -= top * 2.0**64
    np.multiply(low, 2.0**-32, out=mid)
    np.trunc(mid, out=mid)
    low -= mid * 2.0**32
    totals = np.bincount((pos + _DIGIT_OFFSETS).ravel(), weights=digits.ravel(),
                         minlength=n_rows * _N_LIMBS)
    return totals.reshape(n_rows, _N_LIMBS).astype(np.int64)


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
    """CSV number format: ``'%.17g'``, 17 significant digits, round-trips exactly."""
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

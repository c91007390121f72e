"""Small shared helpers: exact summation, float formatting and line fits.

Exact summation by extraction
-----------------------------
``det_sum`` sums large stacks of finite terms by the extraction of Rump,
Ogita and Oishi ("Accurate floating-point summation, Part I: faithful
rounding", SIAM J. Sci. Comput. 31 (2008), ExtractVector and AccSum), and
accepts a row's result only under the certificate below.  Here u = 2^-53,
fl() is one double operation rounded to nearest, a row has n terms, and m is
the smallest integer with 2^m >= n + 2 (so n < 2^m and m <= 53).

Lemma (one pass).  Let sigma = 2^k with 2^-969 <= sigma <= 2^1023, so that
u sigma is a normal double and sigma + x cannot overflow, and let the
double x satisfy |x| <= 2^-m sigma.  Put q = fl(fl(sigma + x) - sigma) and
x' = fl(x - q).  Then (a) q = fl(sigma + x) - sigma and x' = x - q exactly;
(b) q is a multiple of u sigma and |q| <= 2^-m sigma; (c) |x'| <= u sigma.

Proof.  sigma - 2^-m sigma and sigma + 2^-m sigma are doubles because
m <= 53, so by monotone rounding fl(sigma + x) lies between them, inside
[sigma/2, 2 sigma].  Sterbenz's lemma then makes the subtraction of sigma
exact, which proves (a) for q and, with the first remark, |q| <= 2^-m sigma.
x - q = (sigma + x) - fl(sigma + x) is the rounding error of one addition,
which is a double, so x' is exact.  The doubles in [sigma/2, 2 sigma] are
multiples of u sigma (their spacing is u sigma below sigma and 2u sigma
from sigma on), and so is sigma, which proves (b).  The rounding error is at
most half that spacing, which proves (c).

Exact pass totals.  The q of one row are multiples of u sigma whose
magnitudes add up to at most n 2^-m sigma < sigma = 2^53 u sigma.  Every
partial sum, in any order or grouping, is then a multiple of u sigma of
magnitude below 2^53 u sigma, hence a double, so tau = sum(q), computed any
way, is exact.  The row total is now exactly tau plus the sum of the x',
and |x'| <= u sigma = 2^-m sigma' with sigma' = 2^m u sigma: the next pass
may run with sigma', and the sum of the x' has magnitude at most
n u sigma < sigma'.  The first pass starts at sigma_1 = 2^(e + m), where
max|x| < 2^e.

Certificate.  After pass j the exact total is T = tau_1 + ... + tau_j + R_j
with |R_j| < sigma_(j+1).  The taus are added by Knuth's TwoSum:
s_j = fl(s_(j-1) + tau_j) with the error e_j = s_(j-1) + tau_j - s_j, which
TwoSum returns exactly.  B_j >= |e_1| + ... + |e_j| is accumulated with
each addition rounded up (np.nextafter towards +inf), so
|T - s_j| < B_j + sigma_(j+1).  Let h be half the smaller gap between s_j
and its neighbouring doubles, that is, half of |s_j| minus the next double
towards zero.  If B_j + sigma_(j+1), rounded up, is below h, then T lies
strictly closer to s_j than to any other double, so T is no tie and s_j is
the correctly rounded sum: the same double as ``math.fsum`` returns.  For
s_j = 0 the gap term is 0 and nothing is certified.  The first pass is
never checked: its remainder bound sigma_2 = 2^(2m) u 2^e exceeds half of
any gap next to a sum of magnitude at most n max|x| < 2^(m + e).

A row that the certificate does not settle within _EXTRACT_PASSES passes,
whose next sigma would fall below 2^-969, or whose first sigma would exceed
2^1023 is summed by the exact integer limbs instead; an all-zero row sums
to +0.0.
"""

from __future__ import annotations

import math

import numpy as np


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
    summed row by row with ``math.fsum`` (faster there, same result).
    Larger ones, and any stack on which ``math.fsum`` meets an intermediate
    overflow, are summed by certified extraction (module docstring), with
    exact integer limbs for the rows the certificate does not settle.
    """
    arr = np.asarray(values, dtype=float)
    if axis is None:
        return float(_row_sums(arr.reshape(1, arr.size))[0])
    if axis != -1:
        raise ValueError(f"det_sum reduces everything (axis=None) or rows (axis=-1), got axis={axis!r}")
    lead = arr.shape[:-1]
    return _row_sums(arr.reshape(math.prod(lead), arr.shape[-1])).reshape(lead)


# Exact summation by limbs.
#
# A finite double x = frac * 2^e (np.frexp) has its lowest
# mantissa bit at position p = e + 1073, with 0 <= p <= 2097 (p = 0 for
# 2^-1074, the smallest subnormal).  So x = y * 2^(32k - _BIAS) with the limb
# index k = p // 32 and y = frac * 2^(53 + p % 32), an integer below 2^84
# with at most 53 significant bits.  Truncating divisions by 2^64 and 2^32
# cut y exactly into three base-2^32 digits of its sign, at limbs k, k + 1
# and k + 2.  One np.bincount per digit adds that digit of every term into
# bin k as doubles: a block of at most _BLOCK terms puts at most _BLOCK
# digits, each below 2^32 in magnitude, into a bin, so every bin total stays
# below 2^45 and is exact.  The three totals are converted to int64 and
# added at limb offsets 0, 1 and 2, and block totals are added as int64,
# neither of which can wrap for rows of up to _MAX_TERMS terms.  The limbs
# of a row then form one Python int, and CPython's int / int true division
# rounds it correctly.
_BIAS = 1126
_LIMB_BITS = 32
_N_LIMBS = 2097 // _LIMB_BITS + 3  # digits at limbs k..k+2
_BLOCK = 1 << 13
_MAX_TERMS = _BLOCK << 15
_SCALE = 1 << _BIAS
# Stacks of up to this many terms in all go to math.fsum, one row at a time.
# The extraction path costs about 70 us per stack plus about 4 ns per term
# when its rows certify in two passes; fsum costs about 1 us per row plus
# 0.02-0.15 us per term, rising with the spread of the terms' exponents.
# Timed on the arrays the gate and measure-sweep benchmark passes reduce
# (CHANGES.md has the table), the summed cost of a pass is within 2 % of its
# minimum for thresholds from 1024 to 3072 terms, lowest at 1280-1536 terms,
# and rises from 4096.
_FSUM_MAX_TERMS = 1536
# Extraction (module docstring): sigma stays within [2^_SIGMA_EXP_MIN,
# 2^_SIGMA_EXP_MAX].  Rows uncertified after _EXTRACT_PASSES passes (exact
# totals of 0.0 and ties, in practice) go to the limbs.
_SIGMA_EXP_MIN = -1022 + 53
_SIGMA_MIN = 2.0**_SIGMA_EXP_MIN
_SIGMA_EXP_MAX = 1023
_EXTRACT_PASSES = 8


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D float array."""
    if rows.size <= _FSUM_MAX_TERMS:
        try:
            return np.array([math.fsum(row.tolist()) for row in rows], dtype=float)
        except OverflowError:
            pass  # an intermediate overflow in fsum; the exact paths have none
    magnitudes = np.abs(rows).max(axis=1)  # nan or inf exactly for a non-finite row
    if not np.isfinite(magnitudes).all():
        return np.array([math.fsum(row) for row in rows.tolist()], dtype=float)
    if rows.shape[1] > _MAX_TERMS:
        raise ValueError(f"det_sum rows are limited to {_MAX_TERMS} terms, got {rows.shape[1]}")
    return _extracted_sums(rows, magnitudes)


def _extracted_sums(rows: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Row sums by certified extraction; the module docstring has the proof.

    ``magnitudes`` holds max|x| of each row.  All-zero rows sum to +0.0.
    Rows whose sigma would leave [_SIGMA_MIN, 2^_SIGMA_EXP_MAX] and rows not
    certified within _EXTRACT_PASSES passes are summed by ``_limb_sums``.
    """
    n_rows, n_terms = rows.shape
    m = (n_terms + 1).bit_length()  # the smallest m with 2^m >= n_terms + 2
    shrink = 2.0 ** (m - 53)  # 2^m u
    exps = np.frexp(magnitudes)[1] + m  # sigma_1 = 2^exps >= 2^m max|x|
    sums = np.zeros(n_rows)
    pending = magnitudes > 0.0  # rows still without a certified sum
    in_range = (exps <= _SIGMA_EXP_MAX) & (exps + (m - 53) >= _SIGMA_EXP_MIN)  # passes 1 and 2
    todo = (pending & in_range).nonzero()[0]
    sigma = np.ldexp(1.0, exps[todo])
    # numpy broadcasts one (1, 1) sigma several times faster than a column
    same_sigma = todo.size > 1 and sigma.min() == sigma.max()
    rest = rows[todo]  # a copy; the passes extract from it in place
    high = np.empty_like(rest)
    # pass 1 never certifies: its remainder bound is too wide
    total = _extract(rest, high, sigma[:1] if same_sigma else sigma)
    bound = np.zeros(todo.size)  # >= |sum of the taus - total|
    for _ in range(_EXTRACT_PASSES - 1):
        sigma *= shrink
        tau = _extract(rest, high, sigma[:1] if same_sigma else sigma)
        # TwoSum: new + error == total + tau exactly; the bound is rounded up
        new = total + tau
        back = new - total
        bound += np.abs((total - (new - back)) + (tau - back))
        np.nextafter(bound, np.inf, out=bound)
        total = new
        remainder = sigma * shrink  # > |sum of rest|, and the next pass's sigma
        mag = np.abs(total)
        certified = (np.nextafter(bound + remainder, np.inf)
                     < 0.5 * (mag - np.nextafter(mag, 0.0)))
        done = todo[certified]
        sums[done] = total[certified]
        pending[done] = False
        live = ~certified & (remainder >= _SIGMA_MIN)
        if not live.any():
            break
        if not live.all():
            todo, rest, sigma, total, bound = (a[live] for a in (todo, rest, sigma, total, bound))
            high = high[:todo.size]
    fallback = pending.nonzero()[0]
    if fallback.size:
        sums[fallback] = _limb_sums(rows[fallback])
    return sums


def _extract(rest: np.ndarray, high: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """One extraction pass: splits each row of ``rest`` at its sigma, in place.

    ``sigma`` holds one value per row, or one value for all rows.  ``high``
    receives fl(fl(sigma + x) - sigma) of each term x, ``rest`` keeps x minus
    that, and the exact row totals of ``high`` are returned.
    """
    np.add(rest, sigma[:, None], out=high)
    high -= sigma[:, None]
    rest -= high
    return high.sum(axis=1)


def _limb_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of finite terms, by exact integer limbs."""
    n_rows, n_terms = rows.shape
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
    n_rows = block.shape[0]
    low, pos = np.frexp(block)
    pos += _BIAS - 53  # p
    shift = pos & (_LIMB_BITS - 1)
    shift += 53
    pos >>= 5  # k = p // _LIMB_BITS
    pos += (np.arange(n_rows, dtype=pos.dtype) * _N_LIMBS)[:, None]
    np.ldexp(low, shift, out=low)  # y
    top = np.multiply(low, 2.0**-64)
    np.trunc(top, out=top)
    low -= top * 2.0**64
    mid = np.multiply(low, 2.0**-32)
    np.trunc(mid, out=mid)
    low -= mid * 2.0**32
    bins = pos.ravel()
    totals = np.zeros((n_rows, _N_LIMBS), dtype=np.int64)
    for offset, digit in enumerate((low, mid, top)):  # digit at limb k + offset
        part = np.bincount(bins, weights=digit.ravel(), minlength=totals.size)
        totals[:, offset:] += part.reshape(totals.shape)[:, :_N_LIMBS - offset].astype(np.int64)
    return totals


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

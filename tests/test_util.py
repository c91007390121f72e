"""Exact summation: ``det_sum`` against ``math.fsum`` as the oracle.

``math.fsum`` is correctly rounded, and so is ``det_sum``; a correctly
rounded sum is unique, so every comparison below is exact equality,
signs of zero included.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caloric import (
    BallFamily,
    SnapshotLadder,
    SpaceTimeField,
    SpatialGrid,
    StripSpec,
    TestFunction,
    default_schwartz_panel,
    integrate_strip_L2,
    pairing_bound_check,
    recover_initial_data,
)
from caloric import util
from caloric.errors import DataError
from caloric.grid import ball_weights, gradient, integrate_ball, masked_sums, time_trapezoid
from caloric.norms import SpaceTimeRegion, caccioppoli_ratio, carleson_box_value
from caloric.probes import central_compact_panel, hermite_probe
from caloric.representation import convergence_mode_probe, flux_functional, grid_pairing
from caloric.semigroup import (
    AnnulusScheme,
    HeatOperatorConfig,
    annulus_decay_check,
    dense_evolve_at,
    heat_evolve,
    heat_evolve_gradient,
)
from caloric.zoo import GaussianKernelSolution, TychonoffSolution
from caloric.util import _FSUM_MAX_TERMS, det_sum


def fsum_oracle(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def rowwise_oracle(stack) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    rows = stack.reshape(-1, stack.shape[-1])
    return np.array([math.fsum(r) for r in rows.tolist()]).reshape(stack.shape[:-1])


def assert_same(got, want):
    """Equal values and equal signs (so +0.0 and -0.0 differ), elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def wide(rng, shape, lo=-300, hi=300):
    """Signed values whose binary exponents spread over [lo, hi] decades."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(lo, hi, shape)


_finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-3e-308, max_value=3e-308),  # subnormals and +-0
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
)


@st.composite
def cancelling_terms(draw):
    """Finite terms plus negated copies of some of them, in a drawn order."""
    terms = draw(st.lists(_finite, max_size=60))
    if terms:
        terms += [-t for t in draw(st.lists(st.sampled_from(terms), max_size=len(terms)))]
    return draw(st.permutations(terms))


class TestDetSumScalar:
    @settings(max_examples=400, deadline=None)
    @given(cancelling_terms())
    def test_equals_fsum_value_and_sign(self, terms):
        assert_same(det_sum(terms), fsum_oracle(terms))
        assert_same(det_sum(np.asarray(terms)), fsum_oracle(terms))

    def test_exact_cancellation_of_a_wide_array(self):
        rng = np.random.default_rng(1)
        x = wide(rng, 5000)
        terms = np.concatenate([x, -x, [2.0**-1074]])
        rng.shuffle(terms)
        assert_same(det_sum(terms), 2.0**-1074)

    def test_subnormal_total(self):
        terms = [2.0**-1022, -(2.0**-1022) + 2.0**-1074, 3 * 2.0**-1074]
        assert_same(det_sum(terms), fsum_oracle(terms))
        assert det_sum(terms) == 4 * 2.0**-1074

    def test_returns_python_float(self):
        assert type(det_sum(np.ones(3))) is float

    def test_empty(self):
        assert_same(det_sum([]), 0.0)

    def test_all_negative_zero_gives_positive_zero(self):
        assert_same(det_sum([-0.0, -0.0, -0.0]), math.fsum([-0.0, -0.0, -0.0]))
        assert_same(det_sum([-0.0]), 0.0)

    def test_nan(self):
        assert math.isnan(det_sum([1.0, float("nan"), 2.0]))

    def test_inf(self):
        assert det_sum([1.0, float("inf")]) == math.inf
        assert det_sum([-math.inf, 1e300]) == -math.inf

    def test_opposite_infinities_raise(self):
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            det_sum([math.inf, 1.0, -math.inf])

    def test_finite_overflow_raises(self):
        with pytest.raises(OverflowError):
            det_sum([1.7e308, 1.7e308])
        # rounds to the largest double, exactly as fsum does ...
        edge = [1.7976931348623157e308, 9.979201547673598e291]
        assert_same(det_sum(edge), fsum_oracle(edge))
        # ... and half an ulp more rounds to infinity
        with pytest.raises(OverflowError):
            det_sum([1.7976931348623157e308, 9.9792015476736e291])

    def test_exact_where_fsum_overflows_in_an_intermediate(self):
        assert det_sum([1.7e308, 1.7e308, -1.7e308]) == 1.7e308

    def test_row_longer_than_two_to_the_21(self):
        # v = (2^53 - 1) * 2^-6 has the odd limb digit 2^32 - 1, and a float
        # accumulator of more than 2^21 such digits would round; the two
        # scaled copies of -v cancel the copies of v exactly
        v = (2.0**53 - 1) * 2.0**-6
        x = np.concatenate([np.full(2**21 + 2**13, v), [-v * 2.0**21, -v * 2.0**13, 0.75]])
        assert_same(det_sum(x), fsum_oracle(x))
        assert det_sum(x) == 0.75

    def test_rejects_other_axes(self):
        with pytest.raises(ValueError, match="axis"):
            det_sum(np.ones((2, 2)), axis=0)


class TestDetSumRows:
    @pytest.mark.parametrize("shape", [(5, 37), (1, 1), (3, 4, 300), (2, 3, 1)])
    def test_matches_rowwise_fsum(self, shape):
        rng = np.random.default_rng(3)
        stack = wide(rng, shape)
        got = det_sum(stack, axis=-1)
        assert got.shape == shape[:-1]
        assert_same(got, rowwise_oracle(stack))

    def test_special_rows(self):
        rng = np.random.default_rng(4)
        x = wide(rng, 50)
        stack = np.stack([x, -x, np.concatenate([x[:25], -x[:25]]),
                          np.full(50, -0.0), np.full(50, 5e-324)])
        assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))

    def test_rows_of_many_blocks(self):
        rng = np.random.default_rng(5)
        stack = wide(rng, (3, 20000), -20, 20)
        assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))

    def test_empty_rows_and_empty_stacks(self):
        assert_same(det_sum(np.zeros((3, 0)), axis=-1), np.zeros(3))
        assert det_sum(np.zeros((0, 5)), axis=-1).shape == (0,)

    def test_non_finite_rows(self):
        stack = np.array([[1.0, np.nan], [1.0, 2.0], [np.inf, 1.0]])
        got = det_sum(stack, axis=-1)
        assert math.isnan(got[0])
        assert got[1] == 3.0 and got[2] == math.inf
        with pytest.raises(ValueError):
            det_sum(np.array([[1.0, 2.0], [np.inf, -np.inf]]), axis=-1)


@st.composite
def stacks_near_the_crossover(draw):
    """Stacks just below, at and just above _FSUM_MAX_TERMS terms in all.

    Terms spread over wide exponent ranges, and some are negated copies of
    others in their row, so rows cancel partly or exactly.
    """
    c = _FSUM_MAX_TERMS
    shape = draw(st.sampled_from([(1, c - 1), (1, c), (1, c + 1), (2, c // 2), (2, c // 2 + 1),
                                  (40, c // 40), (40, c // 40 + 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-320, 0))
    stack = wide(rng, shape, lo, draw(st.integers(lo + 1, 300)))
    copies = np.take_along_axis(stack, rng.integers(0, shape[1], shape), axis=-1)
    return np.where(rng.random(shape) < draw(st.floats(0.0, 1.0)), -copies, stack)


class TestFsumCrossover:
    @settings(max_examples=60, deadline=None)
    @given(stacks_near_the_crossover())
    def test_equals_rowwise_fsum_on_both_sides(self, stack):
        assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))
        assert_same(det_sum(stack), fsum_oracle(stack))

    def test_dispatch_at_the_crossover(self, monkeypatch):
        # fsum up to the crossover, extraction above it, limbs for the rows
        # extraction cannot certify (here the tie 1 + 2^-53)
        paths = []
        for name in ("_extracted_sums", "_limb_sums"):
            def counted(rows, *rest, _name=name, _path=getattr(util, name)):
                paths.append(_name)
                return _path(rows, *rest)

            monkeypatch.setattr(util, name, counted)
        c = _FSUM_MAX_TERMS
        tie = [1.0, 2.0**-53]
        for shape, row, want in [
            ((c,), [], []), ((2, c // 2), [], []),
            ((c + 1,), [], ["_extracted_sums"]), ((2, c // 2 + 1), [], ["_extracted_sums"]),
            ((c,), tie, []),
            ((c + 1,), tie, ["_extracted_sums", "_limb_sums"]),
        ]:
            stack = np.zeros(shape) if row else np.ones(shape)
            stack[..., :len(row)] = row
            paths.clear()
            assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))
            assert paths == want, (shape, row)

    def test_intermediate_overflow_falls_back_to_limbs(self):
        assert det_sum([1e308, 1e308, -1e308]) == 1e308
        stack = np.array([[1.0, 2.0, 3.0], [1e308, 1e308, -1e308]])
        assert_same(det_sum(stack, axis=-1), np.array([6.0, 1e308]))

    @settings(max_examples=200, deadline=None)
    @given(cancelling_terms())
    def test_limb_path_equals_fsum(self, terms):
        rows = np.asarray(terms, dtype=float).reshape(1, -1)
        assert_same(util._limb_sums(rows), [fsum_oracle(terms)])

    @settings(max_examples=200, deadline=None)
    @given(cancelling_terms())
    def test_extraction_path_equals_fsum(self, terms):
        # zeros past the crossover change no sum but force the extraction
        # path, and its limb fallback where the certificate fails
        padded = np.concatenate([terms, np.zeros(_FSUM_MAX_TERMS + 1)])
        assert_same(det_sum(padded), fsum_oracle(terms))


# Row kinds of det_sum_stacks.  The extraction certificate settles none but
# "wide" and "near_tie" rows, so above the crossover the others reach the
# limbs; most near ties do too (their nudge lies past the passes' reach).
_ROW_KINDS = ("wide", "pairs", "zeros", "tie", "near_tie", "huge", "tiny")
_LIMB_KINDS = _ROW_KINDS[1:]


def _kind_row(rng, kind, n, lo, hi) -> np.ndarray:
    """n terms of one kind:

    * ``wide``: exponents spread over [lo, hi] decades;
    * ``pairs``: x and -x for wide terms x, an exact-zero total;
    * ``zeros``: +-0.0 and subnormals of either sign;
    * ``tie``: pairs plus 1 and 2^-53 or -2^-54, scaled by a power of two,
      a total halfway between two doubles;
    * ``near_tie``: a tie plus or minus a term 2^-54 to 2^-109 times as
      large, which decides the rounding;
    * ``huge``: wide terms plus two pairs of magnitude just below 2^1016,
      whose first sigma exceeds 2^1023 from 127 terms on;
    * ``tiny``: terms of 1e-320 to 1e-290, whose sigma falls below 2^-969.
    """
    if kind == "wide":
        return wide(rng, n, lo, hi)
    if kind == "pairs":
        half = wide(rng, n // 2, lo, hi)
        return rng.permutation(np.concatenate([half, -half, [-0.0] * (n % 2)]))
    if kind == "zeros":
        sub = rng.integers(-(2**52), 2**52, n) * 5e-324
        return np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], n), sub)
    if kind in ("tie", "near_tie"):
        # halfway above 1 or just below it (where the gap halves), nudged
        # off the tie by a term far below for near_tie
        half = rng.choice([2.0**-53, -(2.0**-54)])
        nudge = rng.choice([-1.0, 1.0]) * 2.0 ** -int(rng.integers(54, 110))
        tie = np.array([1.0, half, nudge][:n if kind == "near_tie" else min(n, 2)])
        tie *= 2.0 ** int(rng.integers(-900, 900))
        return rng.permutation(np.concatenate([_kind_row(rng, "pairs", n - tie.size, lo, hi),
                                               tie]))
    if kind == "huge":
        big = rng.uniform(1.0, 2.0, min(n // 2, 2)) * 2.0**1015
        row = np.concatenate([wide(rng, n - 2 * big.size, lo, hi), big, -big])
        return rng.permutation(row)
    return wide(rng, n, -320, -290)


@st.composite
def det_sum_stacks(draw):
    """A stack of rows of mixed kinds (_kind_row) whose size lies below or
    above _FSUM_MAX_TERMS in all, and its terms shuffled and cut into
    batches of random sizes."""
    c = _FSUM_MAX_TERMS
    n_rows = draw(st.integers(1, 8))
    if draw(st.booleans()):
        n_terms = draw(st.integers(1, c // n_rows))
    else:
        n_terms = draw(st.integers(c // n_rows + 1, 2 * c // n_rows + 1))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=n_rows, max_size=n_rows))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo + 1, 301))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([_kind_row(rng, kind, n_terms, lo, hi) for kind in kinds])
    cuts = np.sort(rng.integers(0, stack.size + 1, draw(st.integers(0, 6))))
    return stack, np.split(rng.permutation(stack.ravel()), cuts)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(det_sum_stacks())
def test_det_sum_property(case):
    # every row, the stack's rows at once, the whole stack and any batching
    # of its shuffled terms: each sum is the math.fsum double, sign included
    stack, batches = case
    assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))
    assert_same(det_sum(stack), fsum_oracle(stack))
    for row in stack:
        assert_same(det_sum(row), fsum_oracle(row))
    for batch in batches:
        assert_same(det_sum(batch), fsum_oracle(batch))


@pytest.mark.parametrize("kind", _LIMB_KINDS)
def test_det_sum_stack_kinds_reach_the_limbs(monkeypatch, kind):
    # the property above exercises the limb fallback: one row of each of
    # these kinds just above the crossover is summed by limbs
    rows = []
    limb_sums = util._limb_sums
    monkeypatch.setattr(util, "_limb_sums", lambda r: rows.append(r) or limb_sums(r))
    row = _kind_row(np.random.default_rng(0), kind, _FSUM_MAX_TERMS + 1, -300, 300)
    assert_same(det_sum(row), fsum_oracle(row))
    assert len(rows) == 1


def _limb_totals_one_bincount(block: np.ndarray) -> np.ndarray:
    """Reference: all three digits of every term in one np.bincount call, the
    middle and top digits indexed one and two limbs up."""
    n_rows, n_terms = block.shape
    frac, exp = np.frexp(block)
    pos = exp + (util._BIAS - 53)
    limb = pos // 32 + (np.arange(n_rows) * util._N_LIMBS)[:, None]
    y = np.ldexp(frac, pos % 32 + 53)
    top = np.trunc(y * 2.0**-64)
    y = y - top * 2.0**64
    mid = np.trunc(y * 2.0**-32)
    low = y - mid * 2.0**32
    totals = np.bincount(np.stack([limb, limb + 1, limb + 2]).ravel(),
                         weights=np.stack([low, mid, top]).ravel(),
                         minlength=n_rows * util._N_LIMBS)
    return totals.reshape(n_rows, util._N_LIMBS).astype(np.int64)


@pytest.mark.parametrize("shape", [(1, 1), (8, 2048), (14, 2048), (3, util._BLOCK)])
def test_limb_totals_equal_one_bincount_reference(shape):
    # signed values over the whole exponent range, subnormals and the
    # largest finite magnitudes included
    rng = np.random.default_rng(shape[0] * shape[1])
    block = wide(rng, shape, -330, 308)
    flat = block.ravel()
    flat[::7] = rng.choice([5e-324, -5e-324, 2.5e-310, -0.0, 1.7e308, -1.7e308], flat[::7].size)
    assert np.isfinite(block).all()
    want = _limb_totals_one_bincount(block)
    got = util._limb_totals(block)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def padded_rows(*rows) -> np.ndarray:
    """Rows of terms, each zero-padded to one length past the crossover."""
    width = max(_FSUM_MAX_TERMS + 1, *(len(r) for r in rows))
    stack = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        stack[i, :len(r)] = r
    return stack


def odd_row(tail: float) -> np.ndarray:
    """x exp(-x^2) on a symmetric axis: pairs cancel exactly, down to ``tail``."""
    x = np.linspace(0.0, math.sqrt(-math.log(tail)), 1024)[1:]
    half = x * np.exp(-x * x)
    return np.concatenate([-half[::-1], [0.0], half])


class TestExtraction:
    """Rows that stress the certificate, each against row-wise fsum."""

    @pytest.fixture
    def limb_rows(self, monkeypatch):
        """Number of rows the extraction hands to the limb fallback."""
        seen = []
        limb_sums = util._limb_sums

        def counted(rows):
            seen.append(rows.shape[0])
            return limb_sums(rows)

        monkeypatch.setattr(util, "_limb_sums", counted)
        return lambda: sum(seen)

    def check(self, stack):
        with np.errstate(over="raise", invalid="raise"):  # sigma never leaves the range
            assert_same(det_sum(stack, axis=-1), rowwise_oracle(stack))
            for row in stack:
                assert_same(det_sum(row), fsum_oracle(row))

    def test_ties_go_to_even(self):
        u = 2.0**-53
        # 1 + u is halfway between 1 and 1 + 2u; 2^-300 breaks the tie
        self.check(padded_rows([1.0, u], [1.0 + 2 * u, u], [-1.0, -u],
                               [1.0, u, 2.0**-300], [1.0, u, -(2.0**-300)],
                               [1.0, *[u] * 2999]))

    def test_sums_next_to_a_power_of_two(self):
        # below 2^k the gap is half the gap above, so the certificate must
        # use the smaller one
        u = 2.0**-53
        # (2^-100 lies below the second pass's grid, so a wrong gap would
        # certify the tie-rounded 1.0 of that pass)
        self.check(padded_rows([1.0, -u / 4], [1.0, -u / 2], [1.0, -u / 2, -(2.0**-100)],
                               [1.0, -u / 2, 2.0**-100], [1.0, -u / 2, -(2.0**-80)],
                               [2.0, -u], [0.5, 0.5, -u / 4], [4.0, -u, -u, -u], [-1.0, u / 4],
                               [-1.0, u / 2, 2.0**-100]))

    def test_long_rows_of_one_sign(self):
        # every pass total is near n max|x|, which only 2^m >= n + 2 keeps exact
        rng = np.random.default_rng(10)
        for n in (2046, 2047, 4094, 5000):  # 2^m = n + 2 at 2046 and 4094
            self.check(np.stack([rng.uniform(0.5, 1.0, n), -rng.uniform(0.5, 1.0, n)]))

    def test_subnormal_totals(self):
        tiny = 2.0**-1074
        self.check(padded_rows([1.0, -1.0, tiny], [1e-300, -1e-300, 3 * tiny, -tiny],
                               [2.0**-1022, -(2.0**-1022) + tiny, 3 * tiny],
                               np.full(2000, tiny), [1e300, tiny, -1e300]))

    def test_exact_zero_totals_over_a_wide_exponent_range(self, limb_rows):
        rows = [odd_row(tail) for tail in (1e-20, 1e-100, 1e-300)]
        stack = padded_rows(*rows, odd_row(1e-300)[1:], [3.0, -1.0, -2.0])
        self.check(stack)
        assert limb_rows() > 0

    def test_rows_near_overflow(self):
        rng = np.random.default_rng(11)
        self.check(np.stack([rng.standard_normal(2000) * 2.0**k
                             for k in (1000, 1010, 1011, 1012, 1013, 1015)]))
        self.check(padded_rows([1e308, -1e308, 1e300], [1.7e308, -1.6e308, 1.0],
                               [8.98e307, 8.98e307, -1e307]))

    def test_rows_near_the_smallest_normal(self):
        rng = np.random.default_rng(12)
        stack = np.stack([rng.standard_normal(2000) * 2.0**k
                          for k in (-1074, -1060, -1022, -980, -930, -928, -927, -926, -900)])
        stack[:, 1::2] = -stack[:, ::2]  # cancel in pairs, except the last
        stack[:, -1] = 2.0**-1022
        self.check(stack)

    def test_limb_fallback_fires_on_adversarial_rows_only(self, limb_rows):
        x = np.linspace(-8.0, 8.0, 4096, endpoint=False)
        probe = default_schwartz_panel()[2]  # He2(s=1), even
        smooth = np.exp(-(x - 0.3) ** 2 / 0.4) * probe.value(x) * (x[1] - x[0])
        self.check(np.stack([smooth, np.zeros(4096), np.full(4096, -0.0)]))
        assert limb_rows() == 0
        u = 2.0**-53
        adversarial = padded_rows([1.0, u], odd_row(1e-300), [1.7e308, -1.6e308, 1.0],
                                  [2.0**-1022, 2.0**-1074])
        self.check(adversarial)
        # four rows in the stack, then each again on its own
        assert limb_rows() == 8


# -- the batched reductions against per-slice fsum loops ---------------------


def gaussian_tailed_field(grid: SpatialGrid, times, seed: int) -> SpaceTimeField:
    """Random signs under heat-kernel envelopes: tails spread the exponents."""
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=float)
    r2 = sum(m**2 for m in grid.meshgrid())
    env = np.exp(-r2[None] / (4.0 * times.reshape(-1, *([1] * grid.dim))))
    return SpaceTimeField(grid, times, rng.standard_normal((times.size, *grid.shape)) * env)


GRIDS = {"1d": SpatialGrid.make(1, 8.0, 256), "2d": SpatialGrid.make(2, 2 * math.pi, 64)}


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_integrate_strip_L2_matches_slice_loop(dim):
    g = GRIDS[dim]
    u = gaussian_tailed_field(g, np.linspace(0.2, 2.0, 10), seed=6)
    strip, radius, center = StripSpec(0.5, 1.5), 2.0, np.full(g.dim, 0.3)
    w = ball_weights(g, center, radius)
    mask = w > 0
    profile = np.array([fsum_oracle(u.values[i][mask] ** 2 * w[mask])
                        for i in range(len(u.times))])
    want = math.sqrt(max(time_trapezoid(u.times, profile, strip.a, strip.b), 0.0))
    assert_same(integrate_strip_L2(u, strip, radius, center), want)


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_carleson_box_value_matches_slice_loop(dim):
    g = GRIDS[dim]
    u = gaussian_tailed_field(g, 0.05 * 1.3 ** np.arange(12), seed=7)
    center, radius = np.full(g.dim, -0.4), 0.9
    w = ball_weights(g, center, radius)
    mask = w > 0
    profile = np.array([fsum_oracle(u.values[i][mask] ** 2 * w[mask])
                        for i in range(len(u.times))])
    t0 = float(u.times[0])
    total = t0 * profile[0] + time_trapezoid(u.times, profile, t0, radius**2)
    want = math.sqrt(max(total, 0.0) / fsum_oracle(w[mask]))
    assert_same(carleson_box_value(u, center, radius), want)


@pytest.mark.parametrize("dim", ["1d"])
def test_ladder_pairings_match_slice_loop(dim):
    g = GRIDS[dim]
    lad = SnapshotLadder(0.4, 0.7, 5)
    times = np.unique(np.concatenate([lad.times, [0.5, 1.0]]))
    u = gaussian_tailed_field(g, times, seed=8)
    panel = default_schwartz_panel()

    def oracle(probe):
        probe_vals = probe.value(g.axis)
        return [fsum_oracle(u.values[int(np.flatnonzero(u.times == t)[0])]
                            * probe_vals * g.cell_volume) for t in lad.times]

    rec = recover_initial_data(u, lad, panel)
    for probe, got in zip(panel, rec.per_probe):
        assert_same(got.pairings, oracle(probe))


def test_ladder_pairings_reject_1d_probes_on_2d_field():
    # a 1-D probe broadcast along the last axis does not decay in x
    g = GRIDS["2d"]
    lad = SnapshotLadder(0.4, 0.7, 5)
    u = gaussian_tailed_field(g, np.unique(lad.times), seed=8)
    panel = default_schwartz_panel()
    with pytest.raises(ValueError, match="is 1-D but the field is 2-D"):
        recover_initial_data(u, lad, panel)


def test_pairing_bound_sup_matches_slice_loop():
    g = GRIDS["1d"]
    u = gaussian_tailed_field(g, np.linspace(0.1, 1.0, 10), seed=9)
    phi = TestFunction((0.5,), 1.5)
    phi_vals = phi.value(*g.meshgrid())
    want = max(abs(fsum_oracle(u.values[i] * phi_vals * g.cell_volume))
               for i in range(len(u.times)) if u.times[i] < 0.5)
    fam = BallFamily(((0.0,),), (0.5, 1.0))
    assert_same(pairing_bound_check([u], phi, family=fam)[0].sup_pairing, want)


# -- masked_sums and the stacked quadrature against the per-site formulas ----
#
# The references below are the formulas each site used before it reduced
# through masked_sums: gather at the mask, multiply, one exact sum per slice.


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_masked_sums_reads_factors_only_inside_the_mask(dim):
    g = GRIDS[dim]
    rng = np.random.default_rng(11)
    mask = g.distance_to(np.zeros(g.dim)) <= 1.5
    a = rng.standard_normal((4, *g.shape))
    b = rng.standard_normal(g.shape)
    a[:, ~mask] = np.inf
    b[~mask] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = masked_sums(g, mask, a, b, 0.25)
    want = [fsum_oracle(a[i][mask] * b[mask] * 0.25) for i in range(4)]
    assert np.all(np.isfinite(got))
    assert_same(got, want)


STACKS = pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["slice", "stack", "stack2"])


@STACKS
@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_masked_sums_without_mask_equals_all_true_mask(dim, lead):
    g = GRIDS[dim]
    values = np.random.default_rng(10).standard_normal((*lead, *g.shape))
    probe = np.cos(sum(g.meshgrid()))
    every = np.ones(g.shape, dtype=bool)
    got = masked_sums(g, None, values, probe, g.cell_volume)
    assert_same(got, masked_sums(g, every, values, probe, g.cell_volume))
    assert_same(got, grid_pairing(g, values, probe))
    assert got.shape == lead if lead else type(got) is float


@STACKS
@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_stacked_gradient_and_ball_integral_equal_per_slice(dim, lead):
    g = GRIDS[dim]
    values = np.random.default_rng(10).standard_normal((*lead, *g.shape))
    center = np.full(g.dim, 0.2)
    grads = gradient(g, values)
    balls = integrate_ball(g, values, center, 1.7)
    assert grads.shape == (*lead, g.dim, *g.shape)
    for idx in np.ndindex(*lead):
        assert grads[idx].tobytes() == gradient(g, values[idx]).tobytes()
        assert_same(np.asarray(balls)[idx], integrate_ball(g, values[idx], center, 1.7))
    with pytest.raises(DataError, match="does not end in grid shape"):
        gradient(g, values[..., :-1])
    with pytest.raises(DataError, match="does not end in grid shape"):
        integrate_ball(g, values[..., :-1], center, 1.7)


def _caccioppoli_reference(u, inner, enlarged):
    g = u.grid
    h = g.spacing
    r = g.distance_to(np.zeros(g.dim))

    def integral(slices, region):
        mask = r <= region.r_hi
        profile = np.array([fsum_oracle(s[mask] * g.cell_volume) for s in slices])
        return time_trapezoid(u.times, profile, region.t0, region.t1)

    grad_sq = np.stack([sum(((np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2 * h)) ** 2
                            for ax in range(g.dim)) for v in u.values])
    energy = integral(grad_sq, inner)
    mass = integral(u.values**2, enlarged)
    return energy / ((1.0 / inner.r_hi**2 + 1.0 / (inner.t0 - enlarged.t0)) * mass)


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_caccioppoli_ratio_matches_slice_loop(dim):
    g = GRIDS[dim]
    u = gaussian_tailed_field(g, np.linspace(0.4, 2.1, 15), seed=12)
    inner, outer = SpaceTimeRegion(1.0, 2.0, 1.0), SpaceTimeRegion(0.5, 2.0, 2.0)
    assert_same(caccioppoli_ratio(u, inner, outer), _caccioppoli_reference(u, inner, outer))


def test_annulus_decay_rows_match_per_annulus_sums():
    g = SpatialGrid.make(1, 8.0, 1600)
    h_vals = TestFunction((0.0,), 1.0).value(g.axis)
    scheme = AnnulusScheme(1.0, 1.3, 6)
    res = annulus_decay_check(g, h_vals, 0.1, scheme)
    evolved = dense_evolve_at(g, h_vals, 0.1)
    r = np.abs(g.axis)
    for j, row in enumerate(res.rows):
        mask = (r >= scheme.inner_radius(j)) & (r < scheme.outer_radius(j))
        assert_same(row.l2_norm, math.sqrt(max(fsum_oracle(evolved[mask] ** 2 * g.spacing), 0.0)))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_flux_rows_match_per_annulus_sums(dim):
    g = SpatialGrid.make(int(dim[0]), 12.0, {"1d": 1024, "2d": 64}[dim])
    u = GaussianKernelSolution(1.0, (0.0,) * g.dim)
    h = TestFunction((0.0,) * g.dim, 1.0)
    cfg = HeatOperatorConfig("kernel_quadrature", 6.0)
    s, t = 0.5, 1.0
    res = flux_functional(u, s, t, h, gamma_hat=0.0, cfg=cfg, grid=g)
    mesh = g.meshgrid()
    radial = g.distance_to(np.zeros(g.dim))
    taus = np.linspace(s, t, 9)
    h_vals = h.value(*mesh)
    phi = np.stack([heat_evolve(g, h_vals, t - tau, cfg) if tau < t else h_vals
                    for tau in taus])
    gphi = np.stack([heat_evolve_gradient(g, h_vals, t - tau, cfg) if tau < t
                     else np.stack(h.gradient(*mesh)) for tau in taus])
    uu = np.stack([u.value(float(tau), *mesh) for tau in taus])
    gu = np.stack([np.stack(u.gradient(float(tau), *mesh)) for tau in taus])
    abs_gu = np.sqrt(np.add.reduce(gu**2, axis=1))
    abs_gphi = np.sqrt(np.add.reduce(gphi**2, axis=1))
    w = np.full(9, (t - s) / 8)
    w[0] = w[-1] = (t - s) / 16
    for R, row in zip((2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), res.rows):
        mask = (radial > 0.9 * R) & (radial < R)
        p1 = [fsum_oracle(np.abs(phi[i][mask]) * abs_gu[i][mask] * g.cell_volume)
              for i in range(9)]
        p2 = [fsum_oracle(np.abs(uu[i][mask]) * abs_gphi[i][mask] * g.cell_volume)
              for i in range(9)]
        assert row.R == R
        assert_same(row.phi1, fsum_oracle(np.asarray(p1) * w))
        assert_same(row.phi2, fsum_oracle(np.asarray(p2) * w))


def test_convergence_mode_pairings_match_per_snapshot_sums():
    g = SpatialGrid.make(1, 8.0, 1024)
    x = g.axis
    sol = TychonoffSolution(40)
    lad = SnapshotLadder.down_to(0.1, 0.7, 2e-3)
    bumps = central_compact_panel((0.5, 1.0))
    probe = hermite_probe(0, 1.0)
    rhos = (2.0, 4.0, 6.0, 8.0)
    rep = convergence_mode_probe(sol, g, lad, bumps, [probe], rho_values=rhos,
                                 t_divergence=0.1)
    want = []
    for h in bumps:
        h_vals = h.value(x)
        supp = h_vals != 0.0
        for t_k in lad.times.tolist():
            snap, flags = sol.value_with_flag(t_k, x)
            want.append((h.label, t_k, fsum_oracle(snap[supp] * h_vals[supp] * g.cell_volume),
                         bool(flags[supp].any())))
    assert [(r.h_id, r.t_k, r.pairing, r.truncation_flagged) for r in rep.compact_rows] == want
    div, div_flags = sol.value_with_flag(0.1, x)
    p_vals = probe.value(x)
    want = [(rho, fsum_oracle(div[np.abs(x) <= rho] * p_vals[np.abs(x) <= rho] * g.cell_volume),
             bool(div_flags[np.abs(x) <= rho].any())) for rho in rhos]
    got = [(r.rho, r.partial_integral, r.truncation_flagged) for r in rep.divergence_rows]
    assert got == want

import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from caloric import (
    AnnulusScheme,
    CaloricPolynomial,
    DomainTooSmallError,
    Eigenmode,
    ExponentialSolution,
    HeatOperatorConfig,
    InsufficientDecayDataError,
    SpatialGrid,
    TestFunction,
    annulus_decay_check,
    heat_evolve,
    heat_evolve_gradient,
    homotopy_residual,
)
from caloric import semigroup
from caloric.semigroup import (
    _kernel_1d,
    _kernel_gradient_1d,
    _split_convolve_1d,
    dense_evolve_at,
)
from caloric.grid import gradient as fd_gradient
from caloric.util import det_sum
from caloric.zoo import GaussianKernelSolution

KERNEL = HeatOperatorConfig("kernel_quadrature")
SPECTRAL = HeatOperatorConfig("spectral_multiplier")


class TestConfigs:
    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            HeatOperatorConfig("finite_difference")
        with pytest.raises(ValueError, match=">= 6"):
            HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=4.0)

    def test_kernel_extent_guard(self, periodic_pi_grid):
        with pytest.raises(DomainTooSmallError):
            heat_evolve(periodic_pi_grid, np.ones(256), 4.0, KERNEL)
        with pytest.raises(ValueError, match="positive"):
            heat_evolve(periodic_pi_grid, np.ones(256), -0.1, KERNEL)


class TestHeatEvolve:
    @pytest.mark.parametrize("cfg", [KERNEL, SPECTRAL], ids=["kernel", "spectral"])
    def test_constants_preserved(self, periodic_pi_grid, cfg):
        out = heat_evolve(periodic_pi_grid, np.ones(256), 0.3, cfg)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_eigenmode_decay_spectral(self, periodic_pi_grid):
        x = periodic_pi_grid.axis
        out = heat_evolve(periodic_pi_grid, np.sin(x), 0.5, SPECTRAL)
        rel = np.abs(out - math.exp(-0.5) * np.sin(x)).max() / math.exp(-0.5)
        assert rel <= 1e-8

    def test_heat_kernel_semigroup_action(self):
        # e^{tL} Phi(s, .) = Phi(s + t, .) within quadrature tolerance
        g = SpatialGrid.make(1, 12.0, 1024)
        sol = GaussianKernelSolution(0.5)
        start = GaussianKernelSolution(0.25).value(0.25, g.axis)  # Phi(0.5), exactly
        out = heat_evolve(g, start, 0.5, KERNEL)
        expect = sol.value(0.5, g.axis)
        assert np.abs(out - expect).max() <= 1e-5

    def test_semigroup_law_spectral(self, periodic_pi_grid):
        x = periodic_pi_grid.axis
        f = np.sin(x) + 0.3 * np.cos(0.5 * x)
        two_step = heat_evolve(periodic_pi_grid,
                               heat_evolve(periodic_pi_grid, f, 0.2, SPECTRAL), 0.3, SPECTRAL)
        one_step = heat_evolve(periodic_pi_grid, f, 0.5, SPECTRAL)
        assert np.abs(two_step - one_step).max() <= 1e-6 * np.abs(f).max()

    @pytest.mark.parametrize("cfg", [KERNEL, SPECTRAL], ids=["kernel", "spectral"])
    def test_mass_and_maximum_principle(self, periodic_pi_grid, cfg):
        x = periodic_pi_grid.axis
        f = np.sin(3 * x) ** 2 - 0.5 * np.cos(x)
        out = heat_evolve(periodic_pi_grid, f, 0.4, cfg)
        assert abs(out.mean() - f.mean()) <= 1e-10
        assert out.max() <= f.max() + 1e-10
        assert out.min() >= f.min() - 1e-10

    @pytest.mark.parametrize("cfg", [KERNEL, SPECTRAL], ids=["kernel", "spectral"])
    def test_l2_contraction(self, periodic_pi_grid, cfg):
        x = periodic_pi_grid.axis
        f = np.sign(np.sin(2 * x))
        h = periodic_pi_grid.spacing
        out = heat_evolve(periodic_pi_grid, f, 0.15, cfg)
        assert det_sum(out**2 * h) <= det_sum(f**2 * h) * (1 + 1e-12)

    def test_method_agreement_on_bump(self):
        g = SpatialGrid.make(1, 16.0, 1024)
        h = TestFunction((0.0,), 1.0)
        f = h.value(g.axis)
        a = heat_evolve(g, f, 0.5, KERNEL)
        b = heat_evolve(g, f, 0.5, SPECTRAL)
        interior = np.abs(g.axis) <= 8.0
        diff = np.abs(a - b)[interior].max()
        assert diff <= max(1e-6, 0.5 * g.spacing**2)

    def test_2d_separable_eigenmode(self, grid_2d):
        xg, yg = grid_2d.meshgrid()
        f = np.sin(xg) * np.sin(yg)
        out = heat_evolve(grid_2d, f, 0.25, SPECTRAL)
        np.testing.assert_allclose(out, math.exp(-0.5) * f, atol=1e-12)

    def test_kernel_consistency_error_is_second_order(self):
        # the module docstring's clean O(dx^2) consistency error, observed on
        # criterion 2's kernel ladder: each halving of dx divides the homotopy
        # residual of every zoo member by 4
        zoo = (GaussianKernelSolution(1.0), CaloricPolynomial(2), CaloricPolynomial(4),
               ExponentialSolution((1.0,)), Eigenmode((1.0,)))
        h, cfg = TestFunction((1.0,), 1.0), HeatOperatorConfig("kernel_quadrature", 10.0)
        per_level = [homotopy_residual(zoo, 0.5, 1.0, h, cfg, grid=SpatialGrid.make(1, 16.0, n),
                                       grid_level=level)
                     for level, n in enumerate((4096, 8192, 16384))]
        for sol, reports in zip(zoo, zip(*per_level)):
            resids = [r.residual for r in reports]
            orders = [math.log2(a / b) for a, b in zip(resids, resids[1:])]
            assert all(1.9 <= p <= 2.1 for p in orders), (sol.label, orders)


class TestHeatEvolveGradient:
    @pytest.mark.parametrize("cfg", [KERNEL, SPECTRAL], ids=["kernel", "spectral"])
    def test_constant_maps_to_zero(self, periodic_pi_grid, cfg):
        out = heat_evolve_gradient(periodic_pi_grid, np.ones(256), 0.3, cfg)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    @pytest.mark.parametrize("cfg,atol", [(KERNEL, 5e-3), (SPECTRAL, 1e-12)],
                             ids=["kernel", "spectral"])
    def test_eigenmode_gradient(self, periodic_pi_grid, cfg, atol):
        # the kernel realization carries its O(dx^2) cell-average error
        x = periodic_pi_grid.axis
        out = heat_evolve_gradient(periodic_pi_grid, np.sin(x), 0.3, cfg)
        np.testing.assert_allclose(out[0], math.exp(-0.3) * np.cos(x), atol=atol)

    def test_cross_validation_with_fd(self):
        # finite differences of heat_evolve(h) agree with the gradient kernel
        errs = []
        for n in (512, 1024):
            g = SpatialGrid.make(1, 16.0, n)
            f = TestFunction((0.0,), 1.0).value(g.axis)
            direct = heat_evolve_gradient(g, f, 0.4, KERNEL)[0]
            fd = fd_gradient(g, heat_evolve(g, f, 0.4, KERNEL))[0]
            errs.append(np.abs(direct - fd).max())
        assert errs[0] / errs[1] >= 3.0  # O(dx^2) agreement

    @pytest.mark.parametrize("dim,gradient,builds", [
        (1, False, {"_kernel_1d": 1}),
        (1, True, {"_kernel_gradient_1d": 1}),
        (2, False, {"_kernel_1d": 1}),
        (2, True, {"_kernel_1d": 1, "_kernel_gradient_1d": 1}),
    ], ids=["evolve-1d", "gradient-1d", "evolve-2d", "gradient-2d"])
    def test_each_kernel_built_once_where_applied(self, monkeypatch, dim, gradient, builds):
        # a kernel no output applies is not built: a 1-D gradient needs
        # only the gradient kernel
        counts = {}
        for name in ("_kernel_1d", "_kernel_gradient_1d"):
            def counted(*args, _name=name, _build=getattr(semigroup, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _build(*args)

            monkeypatch.setattr(semigroup, name, counted)
        grid = SpatialGrid.make(dim, 15.0, 256 if dim == 1 else 64)
        values = _bump_field(grid, (0.5,) * dim, 1.0)
        op = heat_evolve_gradient if gradient else heat_evolve
        op(grid, values, 0.3, KERNEL)
        assert counts == builds

    def test_2d_gradient_components(self, grid_2d):
        xg, yg = grid_2d.meshgrid()
        f = np.sin(xg) * np.sin(yg)
        out = heat_evolve_gradient(grid_2d, f, 0.25, SPECTRAL)
        np.testing.assert_allclose(out[0], math.exp(-0.5) * np.cos(xg) * np.sin(yg), atol=1e-12)
        np.testing.assert_allclose(out[1], math.exp(-0.5) * np.sin(xg) * np.cos(yg), atol=1e-12)


def _full_axis_convolution(grid, values, t, gradient, cfg=KERNEL):
    """Oracle: ndimage.convolve1d over every full periodic axis."""
    w = _kernel_1d(t, grid, cfg)
    wg = _kernel_gradient_1d(t, grid, cfg)
    comps = []
    for ax in range(grid.dim) if gradient else [None]:
        comp = values
        for other in range(grid.dim):
            comp = ndimage.convolve1d(comp, wg if other == ax else w, axis=other,
                                      mode="wrap")
        comps.append(comp)
    return np.stack(comps) if gradient else comps[0]


def _bump_field(grid, center, radius):
    return TestFunction(center, radius).value(*grid.meshgrid())


def _signed_span(lo, size):
    """Field supported on [lo, lo + size): random values with -0.0 and
    subnormals inside, -0.0 and a subnormal at its ends (-0.0 is support)."""
    def field(grid):
        rng = np.random.default_rng(lo + size)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
        x[1::5] = -0.0
        x[2::7] = 5e-324
        x[3::11] = -2.5e-310
        x[0] = -0.0
        if size > 1:
            x[-1] = -1e-320
        values = np.zeros(grid.shape)
        values[lo:lo + size] = x
        return values
    return field


def _with_negative_zero_lines(values, row, col):
    """*values* with row *row* and column *col* set to -0.0 (they must miss
    its support): lines the 2-D path convolves though they carry no bump."""
    assert not values[row].any() and not values[:, col].any()
    values[row] = values[:, col] = -0.0
    return values


def _spikes(grid, indices):
    values = np.zeros(grid.shape)
    values[list(indices)] = 1.0
    return values


# (dim, field, t) on the periodic box L = 15 with 256 points per axis in 1D
# and 64 in 2D.  In 1D the kernel half-width m is 38 taps at t = 0.3, 49 at
# t = 0.5 and 62 at t = 0.8.  Spikes spanning 180 (181) points give a window
# of exactly n (n + 1) points: the widest windowed case and the narrowest
# fallback.  The edge bumps are cut at x = L, so their windows wrap round the
# axis; spikes on both sides of the seam span nearly the whole axis and take
# the fallback.  A 2-D slice convolves only the lines its support occupies
# along the other axis: -0.0 lines away from the bump are occupied, a support
# cut at both ends of the other axis occupies nearly every line, and an
# all -0.0 field occupies them all.
_WINDOW_CASES = {
    "1d-interior": (1, lambda g: _bump_field(g, (0.5,), 1.0), 0.3),
    "1d-wraps-edge": (1, lambda g: _bump_field(g, (14.5,), 1.0), 0.3),
    "1d-window-wraps-right": (1, lambda g: _bump_field(g, (12.0,), 1.0), 0.5),
    "1d-window-wraps-left": (1, lambda g: _bump_field(g, (-14.0,), 0.8), 0.5),
    "1d-two-bumps-mixed-signs": (1, lambda g: _bump_field(g, (-6.0,), 1.0)
                                 - 2.0 * _bump_field(g, (5.0,), 0.5), 0.2),
    "1d-signed-zeros-off-support": (1, lambda g: np.where((g.axis > -3.0) & (g.axis < 8.0), -0.0,
                                                          _bump_field(g, (-12.0,), 0.5)), 0.2),
    "1d-straddles-seam": (1, lambda g: _spikes(g, (3, 250)), 0.3),
    "1d-window-fills-axis": (1, lambda g: _spikes(g, (0, 90, 179)), 0.3),
    "1d-window-one-past-axis": (1, lambda g: _spikes(g, (0, 90, 180)), 0.3),
    "1d-window-too-wide": (1, lambda g: _bump_field(g, (0.0,), 10.0), 0.8),
    "1d-all-zero": (1, lambda g: np.zeros(g.shape), 0.3),
    "1d-all-negative-zero": (1, lambda g: -np.zeros(g.shape), 0.3),
    "2d-interior": (2, lambda g: _bump_field(g, (1.0, -2.0), 1.5), 0.3),
    "2d-wraps-edge": (2, lambda g: _bump_field(g, (14.5, 0.5), 1.5), 0.3),
    "2d-window-wraps-corner": (2, lambda g: _bump_field(g, (-13.5, 13.0), 2.0), 0.5),
    "2d-window-too-wide": (2, lambda g: _bump_field(g, (0.0, 3.0), 10.0), 0.8),
    "2d-all-zero": (2, lambda g: np.zeros(g.shape), 0.3),
    "2d-all-negative-zero": (2, lambda g: -np.zeros(g.shape), 0.3),
    "2d-negative-zero-lines-off-bump": (2, lambda g: _with_negative_zero_lines(
        _bump_field(g, (1.0, -2.0), 1.5), row=50, col=5), 0.3),
    "2d-straddles-seam-other-axis": (2, lambda g: _bump_field(g, (1.0, 14.5), 1.5)
                                     + _bump_field(g, (-1.0, -14.8), 1.0), 0.3),
}
# A 1-D slice is split at its support span.  Spans of S random values with
# -0.0 and subnormals inside, at t = 0.3 (m = 38): shorter than, equal to
# and longer than m, odd and even, starting at the first or ending at the
# last point of the axis, and close enough to its ends that the window wraps.
_M = _kernel_1d(0.3, SpatialGrid.make(1, 15.0, 256), KERNEL).size // 2
_WINDOW_CASES.update({f"1d-span-{name}": (1, _signed_span(lo, size), 0.3)
                      for name, (size, lo) in {
    "S=1": (1, 120),
    "S=2": (2, 120),
    "S=m-1": (_M - 1, 100),
    "S=m": (_M, 100),
    "S=m+1": (_M + 1, 100),
    "S-even": (20, 90),
    "S-odd": (21, 90),
    "S-much-longer-than-m": (150, 50),
    "at-left-end": (30, 0),
    "at-right-end": (30, 226),
    "window-fills-axis": (180, 38),
    "window-wraps-left": (30, 5),
    "window-wraps-right": (45, 205),
}.items()})


class TestSupportWindowConvolution:
    """The kernel path convolves only the support window, a 1-D slice split
    into the span's interior and two exteriors; it must equal the full-axis
    convolution bit for bit, signed zeros included."""

    @pytest.mark.parametrize("case", list(_WINDOW_CASES))
    @pytest.mark.parametrize("gradient", [False, True], ids=["evolve", "gradient"])
    def test_bitwise_equal_to_full_axis(self, case, gradient):
        dim, field, t = _WINDOW_CASES[case]
        grid = SpatialGrid.make(dim, 15.0, 256 if dim == 1 else 64)
        values = field(grid)
        op = heat_evolve_gradient if gradient else heat_evolve
        got = op(grid, values, t, KERNEL)
        want = _full_axis_convolution(grid, values, t, gradient)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("gradient", [False, True], ids=["evolve", "gradient"])
    def test_narrow_bump_under_wide_kernel(self, gradient):
        # 1023 support points under a 7243-tap kernel (m = 3621): the shape
        # of the heat-ladder's finest kernel-method level
        grid = SpatialGrid.make(1, 16.0, 16384)
        cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=10.0)
        assert _kernel_1d(0.5, grid, cfg).size == 2 * 3621 + 1
        values = _bump_field(grid, (0.5,), 1.0)
        assert np.count_nonzero(values) == 1023
        op = heat_evolve_gradient if gradient else heat_evolve
        got = op(grid, values, 0.5, cfg)
        want = _full_axis_convolution(grid, values, 0.5, gradient, cfg)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("factor", [8.0, 60.0])
    def test_negative_zero_alone_in_the_span(self, factor):
        # At factor 60 the outer gradient taps underflow to +0.0 while the
        # inner ones keep their sign; those dropped taps decide the sign of
        # an output that sums to zero.
        grid = SpatialGrid.make(1, 64.0, 4096)
        cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=factor)
        for value in (-0.0, -5.0):
            values = np.zeros(grid.shape)
            values[2000] = value
            got = heat_evolve_gradient(grid, values, 0.1, cfg)
            want = _full_axis_convolution(grid, values, 0.1, True, cfg)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _palindromic_signed_span(grid):
    """A _signed_span run followed by its reverse on [90, 150): -0.0 at both
    ends, signed zeros and subnormals inside."""
    half = _signed_span(90, 30)(grid)[90:120]
    values = np.zeros(grid.shape)
    values[90:150] = np.concatenate([half, half[::-1]])
    return values


@pytest.fixture
def exterior_folds(monkeypatch):
    """Sizes of the spans passed to semigroup._exterior_1d, one per call."""
    sizes = []
    fold = semigroup._exterior_1d

    def counted(span, kernel):
        sizes.append(span.size)
        return fold(span, kernel)

    monkeypatch.setattr(semigroup, "_exterior_1d", counted)
    return sizes


# (half extent, points, truncation factor, field, t, gradient, folds).  The
# bump at 0.5 sits on a grid point of the 16384-point axis (the shape of
# test_narrow_bump_under_wide_kernel), so its span is a palindrome bit for
# bit; on the 256-point axis of 1d-interior it does not.  The gradient
# kernel is antisymmetric, never a palindrome.
_FOLD_CASES = {
    "bump-on-grid-point": (16.0, 16384, 10.0, lambda g: _bump_field(g, (0.5,), 1.0),
                           0.5, False, 1),
    "signed-palindrome": (15.0, 256, 8.0, _palindromic_signed_span, 0.3, False, 1),
    "bump-off-grid-point": (15.0, 256, 8.0, _WINDOW_CASES["1d-interior"][1], 0.3, False, 2),
    "gradient-of-bump-on-grid-point": (16.0, 16384, 10.0,
                                       lambda g: _bump_field(g, (0.5,), 1.0), 0.5, True, 2),
}


class TestSingleExteriorFold:
    """A palindromic span under a palindromic kernel folds its exterior once
    and mirrors it; the result must not change by a bit."""

    @pytest.mark.parametrize("case", list(_FOLD_CASES))
    def test_fold_count_and_bits(self, exterior_folds, case):
        half_extent, points, factor, field, t, gradient, folds = _FOLD_CASES[case]
        grid = SpatialGrid.make(1, half_extent, points)
        cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=factor)
        values = field(grid)
        op = heat_evolve_gradient if gradient else heat_evolve
        got = op(grid, values, t, cfg)
        assert len(exterior_folds) == folds
        want = _full_axis_convolution(grid, values, t, gradient, cfg)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("end", [0, -1], ids=["left", "right"])
    def test_signed_zero_ends_fold_twice(self, exterior_folds, end):
        # -0.0 == +0.0, so the span reads the same reversed by value, but
        # not bit for bit: both folds run
        grid = SpatialGrid.make(1, 15.0, 256)
        kernel = _kernel_1d(0.3, grid, KERNEL)
        m = kernel.size // 2
        values = _palindromic_signed_span(grid)
        span = values[90:150]
        assert np.signbit(span[0]) and np.signbit(span[-1]) and span[0] == 0.0
        span[end] = 0.0
        assert np.array_equal(span, span[::-1])
        got = _split_convolve_1d(span, kernel)
        assert len(exterior_folds) == 2
        want = _full_axis_convolution(grid, values, 0.3, False)[90 - m:150 + m]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("t", [1e-3, 0.3, 2.5])
@pytest.mark.parametrize("points", [256, 4096, 16384])
@pytest.mark.parametrize("factor", [6.0, 10.0, 13.5])
def test_kernels_exactly_symmetric_and_antisymmetric(t, points, factor):
    # the split convolution relies on both: the left exterior is the right
    # one's fold on the mirrored kernel (the same fold, mirrored, when the
    # span is a palindrome under the heat kernel), and ndimage must take the
    # same (anti)symmetric loop for the full and the cut kernel
    grid = SpatialGrid.make(1, 16.0, points)
    cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=factor)
    w = _kernel_1d(t, grid, cfg)
    wg = _kernel_gradient_1d(t, grid, cfg)
    assert np.array_equal(w, w[::-1])
    assert np.array_equal(wg, -wg[::-1])
    # the centre taps start every exterior output at +0.0
    assert w[w.size // 2] > 0.0
    assert wg[wg.size // 2] == 0.0 and not np.signbit(wg[wg.size // 2])


def _pairwise_quadrature(grid, values, t):
    """Oracle: one Gaussian per target x source pair, no reuse of offsets."""
    pts = np.stack([m.ravel() for m in grid.meshgrid()], axis=1)
    flat = np.asarray(values, dtype=float).ravel()
    src = flat != 0.0
    d2 = ((pts[:, None, :] - pts[src][None, :, :]) ** 2).sum(axis=2)
    kernel = np.exp(-d2 / (4.0 * t)) * (4.0 * math.pi * t) ** (-grid.dim / 2.0)
    return (kernel @ (flat[src] * grid.cell_volume)).reshape(grid.shape)


def _scattered(grid, count, seed):
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_points)
    values[rng.choice(grid.n_points, count, replace=False)] = rng.standard_normal(count)
    return values.reshape(grid.shape)


def _ring(grid):
    mesh = grid.meshgrid()
    return np.max(np.abs(np.stack(mesh)), axis=0) >= 0.9 * grid.half_extent


class TestDenseEvolveAt:
    """dense_evolve_at against the pairwise formula at rtol 1e-12.

    With mixed-sign sources the bound is 1e-12 times the quadrature of
    |values|, the size of the terms that cancel."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("field", ["bump", "mixed-signs", "scattered", "all-zero"])
    def test_matches_pairwise_formula(self, dim, field):
        grid = SpatialGrid.make(dim, 6.0, 128 if dim == 1 else 40)
        bump = _bump_field(grid, (0.5,) * dim, 1.0)
        values = {"bump": bump,
                  "mixed-signs": bump - 1.5 * _bump_field(grid, (-2.0,) * dim, 0.7),
                  "scattered": _scattered(grid, 9, seed=dim),
                  "all-zero": np.zeros(grid.shape)}[field]
        got = dense_evolve_at(grid, values, 0.4)
        want = _pairwise_quadrature(grid, values, 0.4)
        scale = _pairwise_quadrature(grid, np.abs(values), 0.4)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        if field == "all-zero":
            assert not got.any()

    def test_resolves_deep_tail(self):
        # The annulus fit reads tails far below the truncated kernel's
        # floor; they must stay relatively accurate near 1e-100.
        grid = SpatialGrid.make(1, 16.0, 1024)
        values = _bump_field(grid, (0.0,), 0.5)
        ring = _ring(grid)
        got = dense_evolve_at(grid, values, 0.19)[ring]
        want = _pairwise_quadrature(grid, values, 0.19)[ring]
        assert 0.0 < want.min() < 1e-100
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_traced_peak_memory(self):
        # O(n + S) memory: a (targets x support) block would take 17 MB here.
        grid = SpatialGrid.make(1, 16.0, 16384)
        values = _bump_field(grid, (1.0,), 1.0)
        tracemalloc.start()
        try:
            dense_evolve_at(grid, values, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_point_support(self, dim):
        grid = SpatialGrid.make(dim, 6.0, 128 if dim == 1 else 40)
        values = np.zeros(grid.shape)
        values[(17,) * dim] = -2.5
        got = dense_evolve_at(grid, values, 0.4)
        want = _pairwise_quadrature(grid, values, 0.4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("points", [64, 128, 256])
    def test_2d_equals_gathered_toeplitz_product_bitwise(self, points):
        # The separable product A0 @ (box @ A1.T), A[i] the kernel samples
        # g[i + n - hi : i + n - lo], on the heat-ladder's 2D grids.
        grid = SpatialGrid.make(2, 12.0, points)
        values = _bump_field(grid, (0.5, 0.5), 1.0)
        n, t = points, 0.5
        g = np.exp(-((np.arange(-(n - 1), n) * grid.spacing) ** 2) / (4.0 * t))
        g /= math.sqrt(4.0 * math.pi * t)
        nz = np.nonzero(values)
        span = [(int(ix.min()), int(ix.max()) + 1) for ix in nz]
        box = np.flip(values[tuple(slice(lo, hi) for lo, hi in span)]) * grid.cell_volume
        a0, a1 = (np.stack([g[i + n - hi:i + n - lo] for i in range(n)]) for lo, hi in span)
        want = a0 @ (box @ a1.T)
        got = dense_evolve_at(grid, values, t)
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def annulus_setup():
    grid = SpatialGrid.make(1, 8.0, 1600)
    h = TestFunction((0.0,), 1.0)
    return grid, h.value(grid.axis)


class TestAnnulusDecay:
    def test_fitted_exponent_window(self, annulus_setup):
        grid, h_vals = annulus_setup
        res = annulus_decay_check(grid, h_vals, 0.1, AnnulusScheme(1.0, 1.3, 6))
        assert 0.20 < res.fitted_c <= 0.25
        assert res.r2 >= 0.99
        # the conservative inner-edge slope overshoots the Gaussian threshold
        assert res.inner_edge_c > 0.25

    def test_contraction_on_support(self, annulus_setup):
        grid, h_vals = annulus_setup
        res = annulus_decay_check(grid, h_vals, 0.1, AnnulusScheme(1.0, 1.3, 6))
        h_norm = math.sqrt(det_sum(h_vals**2 * grid.spacing))
        assert res.rows[0].l2_norm <= h_norm

    def test_stability_under_time_doubling(self, annulus_setup):
        grid, h_vals = annulus_setup
        scheme = AnnulusScheme(1.0, 1.3, 6)
        c1 = annulus_decay_check(grid, h_vals, 0.1, scheme).fitted_c
        c2 = annulus_decay_check(grid, h_vals, 0.2, scheme).fitted_c
        assert abs(c2 - c1) / c1 <= 0.10

    def test_insufficient_decay_data(self, annulus_setup):
        grid, h_vals = annulus_setup
        # kappa = 2 pushes all but ~2 annuli below the resolution floor
        with pytest.raises(InsufficientDecayDataError):
            annulus_decay_check(grid, h_vals, 0.02, AnnulusScheme(1.0, 2.0, 2))

    def test_scheme_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            AnnulusScheme(1.0, 1.0, 6)
        with pytest.raises(ValueError, match="kappa"):
            AnnulusScheme(1.0, 2.5, 6)
        with pytest.raises(ValueError, match="annuli"):
            AnnulusScheme(1.0, 1.3, 1)

    def test_outermost_annulus_must_fit(self, annulus_setup):
        grid, h_vals = annulus_setup
        with pytest.raises(DomainTooSmallError):
            annulus_decay_check(grid, h_vals, 0.1, AnnulusScheme(1.0, 1.3, 12))

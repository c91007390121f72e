import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    _convolve,
    _kernel_1d,
    _kernel_gradient_1d,
    dense_evolve_at,
)
from caloric.grid import gradient as fd_gradient, nonzero_box
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


def _frequencies(grid):
    xi = 2.0 * math.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    return xi, xi**2 if grid.dim == 1 else xi[:, None] ** 2 + xi[None, :] ** 2


def _out_of_place_spectral(grid, values, t, gradient):
    """Oracle: the spectral multiplier as one out-of-place expression."""
    xi, xi2 = _frequencies(grid)
    spec = np.fft.fftn(values) * np.exp(-xi2 * t)
    comps = [np.real(np.fft.ifftn(spec if ax is None else spec * (
        1j * xi.reshape([-1 if a == ax else 1 for a in range(grid.dim)]))))
        for ax in (range(grid.dim) if gradient else [None])]
    return np.stack(comps) if gradient else comps[0]


_SPECTRAL_GRIDS = {"1d-1024": (1, 1024), "2d-64": (2, 64), "2d-256": (2, 256)}


class TestSpectralInPlace:
    """The spectral branch works in one complex buffer; every output must
    equal the out-of-place expression bit for bit."""

    @pytest.mark.parametrize("grid_id", list(_SPECTRAL_GRIDS))
    @pytest.mark.parametrize("top", [50.0, 1500.0], ids=["no-underflow", "underflow"])
    @pytest.mark.parametrize("seam", [False, True], ids=["centre", "seam"])
    @pytest.mark.parametrize("gradient", [False, True], ids=["heat", "gradient"])
    def test_bitwise_equal_to_out_of_place(self, grid_id, top, seam, gradient):
        dim, n = _SPECTRAL_GRIDS[grid_id]
        grid = SpatialGrid.make(dim, 8.0, n)
        xi2 = _frequencies(grid)[1]
        t = top / xi2.max()
        # the high modes' multipliers underflow to 0.0, or none does
        mult = np.exp(-xi2 * t)
        assert (mult == 0.0).any() == (top > 745.0) and mult.max() == 1.0
        values = _bump_field(grid, (0.0,) * dim, 1.0)
        if seam:
            values = np.roll(values, n // 2, axis=tuple(range(dim)))
            assert values[(0,) * dim] != 0.0 and values[(-1,) * dim] != 0.0
        evolve = heat_evolve_gradient if gradient else heat_evolve
        got = evolve(grid, values, t, SPECTRAL)
        want = _out_of_place_spectral(grid, values, t, gradient)
        # a view of the complex buffer's real part would keep all of it alive
        assert got.shape == want.shape and got.flags.c_contiguous and got.base is None
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_traced_peak_memory_at_256_squared(self):
        # one complex buffer (1 MiB) and the real result (0.5 MiB) are live;
        # the out-of-place expression peaked at 3.50 MiB
        grid = SpatialGrid.make(2, 12.0, 256)
        values = _bump_field(grid, (1.0, 1.0), 1.0)
        heat_evolve(grid, values, 0.5, SPECTRAL)  # first-call allocations
        tracemalloc.start()
        try:
            heat_evolve(grid, values, 0.5, SPECTRAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2**20


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
# Spans of S random values with -0.0 and subnormals inside, at t = 0.3
# (m = 38): shorter than, equal to and longer than m, odd and even, starting
# at the first or ending at the last point of the axis, and close enough to
# its ends that the window wraps.
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


def _window_grid(dim):
    return SpatialGrid.make(dim, 15.0, 256 if dim == 1 else 64)


def _kernels(grid, t, cfg=KERNEL):
    return {"heat": _kernel_1d(t, grid, cfg), "gradient": _kernel_gradient_1d(t, grid, cfg)}


def _support_box(values):
    return nonzero_box((values != 0.0) | np.signbit(values))


def _window(values, m, axis):
    """Mask of the outputs of the support window along *axis*: the window
    [lo - m, hi + m) (mod n) of the support box's span, on the box's lines
    across it; None when the window is wider than the axis (the wrap
    branch)."""
    n = values.shape[axis]
    box = _support_box(values)
    lo, hi = box[axis].start, box[axis].stop
    if hi - lo + 2 * m > n:
        return None
    along = np.zeros(n, dtype=bool)
    along[np.arange(lo - m, hi + m) % n] = lo < hi
    lines = np.zeros(values.shape, dtype=bool)
    lines[box] = True
    others = tuple(a for a in range(values.ndim) if a != axis)
    return lines.any(axis=axis, keepdims=True) & np.expand_dims(along, others)


def _check_window_structure(values, kernel, axis):
    """_convolve(values, kernel, axis) and whether it took the window:
    outputs off the window are +0.0 and none on it is -0.0; the wrap
    branch is ndimage over the whole periodic axis, bit for bit."""
    got = _convolve(values, kernel, axis)
    inside = _window(values, kernel.size // 2, axis)
    if inside is None:
        want = ndimage.convolve1d(values, kernel, axis=axis, mode="wrap")
        assert got.tobytes() == want.tobytes()
        return got, False
    assert not got.view(np.int64)[~inside].any()
    assert not (np.signbit(got) & (got == 0.0)).any()
    return got, True


def _check_shift(values, kernel, axis, shift, got):
    """Rolling the field by *shift* (one entry per axis, across the seam
    too) rolls a windowed result bit for bit, whenever every line's span
    along *axis* keeps its values: the bits depend on neither the span's
    place on the axis (its offset in the buffer) nor its line.  Whether the
    spans kept their values is returned."""
    axes = tuple(range(values.ndim))
    rolled = np.roll(values, shift, axis=axes)
    across = np.roll(values, [0 if a == axis else s for a, s in enumerate(shift)], axis=axes)
    span, moved = _support_box(values)[axis], _support_box(rolled)[axis]
    if (np.take(rolled, np.arange(moved.start, moved.stop), axis).tobytes()
            != np.take(across, np.arange(span.start, span.stop), axis).tobytes()):
        return False
    want = np.roll(got, shift, axis=axes)
    assert _convolve(rolled, kernel, axis).tobytes() == want.tobytes()
    return True


def _check_lines_match_1d(values, kernel, axis, got):
    """Each line of a windowed 2-D result is the 1-D result for that line
    over the box's span [lo, hi), bit for bit.  A line whose own support is
    narrower gets -0.0 at the span's ends: -0.0 is support, and since every
    window sum starts from +0.0, a -0.0 term changes none of its bits."""
    box = _support_box(values)
    lo, hi = box[axis].start, box[axis].stop
    across = 1 - axis
    for j in range(box[across].start, box[across].stop):
        line = np.take(values, j, axis=across).copy()
        for end in (lo, hi - 1):
            if line[end] == 0.0:
                line[end] = -0.0
        assert _support_box(line) == (slice(lo, hi),)
        want = _convolve(line, kernel, 0)
        assert np.take(got, j, axis=across).tobytes() == want.tobytes()


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: a dot of k terms
    rounded in any order is within gamma_k * sum |terms| of the exact one
    (Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


class TestWindowConvolution:
    """The kernel operator convolves each occupied line's support span
    alone with np.convolve and writes its hi - lo + 2m outputs into the
    window [lo - m, hi + m) of the periodic axis; a window wider than the
    axis takes ndimage's wrap-around convolution of the whole axis."""

    @pytest.mark.parametrize("case", list(_WINDOW_CASES))
    @pytest.mark.parametrize("kernel", ["heat", "gradient"])
    def test_zero_off_the_window_and_never_negative_zero(self, case, kernel):
        dim, field, t = _WINDOW_CASES[case]
        grid = _window_grid(dim)
        values, w = field(grid), _kernels(grid, t)[kernel]
        for axis in range(dim):
            _check_window_structure(values, w, axis)

    @pytest.mark.parametrize("case", [c for c in _WINDOW_CASES if not any(
        wrap in c for wrap in ("too-wide", "straddles", "one-past", "negative-zero"))])
    @pytest.mark.parametrize("kernel", ["heat", "gradient"])
    def test_shifted_support_shifts_the_bits(self, case, kernel):
        # shifts of 1 to 3 points move the span to every 8-byte offset
        # modulo a 32-byte vector; the larger ones carry the support or its
        # window across the seam
        dim, field, t = _WINDOW_CASES[case]
        grid = _window_grid(dim)
        values, w = field(grid), _kernels(grid, t)[kernel]
        n = grid.points_per_axis
        for axis in range(dim):
            got, windowed = _check_window_structure(values, w, axis)
            assert windowed
            for s in (1, 2, 3, 17, n // 2, n - 5):
                shift = (s, 3 * s % n)[:dim]
                _check_shift(values, w, axis, shift, got)
            # the window, not the support, crosses the seam on the left and
            # on the right
            box = _support_box(values)[axis]
            if box.start < box.stop and box.stop - box.start <= n - w.size // 2:
                m = w.size // 2
                for s in (m // 2 - box.start, n - m // 2 - box.stop):
                    shift = [0] * dim
                    shift[axis] = s
                    assert _check_shift(values, w, axis, tuple(shift), got)

    @pytest.mark.parametrize("case", [c for c in _WINDOW_CASES if c.startswith("2d-")])
    @pytest.mark.parametrize("kernel", ["heat", "gradient"])
    def test_each_2d_line_is_its_1d_result(self, case, kernel):
        _, field, t = _WINDOW_CASES[case]
        grid = _window_grid(2)
        values, w = field(grid), _kernels(grid, t)[kernel]
        for axis in (0, 1):
            got, windowed = _check_window_structure(values, w, axis)
            if windowed:
                _check_lines_match_1d(values, w, axis, got)

    @pytest.mark.parametrize("dim,size,lo,t", [
        (1, 1, 30, 0.05), (1, 5, 60, 0.2), (1, 40, 10, 0.05), (1, 20, 0, 0.2),
        (2, 3, 7, 0.05), (2, 6, 12, 0.05)])
    @pytest.mark.parametrize("kernel", ["heat", "gradient"])
    def test_within_dot_error_of_exact_sum(self, dim, size, lo, t, kernel):
        # normal values (no underflow), so Higham's bound holds for every
        # output: |got - exact| <= gamma_{2m+2} * sum |w x|
        grid = SpatialGrid.make(dim, 8.0, 64 if dim == 1 else 16)
        w = _kernels(grid, t)[kernel]
        m, n = w.size // 2, grid.points_per_axis
        rng = np.random.default_rng(size * 64 + lo)
        values = np.zeros(grid.shape)
        run = np.ix_(*[(lo + np.arange(size)) % n] * dim)
        values[run] = rng.standard_normal(values[run].shape) * 10.0 ** rng.integers(-3, 3, size)
        taps = [Fraction(float(c)) for c in w]
        for axis in range(dim):
            got = np.moveaxis(_convolve(values, w, axis), axis, -1)
            x = np.moveaxis(values, axis, -1)
            for line in np.ndindex(x.shape[:-1]):
                data = [Fraction(float(v)) for v in x[line]]
                for i in range(n):
                    terms = [taps[d + m] * data[(i - d) % n] for d in range(-m, m + 1)]
                    bound = Fraction(_gamma(2 * m + 2)) * sum(map(abs, terms))
                    assert abs(Fraction(float(got[line][i])) - sum(terms)) <= bound

    @pytest.mark.parametrize("gradient", [False, True], ids=["heat", "gradient"])
    def test_heat_ladder_shape_within_twice_the_dot_error_of_ndimage(self, gradient):
        # 1023 support points under a 7243-tap kernel (m = 3621): the shape
        # of the heat-ladder's finest kernel-method level.  The window and
        # ndimage's full-axis sum each lie within gamma_{2m+2} * sum |w x|
        # of the exact sum.
        grid = SpatialGrid.make(1, 16.0, 16384)
        cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=10.0)
        w = _kernels(grid, 0.5, cfg)["gradient" if gradient else "heat"]
        assert w.size == 2 * 3621 + 1
        values = _bump_field(grid, (0.5,), 1.0)
        assert np.count_nonzero(values) == 1023
        got, windowed = _check_window_structure(values, w, 0)
        assert windowed
        op = heat_evolve_gradient if gradient else heat_evolve
        assert op(grid, values, 0.5, cfg).tobytes() == got.tobytes()
        want = _full_axis_convolution(grid, values, 0.5, gradient, cfg)
        scale = ndimage.convolve1d(np.abs(values), np.abs(w), mode="wrap")
        assert (np.abs(got - want.reshape(got.shape)) <= 2.0 * _gamma(w.size + 1) * scale).all()


# Values of a sparse field: signed zeros, subnormals and finite doubles of
# every size (no sum of kernel-weighted values can overflow).
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0]),
                    st.floats(-1e300, 1e300))


@st.composite
def _sparse_fields(draw):
    """(grid, values, t): a 1-D or 2-D field on L = 8 under a kernel
    half-width m from 1 to the widest the reach check admits (m - 1/2 taps
    of spacing dx reach at most L/2).  The support is a few points (none,
    one, or several anywhere, the axis ends included) or a run of drawn
    values, a box in 2-D, that may wrap round the periodic seam."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([32, 64, 128] if dim == 1 else [16, 32]))
    grid = SpatialGrid.make(dim, 8.0, n)
    values = np.zeros(grid.shape)
    if draw(st.booleans()):
        for point in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * dim), max_size=4)):
            values[point] = draw(_VALUES)
    else:
        run = np.ix_(*[(draw(st.integers(0, n - 1)) + np.arange(draw(st.integers(1, n)))) % n
                       for _ in range(dim)])
        cycle = draw(st.lists(_VALUES, min_size=1, max_size=6))
        values[run] = np.resize(cycle, values[run].shape)
    m = draw(st.integers(1, int(grid.half_extent / 2 / grid.spacing + 0.5)))
    return grid, values, ((m - 0.5) * grid.spacing / 8.0) ** 2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_sparse_fields(), gradient=st.booleans(), axis=st.integers(0, 1),
       shift=st.tuples(st.integers(0, 127), st.integers(0, 127)))
def test_window_convolution_structure_property(case, gradient, axis, shift):
    # zeros off the window, no -0.0 on it, bits that follow a shifted
    # support and 2-D lines that are their 1-D results; the wrap branch is
    # ndimage's full-axis convolution
    grid, values, t = case
    axis %= grid.dim
    w = _kernels(grid, t)["gradient" if gradient else "heat"]
    got, windowed = _check_window_structure(values, w, axis)
    if windowed:
        _check_shift(values, w, axis, shift[:grid.dim], got)
        if grid.dim == 2:
            _check_lines_match_1d(values, w, axis, got)


def _assert_kernels_exactly_symmetric_and_antisymmetric(t, half_extent, points, factor):
    # properties of the kernels themselves: the heat kernel is exactly
    # symmetric, and the gradient kernel exactly antisymmetric and zero-sum,
    # so constants map to exactly zero; the wrap-around branch's ndimage
    # loop also takes its (anti)symmetric path on them.  Bitwise, signs of
    # zeros included: the heat kernel reads the same reversed, and the
    # gradient kernel has w[k] == -w[2m - k] at every tap but the centre,
    # which is +0.0 (its negation, -0.0, is the one exception)
    grid = SpatialGrid.make(1, half_extent, points)
    cfg = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=factor)
    w = _kernel_1d(t, grid, cfg)
    assert np.array_equal(w.view(np.int64), w[::-1].view(np.int64))
    wg = _kernel_gradient_1d(t, grid, cfg)
    m = wg.size // 2
    off_centre = np.arange(wg.size) != m
    assert np.array_equal(wg.view(np.int64)[off_centre],
                          (-wg[::-1]).view(np.int64)[off_centre])
    assert w[m] > 0.0
    assert wg.view(np.int64)[m] == 0  # +0.0


@pytest.mark.parametrize("t", [1e-3, 0.3, 2.5])
@pytest.mark.parametrize("points", [256, 4096, 16384])
@pytest.mark.parametrize("factor", [6.0, 10.0, 13.5])
def test_kernels_exactly_symmetric_and_antisymmetric(t, points, factor):
    _assert_kernels_exactly_symmetric_and_antisymmetric(t, 16.0, points, factor)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(t=st.floats(1e-3, 4.0), half_extent=st.floats(1.0, 40.0),
       points=st.integers(16, 16384), factor=st.floats(6.0, 16.0))
# the kernels of criterion 2's homotopy ladder (t - s = 0.5)
@example(t=0.5, half_extent=16.0, points=4096, factor=10.0)
@example(t=0.5, half_extent=16.0, points=8192, factor=10.0)
@example(t=0.5, half_extent=16.0, points=16384, factor=10.0)
def test_kernel_symmetry_property(t, half_extent, points, factor):
    _assert_kernels_exactly_symmetric_and_antisymmetric(t, half_extent, points, factor)


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

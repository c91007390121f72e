"""The heat semigroup e^{tL} (L = Laplacian) and its spatial gradient.

Grids are periodic (:class:`~caloric.grid.SpatialGrid`), so both
realizations act on the torus [-L, L)^n.  Two interchangeable discrete
realizations are provided and every representation-level experiment is
expected to pass with both, so that a discretization artifact cannot
masquerade as a verified identity:

* ``kernel_quadrature`` - convolution with cell averages of the Gaussian
  kernel (4 pi t)^{-n/2} exp(-|x-y|^2 / 4t) (exact erf differences per cell,
  so the discrete operator carries a clean O(dx^2) consistency error),
  truncated at a configurable multiple of sqrt(t) (default 8, dropped mass
  ~e^{-16}) and renormalized to unit discrete mass, which restores exact
  preservation of constants.  It is applied axis by axis as a direct
  convolution (``ndimage.convolve1d``) restricted to the window the
  support can reach; the result is bit-identical to convolving the whole
  grid, so rounding-level invariants (mass, maximum principle, exact
  zeros far from the support) are those of the direct sum.  A 2-D slice
  also convolves only the lines from the first to the last one that its
  support occupies along the other axis: a bump under a wide kernel costs
  its own lines on the first axis and the first pass's window on the
  second, not whole slices, and the skipped lines are all +0.0, whose
  outputs are +0.0.  A 1-D slice is split at its support span [lo, hi):
  the outputs on the span come from the kernel cut to the span's width,
  and those on either side from one ``ndimage.correlate1d`` with data and
  kernel swapped, so a narrow support under a wide kernel costs about
  (S + 2m) * S taps instead of (S + 2m) * m (S support points, m kernel
  half-width).  The split
  reproduces ndimage's own summation order, which the oracle tests in
  ``tests/test_semigroup.py`` guard, and needs both kernels to be exactly
  symmetric (heat) or antisymmetric (gradient).  When the span and the
  kernel both read the same reversed, bit for bit, the left exterior's
  inputs are the right one's, so that fold runs once and is mirrored.  No
  FFT: its round-off spreads over the whole grid and is amplified wherever
  the evolved function is paired with fast-growing data.
* ``spectral_multiplier`` - multiplication of discrete Fourier modes by
  exp(-|xi|^2 t).

:func:`heat_evolve` and :func:`heat_evolve_gradient` share one evaluation
path, ``_evolve``: it checks the time and the kernel reach, branches on the
method, and builds each kernel once per call, only if an output applies it
(a 1-D gradient needs the gradient kernel alone).

:func:`annulus_decay_check` measures the off-support decay
||e^{tL} h||_{L2(C_j)} ~ exp(-c d_j^2 / t) on a geometric annulus family and
fits the exponent c, which should land just under the Gaussian threshold 1/4.
It evaluates the evolution with :func:`dense_evolve_at`, untruncated point
quadrature of the kernel representation over supp(h), because the fitted
tail lives many orders of magnitude below the truncated kernel's floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import DomainTooSmallError, InsufficientDecayDataError
from .grid import SpatialGrid, masked_sums
from .optrack import track
from .util import det_sum, linear_fit

Array = NDArray[np.float64]


@dataclass(frozen=True)
class HeatOperatorConfig:
    """Discrete realization of e^{tL}."""

    method: str = "kernel_quadrature"
    truncation_radius_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.method not in ("kernel_quadrature", "spectral_multiplier"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.truncation_radius_factor < 6.0:
            raise ValueError("truncation_radius_factor must be >= 6")


@dataclass(frozen=True)
class AnnulusScheme:
    """Geometric annuli around the support ball B(0, rho).

    C_0 = B(0, kappa*rho) and C_j = {kappa^j rho <= |x| < kappa^{j+1} rho}
    for 1 <= j <= count, with d_j = dist(C_j, supp h).
    """

    rho: float
    kappa: float
    count: int

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 1.0 < self.kappa <= 2.0:
            raise ValueError("need 1 < kappa <= 2")
        if self.count < 2:
            raise ValueError("need at least 2 annuli")

    def outer_radius(self, j: int) -> float:
        return self.kappa ** (j + 1) * self.rho

    def inner_radius(self, j: int) -> float:
        return 0.0 if j == 0 else self.kappa**j * self.rho

    def distance_to_support(self, j: int) -> float:
        return 0.0 if j == 0 else max(self.inner_radius(j) - self.rho, 0.0)

    def midpoint_distance(self, j: int) -> float:
        """Distance from supp h to the annulus's radial midpoint (bin center)."""
        mid = 0.5 * (self.inner_radius(j) + self.outer_radius(j))
        return max(mid - self.rho, 0.0)


def _cell_edges(t: float, grid: SpatialGrid, cfg: HeatOperatorConfig) -> Array:
    """Edges (j - 1/2) dx, j = -m .. m + 1, of the 2m + 1 kernel cells, where
    m = ceil(truncation_radius_factor * sqrt(t) / dx)."""
    m = int(ceil(cfg.truncation_radius_factor * sqrt(t) / grid.spacing))
    return (np.arange(-m, m + 2, dtype=float) - 0.5) * grid.spacing


def _kernel_1d(t: float, grid: SpatialGrid, cfg: HeatOperatorConfig) -> Array:
    """Cell-averaged Gaussian weights w_m = int_{cell m} G_t (erf differences),
    normalized to unit discrete mass."""
    from scipy.special import erf

    w = 0.5 * np.diff(erf(_cell_edges(t, grid, cfg) / sqrt(4.0 * t)))
    return w / det_sum(w)


def _kernel_gradient_1d(t: float, grid: SpatialGrid, cfg: HeatOperatorConfig) -> Array:
    """Cell averages of the gradient kernel: exact G_t differences at cell edges.

    int_cell d_y G_t = G_t(edge+) - G_t(edge-): antisymmetric and exactly
    zero-sum (telescoping), so constants map to exactly zero.
    """
    edges = _cell_edges(t, grid, cfg)
    return np.diff(np.exp(-(edges**2) / (4.0 * t)) / sqrt(4.0 * pi * t))


def _occupied(support: NDArray[np.bool_], axis: int) -> NDArray[np.bool_]:
    """Per index along *axis*: whether its hyperplane holds a point of *support*."""
    return support.any(axis=tuple(ax for ax in range(support.ndim) if ax != axis))


def _support_span(occupied: NDArray[np.bool_], m: int) -> tuple[int, int] | None:
    """Span [lo, hi) of the *occupied* indices of an axis, or None when its
    window is too wide.

    [lo, hi) runs from the first to the last occupied index; the support
    counts -0.0 as nonzero, so every value outside it is +0.0.  No occupied
    index gives an empty span.  None means the window [lo - m, hi + m),
    hi - lo + 2m points, is wider than the axis and would overlap itself
    (this includes a support straddling the periodic seam, whose span is
    nearly the whole axis).
    """
    n = occupied.size
    if np.count_nonzero(occupied) + 2 * m > n:  # a span is at least its count wide
        return None
    idx = np.flatnonzero(occupied)
    if idx.size == 0:
        return 0, 0
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return None if hi - lo + 2 * m > n else (lo, hi)


def _exterior_1d(span: Array, kernel: Array) -> Array:
    """Outputs hi .. hi + m - 1 (just right of the span) of the convolution.

    For such an output p, ndimage's symmetric (antisymmetric) loop starts
    from 0.0 * c[0] = +0.0 (the centre tap of both heat kernels is positive
    or +0.0) and adds x[q] * c[q - p] for the support points q in ascending
    order, c = kernel[::-1].  Swapping data and kernel yields the same
    products in the same order: the reversed kernel's left half is the
    input, the last M support values are the weights.  The weights are
    zero-padded to an even length so that ndimage skips its symmetry test
    (whose absolute DBL_EPSILON tolerance tiny bump-edge values could pass)
    and runs the general loop, which adds the last tap - a padding zero -
    first and then the others in ascending order.  The outputs come out
    mirrored.  A sum that starts at +0.0 never becomes -0.0 (zeros of
    opposite sign and exact cancellations both give +0.0); ``+ 0.0``
    restores that for the swapped sum, which may start at -0.0.
    """
    from scipy import ndimage

    m = kernel.size // 2
    M = min(span.size, m)
    taps = np.zeros(M + 2 - M % 2)
    taps[:M] = span[span.size - M:]
    out = ndimage.correlate1d(kernel[:m:-1], taps, mode="constant", cval=0.0,
                              origin=M - 1 - taps.size // 2)
    return out[::-1] + 0.0


def _split_convolve_1d(span: Array, kernel: Array) -> Array:
    """Convolution of a 1-D support span with zeros around it: hi - lo + 2m points.

    Bit-identical to ``ndimage.convolve1d`` on the zero-padded window at a
    cost of about (S + 2m) * M taps instead of (S + 2m) * m, S = hi - lo,
    M = min(S, m).  The interior (outputs on the span) uses the kernel cut
    to 2M + 1 taps.  ndimage adds the tap pairs of a symmetric or
    antisymmetric kernel from the farthest inward, and for these outputs
    every pair past M is a zero with the sign of its tap; if one of them is
    +0.0 it turns a -0.0 start into +0.0 and no later term can make the sum
    -0.0 again, so ``+ 0.0`` stands in for them.  Each exterior is one
    :func:`_exterior_1d` fold, the left one on the mirrored span and kernel.
    When span and kernel are both palindromes bit for bit (a heat kernel
    under a support centred on a grid point), the mirrored fold gets the
    right one's input bits, so the right fold is computed once and
    reversed.  Relies on the kernel being exactly symmetric or
    antisymmetric, as both heat kernels are.
    """
    from scipy import ndimage

    m = kernel.size // 2
    M = min(span.size, m)
    inner = ndimage.convolve1d(span, kernel[m - M:m + M + 1], mode="constant", cval=0.0)
    if not np.signbit(kernel[m + M + 1:]).all():
        inner += 0.0
    right = _exterior_1d(span, kernel)
    if _is_palindrome(span) and _is_palindrome(kernel):
        left = right[::-1]
    else:
        left = _exterior_1d(span[::-1], kernel[::-1])[::-1]
    return np.concatenate([left, inner, right])


def _is_palindrome(x: Array) -> bool:
    """Whether *x* reads the same reversed, bit for bit (-0.0 is not +0.0)."""
    bits = x.view(np.int64)
    return np.array_equal(bits, bits[::-1])


def _convolve(values: Array, kernel: Array, axis: int) -> Array:
    # ndimage.convolve1d flips the kernel (true convolution); our kernels are
    # indexed by the offset x - y, so orientation matters for the gradient.
    # Each output is a fixed-order sum over its own 2m+1 neighbours, so
    # convolving only the support window [lo - m, hi + m) and leaving +0.0
    # elsewhere is bit-identical to convolving the whole axis.  A 1-D slice
    # is split at the span (interior plus two exteriors, see
    # _split_convolve_1d), which depends on ndimage's loop order; the tests
    # compare both paths with the full-axis convolution bit for bit.  The
    # axis is periodic, so the linear window is taken modulo n.  A 2-D slice
    # convolves each line along *axis* on its own, so only the lines from
    # the first to the last one the support occupies along the other axis
    # are convolved: an all-+0.0 line sums +0.0 * c terms from a +0.0 start
    # and gives +0.0 outputs, which the zero field already holds.
    from scipy import ndimage

    m = kernel.size // 2
    support = (values != 0.0) | np.signbit(values)
    span = _support_span(_occupied(support, axis), m)
    if span is None:
        return ndimage.convolve1d(values, kernel, axis=axis, mode="wrap")
    out = np.zeros_like(values)
    lo, hi = span
    if lo == hi:
        return out
    window = np.arange(lo - m, hi + m) % values.shape[axis]
    if values.ndim == 1:
        out[window] = _split_convolve_1d(values[lo:hi], kernel)
        return out
    occupied = np.flatnonzero(_occupied(support, 1 - axis))
    lines = slice(occupied[0], occupied[-1] + 1)
    put = (window, lines) if axis == 0 else (lines, window)
    out[put] = ndimage.convolve1d(values[put], kernel, axis=axis, mode="constant", cval=0.0)
    return out


def _evolve(grid: SpatialGrid, values: Array, t: float, cfg: HeatOperatorConfig,
            axes: tuple[int | None, ...]) -> list[Array]:
    """The one evaluation path of e^{tL}: per entry of *axes*, e^{tL} values
    for None and d/dx_axis e^{tL} values for an axis.

    Each kernel is built once, and only if some output applies it: the heat
    kernel on every axis but the differentiated one, the gradient kernel on
    that one.
    """
    values = np.asarray(values, dtype=float)
    if t <= 0:
        raise ValueError(f"evolution time must be positive, got {t}")
    if cfg.method == "spectral_multiplier":
        xi = 2.0 * pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
        xi2 = xi**2 if grid.dim == 1 else xi[:, None] ** 2 + xi[None, :] ** 2
        spec = np.fft.fftn(values) * np.exp(-xi2 * t)
        # d/dx_ax multiplies each mode by i xi_ax
        return [np.real(np.fft.ifftn(spec if ax is None else spec * (
            1j * xi.reshape([-1 if a == ax else 1 for a in range(grid.dim)])))) for ax in axes]
    reach = cfg.truncation_radius_factor * sqrt(t)
    if reach > grid.half_extent / 2 + 1e-12:
        raise DomainTooSmallError(
            f"kernel radius {reach:.3g} exceeds half of the grid half-extent "
            f"({grid.half_extent / 2:.3g}); enlarge the grid or reduce t")
    w = _kernel_1d(t, grid, cfg) if grid.dim > 1 or None in axes else None
    wg = _kernel_gradient_1d(t, grid, cfg) if axes.count(None) < len(axes) else None
    outs = []
    for ax in axes:
        out = values
        for other in range(grid.dim):
            out = _convolve(out, wg if other == ax else w, other)
        outs.append(out)
    return outs


@track("heat_evolve")
def heat_evolve(grid: SpatialGrid, values: Array, t: float,
                cfg: HeatOperatorConfig) -> Array:
    """Apply the discrete heat semigroup at time t to a spatial slice."""
    return _evolve(grid, values, t, cfg, (None,))[0]


@track("heat_evolve_gradient")
def heat_evolve_gradient(grid: SpatialGrid, values: Array, t: float,
                         cfg: HeatOperatorConfig) -> Array:
    """Gradient of the evolved slice; returns shape (dim, *grid.shape)."""
    return np.stack(_evolve(grid, values, t, cfg, tuple(range(grid.dim))))


def dense_evolve_at(grid: SpatialGrid, values: Array, t: float) -> Array:
    """Untruncated kernel quadrature over the support of *values*.

    Evaluates (e^{tL} values)(x) = sum_y G_t(x - y) values(y) dx^dim, with
    the free-space Gaussian and no truncation, at every grid point.  Resolves
    tails down to the underflow floor.  Used by the annulus decay fit.

    On the uniform grid x_i - y_r = (i - r) dx, so the 1D kernel is sampled
    once per offset (2n - 1 exps); over the bounding box [lo, hi) of the
    nonzeros, output i is the Toeplitz row g[i - r + n - 1], r in [lo, hi),
    dotted with the values.  In 1D that is one ``np.correlate`` of the
    sampled kernel with the flipped box (O(n + S) memory for S box points,
    no Toeplitz copy).  The 2D kernel is separable, A0 @ box @ A1.T, with
    each gathered factor (n x S) no larger than the n x n result.
    """
    values = np.asarray(values, dtype=float)
    n = grid.points_per_axis
    offsets = np.arange(-(n - 1), n) * grid.spacing
    g = np.exp(-(offsets**2) / (4.0 * t)) / sqrt(4.0 * pi * t)
    nz = np.nonzero(values)
    if nz[0].size == 0:
        return np.zeros(grid.shape)
    span = [(int(ix.min()), int(ix.max()) + 1) for ix in nz]
    # Flipping the box turns each Toeplitz row g[i - r + n - 1], r in
    # [lo, hi), into the contiguous slice g[i + n - hi : i + n - lo].
    box = np.flip(values[tuple(slice(lo, hi) for lo, hi in span)]) * grid.cell_volume
    if grid.dim == 2:
        # Contiguous copies: matmul hands BLAS only arrays whose rows do not
        # overlap, and would otherwise take a slower loop with other bits.
        a0, a1 = (sliding_window_view(g, hi - lo)[n - hi:2 * n - hi].copy()
                  for lo, hi in span)
        return a0 @ (box @ a1.T)
    lo, hi = span[0]
    return np.correlate(g[n - hi:2 * n - lo - 1], box, "valid")


@dataclass(frozen=True)
class AnnulusDecayRow:
    j: int
    distance: float
    l2_norm: float
    used_in_fit: bool


@dataclass(frozen=True)
class AnnulusDecayResult:
    rows: tuple[AnnulusDecayRow, ...]
    fitted_c: float
    log_prefactor: float
    r2: float
    window_ok: bool  # fitted exponent inside (0.20, 0.25]
    inner_edge_c: float  # slope using the conservative inner-edge distances


# Annuli with L2 norm below this are quadrature noise and excluded from the fit.
_NORM_FLOOR = 100.0 * np.finfo(float).eps


@track("annulus_decay_check")
def annulus_decay_check(grid: SpatialGrid, h_values: Array, t: float,
                        scheme: AnnulusScheme) -> AnnulusDecayResult:
    """Fit the off-support decay exponent of e^{tL} h over geometric annuli.

    The exponent is the slope of log ||e^{tL}h||_{L2(C_j)} against -d_j^2/t
    over j >= 2, where the fit attributes each shell-integrated norm to the
    annulus's radial midpoint (the unbiased bin-center convention; the
    conservative inner-edge distance, the right object for *proving* the
    bound, systematically overshoots 1/4 in a fit because the prefactor of
    the Gaussian tail decays - that slope is reported as inner_edge_c).
    Under-resolved annuli (norm below 100*eps) are dropped; fewer than 3
    usable annuli raise InsufficientDecayDataError.
    """
    h_values = np.asarray(h_values, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    outer = scheme.outer_radius(scheme.count)
    if outer > grid.half_extent + 1e-12:
        raise DomainTooSmallError(
            f"outermost annulus radius {outer:.3g} exceeds grid extent {grid.half_extent}")
    evolved = dense_evolve_at(grid, h_values, t)
    r = grid.distance_to((0.0,) * grid.dim)
    rows: list[AnnulusDecayRow] = []
    fit_z: list[float] = []
    fit_z_edge: list[float] = []
    fit_y: list[float] = []
    for j in range(scheme.count + 1):
        mask = (r >= scheme.inner_radius(j)) & (r < scheme.outer_radius(j))
        norm = sqrt(max(masked_sums(grid, mask, evolved, evolved, grid.cell_volume), 0.0))
        usable = j >= 2 and norm > _NORM_FLOOR
        rows.append(AnnulusDecayRow(j, scheme.distance_to_support(j), norm, usable))
        if usable:
            fit_z.append(-scheme.midpoint_distance(j) ** 2 / t)
            fit_z_edge.append(-scheme.distance_to_support(j) ** 2 / t)
            fit_y.append(np.log(norm))
    if len(fit_z) < 3:
        raise InsufficientDecayDataError(
            f"only {len(fit_z)} annuli usable for the decay fit; need >= 3")
    slope, intercept, r2 = linear_fit(fit_z, fit_y)
    edge_slope, _, _ = linear_fit(fit_z_edge, fit_y)
    window_ok = 0.20 < slope <= 0.25
    return AnnulusDecayResult(tuple(rows), slope, intercept, r2, window_ok, edge_slope)

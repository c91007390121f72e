"""Exact caloric functions and initial data - the ground-truth corpus.

Every member evaluates its value u(t, x) in closed form, so measurements
can be checked against quantities with no discretization error of their
own.  The Gaussian kernel, the eigenmode and the flat series also give their
spatial gradient in closed form (the flux functional needs it;
tests/test_zoo.py compares each with central differences of the value).

An initial datum u0 evaluates the same way: its ``value(t, x)`` is the
closed-form evolution e^{tL} u0, so ``evolve_datum_exact`` samples it
through ``sample_solution`` like any member.  Traces live on the data only:
``sample`` gives u0 on a grid and ``initial_function`` gives it pointwise
for the exact pairing (a point mass pairs by point value instead).

The flat-series member deserves its own warning label.  It is the classical
nonuniqueness witness sum_k f^(k)(t) x^{2k} / (2k)! with f(t) = e^{-1/t},
where the evaluator contract is the K-term partial sum plus a truncation
flag.  Derivatives come from the Cauchy integral on the circle of radius t/2
(inside the analyticity half-plane).  Caveats, checked against a 60-digit
mpmath evaluation of the series (tests/test_zoo.py):

* the infinite series has zero initial trace only on |x| < 2 for this flat
  function (t -> 0 decay like exp(-(1-|x|/2)^2/t)); compact-support probes
  of the vanishing trace must therefore live inside (-2, 2);
* the convergence budget depends on a = x^2/(4t) alone (term k is roughly
  a^k / k!), not on x/t.  At K = 40 and t in [0.02, 1]: where a <= 8 the
  flag stays off and the value matches the exact partial sum to 1e-8 and
  the full series to 1e-13 (relative); from a = 10 on the flag fires; for
  t >= 0.1 the truncation error passes 1e-3 near a = 16 and swamps the
  value by a = 20;
* the counterexample experiments deliberately measure the flagged,
  super-exponentially growing truncated object.  There the value matches
  the exact partial sum to about 1e-3 at t <= 0.05 and 1% at t = 0.1, but
  only to 40% at t = 1 (worst near a = 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, pi, sqrt
from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .grid import SpaceTimeField, SpatialGrid
from .optrack import track
from .probes import SchwartzProbe, evolve_gauss_poly
from .util import det_sum

Array = NDArray[np.float64]


def heat_kernel(t: float, r2: Array, dim: int) -> Array:
    """Fundamental solution (4 pi t)^{-n/2} exp(-r^2/4t), evaluated in one
    array; a scalar r2 gives a numpy scalar."""
    k = np.array(r2, dtype=float)
    np.negative(k, out=k)
    k /= 4.0 * t
    np.exp(k, out=k)
    k *= (4.0 * pi * t) ** (-dim / 2.0)
    return k[()]


def _phase(axes, coeffs) -> Array:
    """The linear phase sum_i coeffs[i] * axes[i], broadcast over the axes."""
    p = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in axes)))
    for a, c in zip(axes, coeffs):
        p = p + c * np.asarray(a, dtype=float)
    return p


@dataclass(frozen=True)
class GaussianKernelSolution:
    """u(t, x) = Phi(t0 + t, x - x0): the fundamental solution started at -t0."""

    t0: float
    x0: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def label(self) -> str:
        if self.x0 == (0.0,):
            return f"gaussian_kernel(t0={self.t0:g})"
        return f"gaussian_kernel(t0={self.t0:g},x0={','.join(f'{c:g}' for c in self.x0)})"

    def _r2(self, axes) -> Array:
        r2 = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in axes)))
        for a, c in zip(axes, self.x0):
            r2 = r2 + (np.asarray(a, dtype=float) - c) ** 2
        return r2

    def value(self, t: float, *axes: Array) -> Array:
        return heat_kernel(self.t0 + t, self._r2(axes), self.dim)

    def gradient(self, t: float, *axes: Array) -> tuple[Array, ...]:
        v = self.value(t, *axes)
        tt = self.t0 + t
        return tuple(-(np.asarray(a, dtype=float) - c) / (2.0 * tt) * v
                     for a, c in zip(axes, self.x0))


@dataclass(frozen=True)
class CaloricPolynomial:
    """1D heat polynomial v_m(t,x) = sum_j m!/((m-2j)! j!) x^{m-2j} t^j."""

    m: int

    dim = 1

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("degree must be >= 0")

    @property
    def label(self) -> str:
        return f"caloric_polynomial({self.m})"

    def value(self, t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for j in range(self.m // 2 + 1):
            coef = math.factorial(self.m) / (math.factorial(self.m - 2 * j) * math.factorial(j))
            out = out + coef * x ** (self.m - 2 * j) * t**j
        return out


@dataclass(frozen=True)
class ExponentialSolution:
    """u(t, x) = exp(mu.x + |mu|^2 t): caloric with exponential spatial growth."""

    mu: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.mu)

    @property
    def label(self) -> str:
        return f"exponential(mu={','.join(f'{m:g}' for m in self.mu)})"

    def value(self, t: float, *axes: Array) -> Array:
        mu2 = sum(m * m for m in self.mu)
        return np.exp(_phase(axes, self.mu) + mu2 * t)


@dataclass(frozen=True)
class Eigenmode:
    """u(t, x) = A exp(-|w|^2 t) sin(w.x): bounded decaying eigenfunction."""

    omega: tuple[float, ...]
    amplitude: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.omega)

    @property
    def label(self) -> str:
        return f"eigenmode(omega={','.join(f'{w:g}' for w in self.omega)})"

    def _decay(self, t: float) -> float:
        return self.amplitude * math.exp(-sum(w * w for w in self.omega) * t)

    def value(self, t: float, *axes: Array) -> Array:
        return self._decay(t) * np.sin(_phase(axes, self.omega))

    def gradient(self, t: float, *axes: Array) -> tuple[Array, ...]:
        c = self._decay(t) * np.cos(_phase(axes, self.omega))
        return tuple(w * c for w in self.omega)


@dataclass(frozen=True)
class ErfFront:
    """u(t, x) = erf(x / sqrt(4t)): the heat evolution of sign(x)."""

    dim = 1
    label = "erf_front"

    def value(self, t: float, x: Array) -> Array:
        from scipy.special import erf

        x = np.asarray(x, dtype=float)
        return erf(x / sqrt(4.0 * t))


@lru_cache(maxsize=8)
def _contour_nodes(k_max: int) -> tuple[Array, Array, tuple[int, ...]]:
    """Unit-circle nodes e^{i th} and twiddles e^{-ik th} for k = 0..k_max.

    Mean k uses N_k = max(64, 8k) equispaced angles th = 2 pi j / N_k; the
    nodes of all k are concatenated, k's slice starting at offsets[k].  The
    table does not depend on t, so it is built once per k_max and is
    read-only.
    """
    unit, twiddle, offsets = [], [], [0]
    for k in range(k_max + 1):
        n = max(64, 8 * k)
        theta = 2.0 * pi * np.arange(n) / n
        unit.append(np.exp(1j * theta))
        twiddle.append(np.exp(-1j * k * theta))
        offsets.append(offsets[-1] + n)
    unit, twiddle = np.concatenate(unit), np.concatenate(twiddle)
    unit.flags.writeable = twiddle.flags.writeable = False
    return unit, twiddle, tuple(offsets)


@lru_cache(maxsize=256)
def _contour_means(t: float, k_max: int) -> tuple[float, ...]:
    """Contour means mean_theta[f(t + r e^{i th}) e^{-ik th}], r = t/2, f = e^{-1/t}.

    f^(k)(t) = k! r^{-k} * mean_k; trapezoid on N = max(64, 8k) nodes, which
    is spectrally accurate for this periodic analytic integrand.  The nodes
    and twiddles come from the t-independent ``_contour_nodes`` table; the
    integrand is evaluated once over all of them and mean k is the mean of
    its slice, computed as ``np.mean`` does (the pairwise sum, then one
    complex division by the count) without its per-call overhead.
    """
    unit, twiddle, offsets = _contour_nodes(k_max)
    z = t + 0.5 * t * unit
    integrand = np.exp(-1.0 / z) * twiddle
    return tuple(float((np.add.reduce(integrand[a:b]) / (b - a)).real)
                 for a, b in zip(offsets, offsets[1:]))


def _tychonoff_terms(t: float, x_flat: Array, K: int) -> tuple[Array, Array]:
    """Scaled series terms on flattened points: (signed, log_scale).

    Term k equals mean_k * exp(lgamma(k+1) - lgamma(2k+1) - k log r
    + 2k log|x|); exponents are combined and rescaled by the per-point
    maximum before the single exp, so the huge factorials and powers never
    materialize individually.  True term k = signed[k] * exp(log_scale).
    """
    r = 0.5 * t
    means = np.asarray(_contour_means(t, K))
    ks = np.arange(K + 1, dtype=float)
    base = np.array([lgamma(k + 1) - lgamma(2 * k + 1) - k * log(r) for k in range(K + 1)])
    log_mean = np.log(np.abs(means) + 1e-300)
    absx = np.abs(x_flat)
    zero = absx == 0.0
    logx = np.where(zero, 0.0, np.log(np.where(zero, 1.0, absx)))
    # One (K+1) x n buffer goes from exponents to signed terms in place.
    signed = 2.0 * ks[:, None] * logx[None, :]
    signed += (base + log_mean)[:, None]
    m = signed.max(axis=0)
    signed -= m[None, :]
    np.exp(signed, out=signed)
    signed *= np.sign(means)[:, None]
    if zero.any():
        # only the k = 0 term survives at x = 0: the series value is f(t)
        signed[:, zero] = 0.0
        m[zero] = 0.0
        signed[0, zero] = means[0]
    return signed, m


@dataclass(frozen=True)
class TychonoffSolution:
    """K-term flat series sum_k f^(k)(t) x^{2k}/(2k)!, f(t) = e^{-1/t}, t in (0,1].

    The evaluator returns the partial sum; use value_with_flag to obtain the
    truncation flag (last term above 1e-12 of the running sum).  See the
    module docstring for the domain-of-validity notes.
    """

    K: int

    dim = 1

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("need K >= 1 series terms")

    @property
    def label(self) -> str:
        return f"tychonoff(K={self.K})"

    def _check_t(self, t: float) -> None:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"flat series defined for t in (0, 1], got {t}")

    def value_with_flag(self, t: float, x: Array) -> tuple[Array, NDArray[np.bool_]]:
        self._check_t(t)
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        signed, m = _tychonoff_terms(t, flat, self.K)
        scaled_sum = np.add.reduce(signed, axis=0)
        value = _rescale(scaled_sum, m)
        flag = np.abs(signed[-1]) > 1e-12 * np.maximum(np.abs(scaled_sum), 1e-300)
        return value.reshape(x.shape), flag.reshape(x.shape)

    def value(self, t: float, x: Array) -> Array:
        return self.value_with_flag(t, x)[0]

    def gradient(self, t: float, x: Array) -> tuple[Array]:
        """Term-wise derivative sum_{k>=1} f^(k)(t) x^{2k-1}/(2k-1)!."""
        self._check_t(t)
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        signed, m = _tychonoff_terms(t, flat, self.K)
        ks = np.arange(self.K + 1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            dsigned = np.where(np.abs(flat)[None, :] > 0,
                               signed * (2.0 * ks)[:, None] / flat[None, :], 0.0)
        out = _rescale(np.add.reduce(dsigned, axis=0), m)
        return (out.reshape(x.shape),)


def _rescale(scaled_sum: Array, log_scale: Array) -> Array:
    """exp(log_scale) * scaled_sum without overflowing the intermediate exp."""
    out = np.zeros_like(scaled_sum)
    nz = scaled_sum != 0.0
    out[nz] = np.sign(scaled_sum[nz]) * np.exp(log_scale[nz] + np.log(np.abs(scaled_sum[nz])))
    return out


AnalyticSolution = Union[GaussianKernelSolution, CaloricPolynomial, ExponentialSolution,
                         Eigenmode, ErfFront, TychonoffSolution]


@track("eval_solution")
def eval_solution(sol: AnalyticSolution | InitialDatum, t: float, *axes: Array) -> Array:
    """Closed-form value of a zoo member at time t on coordinate arrays."""
    if t <= 0:
        raise ValueError("t must be positive")
    if len(axes) != sol.dim:
        raise ValueError(f"{sol.label} is {sol.dim}D; got {len(axes)} coordinate arrays")
    return sol.value(t, *axes)


@track("tychonoff_eval")
def tychonoff_eval(t: float, x, K: int) -> tuple[float, bool]:
    """Flat-series partial sum at a point: (value, truncation_flag)."""
    sol = TychonoffSolution(K)
    v, flag = sol.value_with_flag(t, np.asarray(x, dtype=float).reshape(()))
    return float(v), bool(flag)


def sample_solution(sol: AnalyticSolution | InitialDatum, grid: SpatialGrid,
                    times: Sequence[float]) -> SpaceTimeField:
    """Exact samples of a zoo member or an evolved initial datum on a grid x time ladder."""
    return _sampled(sol, grid, times, sol.label)


def _sampled(sol, grid: SpatialGrid, times: Sequence[float], label: str) -> SpaceTimeField:
    """The samples of :func:`sample_solution`, as a field labelled *label*."""
    times_arr = np.asarray(sorted(times), dtype=float)
    mesh = grid.meshgrid()
    values = np.empty((times_arr.size, *grid.shape))
    for i, t in enumerate(times_arr):
        values[i] = eval_solution(sol, float(t), *mesh)
    return SpaceTimeField(grid, times_arr, values, label)


# The heat-residual probe lattice: this many times across the time range,
# and this many points per axis across [-x_extent, x_extent].
_RESIDUAL_TIMES = 7
_RESIDUAL_POINTS = 41


@dataclass(frozen=True)
class ResidualProbeRegion:
    """FD steps and the ranges of the heat-residual probe lattice.

    The lattice has _RESIDUAL_TIMES times spanning *t_range* and
    _RESIDUAL_POINTS points per axis spanning [-x_extent, x_extent].
    """

    t_range: tuple[float, float]
    x_extent: float
    dt: float = 1e-3
    dx: float = 1e-3
    stencil_order: int = 2

    def __post_init__(self) -> None:
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
        steps = 2 if self.stencil_order == 4 else 1
        if self.t_range[0] - steps * self.dt <= 0:
            raise ValueError("probe times must leave room for the time stencil")


@track("heat_residual")
def heat_residual(sol: AnalyticSolution, region: ResidualProbeRegion) -> float:
    """max |d_t u - Lap u| over the probe lattice, by central differences.

    The stencil order is configurable: order 2 is the default; order 4 makes
    the check exact (up to round-off) for heat polynomials of degree <= 5.
    """
    ts = np.linspace(region.t_range[0], region.t_range[1], _RESIDUAL_TIMES)
    xs = np.linspace(-region.x_extent, region.x_extent, _RESIDUAL_POINTS)
    axes = (xs,) if sol.dim == 1 else (xs, xs)
    mesh = np.meshgrid(*axes, indexing="ij") if sol.dim == 2 else (xs,)
    dt, dx = region.dt, region.dx
    worst = 0.0
    for t in ts:
        if region.stencil_order == 2:
            ut = (sol.value(t + dt, *mesh) - sol.value(t - dt, *mesh)) / (2 * dt)
        else:
            ut = (-sol.value(t + 2 * dt, *mesh) + 8 * sol.value(t + dt, *mesh)
                  - 8 * sol.value(t - dt, *mesh) + sol.value(t - 2 * dt, *mesh)) / (12 * dt)
        lap = np.zeros_like(ut)
        for ax in range(sol.dim):
            lap += _axis_second_difference(sol, t, mesh, ax, dx, region.stencil_order)
        worst = max(worst, float(np.abs(ut - lap).max()))
    return worst


def _axis_second_difference(sol, t, mesh, ax, dx, order):
    def shifted(delta):
        moved = list(mesh)
        moved[ax] = mesh[ax] + delta
        return sol.value(t, *moved)

    if order == 2:
        return (shifted(dx) - 2.0 * shifted(0.0) + shifted(-dx)) / dx**2
    return (-shifted(2 * dx) + 16 * shifted(dx) - 30 * shifted(0.0)
            + 16 * shifted(-dx) - shifted(-2 * dx)) / (12 * dx**2)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchwartzGaussPolyDatum:
    """u0(x) = p(x) e^{-x^2/2 sigma^2}; evolution stays in closed form."""

    coeffs: tuple[float, ...]
    sigma: float

    dim = 1

    @property
    def label(self) -> str:
        return f"gauss_poly(p={list(self.coeffs)},sigma={self.sigma:g})"

    def sample(self, grid: SpatialGrid) -> Array:
        return SchwartzProbe(self.coeffs, self.sigma).value(grid.axis)

    def value(self, t: float, x: Array) -> Array:
        coeffs_t, sigma_t = evolve_gauss_poly(self.coeffs, self.sigma, t)
        return SchwartzProbe(coeffs_t, sigma_t).value(np.asarray(x, dtype=float))

    def initial_function(self, x: Array) -> Array:
        return SchwartzProbe(self.coeffs, self.sigma).value(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SignDatum:
    """u0 = sign(x); e^{tL} u0 = erf(x/sqrt(4t))."""

    dim = 1
    label = "sign"

    def sample(self, grid: SpatialGrid) -> Array:
        return np.sign(grid.axis)

    def value(self, t: float, x: Array) -> Array:
        return ErfFront().value(t, x)

    def initial_function(self, x: Array) -> Array:
        return np.sign(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DiracDatum:
    """Unit point mass at x0; evolution is the heat kernel centered there."""

    x0: float

    dim = 1

    @property
    def label(self) -> str:
        return f"dirac(x0={self.x0:g})"

    def sample(self, grid: SpatialGrid) -> Array:
        j = int(round((self.x0 + grid.half_extent) / grid.spacing))
        if not 0 <= j < grid.points_per_axis:
            raise ValueError("dirac location outside the grid")
        out = np.zeros(grid.shape)
        out[j] = 1.0 / grid.spacing
        return out

    def value(self, t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return heat_kernel(t, (x - self.x0) ** 2, 1)


@dataclass(frozen=True)
class OscillatorDatum:
    """u0 = A sin(w x) = d/dx(-A cos(w x)/w): a bounded-primitive datum.

    The primitive -A cos(w x)/w is bounded, so the datum is a divergence of
    an L^inf (hence BMO) field; its heat extension has finite tent norm.
    """

    omega: float
    amplitude: float

    dim = 1

    @property
    def label(self) -> str:
        return f"oscillator(omega={self.omega:g},amp={self.amplitude:g})"

    def sample(self, grid: SpatialGrid) -> Array:
        return self.amplitude * np.sin(self.omega * grid.axis)

    def value(self, t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return self.amplitude * math.exp(-self.omega**2 * t) * np.sin(self.omega * x)

    def initial_function(self, x: Array) -> Array:
        return self.amplitude * np.sin(self.omega * np.asarray(x, dtype=float))

    def rescaled(self, factor: float) -> "OscillatorDatum":
        """The tent-norm-preserving rescaling w -> factor*w, A -> factor*A."""
        return OscillatorDatum(self.omega * factor, self.amplitude * factor)


InitialDatum = Union[SchwartzGaussPolyDatum, SignDatum, DiracDatum, OscillatorDatum]


def evolve_datum_exact(datum: InitialDatum, grid: SpatialGrid,
                       times: Sequence[float], label: str | None = None) -> SpaceTimeField:
    """Closed-form evolution samples of an initial datum on a 1-D grid.

    The datum's ``value`` is its evolution, so it is sampled like a solution;
    the field is labelled *label*, by default ``e^(tL)`` and the datum's label.
    """
    if grid.dim != 1:
        raise ValueError(f"initial data are 1-D, so the grid must be 1-D, got dim {grid.dim}")
    return _sampled(datum, grid, times, label or f"e^(tL){datum.label}")


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def exact_pairing(datum: InitialDatum, probe) -> float:
    """<u0, phi> from u0 and phi alone: no ladder, no grid, no closed-form evolution.

    16-node Gauss-Legendre on n equal panels of each half-line of [-W, W],
    W = probe.decay_window(), so the jump of sign at 0 sits on a panel edge.
    The integrand is folded as f(y) + f(-y), so an odd one gives exactly 0.0,
    and reduced by det_sum.  n doubles from 8 until two successive values
    agree to 1e-13 of the integral of |f|: n = 16 unless the datum is narrow
    or fast next to the probe; ValueError past n = 4096.  Dirac data are
    point values.
    """
    if isinstance(datum, DiracDatum):
        return float(probe.value(np.asarray([datum.x0]))[0])
    if not hasattr(probe, "decay_window"):
        raise TypeError(f"exact_pairing needs a probe with a decay window, got {probe.label}")
    window, previous = probe.decay_window(), math.nan
    for panels in (8 << k for k in range(10)):
        y = window * ((np.arange(panels)[:, None] + (_GL_X + 1.0) / 2.0) / panels).ravel()
        x = np.concatenate((y, -y))
        f = (datum.initial_function(x) * probe.value(x)).reshape(2, -1)
        weights = np.tile(window * _GL_W / (2 * panels), panels)
        value, l1 = det_sum(np.stack((f[0] + f[1], abs(f[0]) + abs(f[1]))) * weights, axis=-1)
        if abs(value - previous) <= 1e-13 * l1:
            return float(value)
        previous = value
    raise ValueError(f"exact pairing of {datum.label} with {probe.label} did not converge")


# ---------------------------------------------------------------------------
# String registry (CLI configs name zoo members by id)
# ---------------------------------------------------------------------------


# Per id name: the accepted parameters with their defaults (as id text), and
# the builder of the member from the full parameter dict.
_SOLUTION_IDS = {
    "gaussian_kernel": (dict(t0="1", x0="0", dim="1"), lambda p: GaussianKernelSolution(
        float(p["t0"]), (float(p["x0"]),) * int(p["dim"]))),
    "caloric_polynomial": (dict(m="2"), lambda p: CaloricPolynomial(int(p["m"]))),
    "exponential": (dict(mu="1", dim="1"),
                    lambda p: ExponentialSolution((float(p["mu"]),) * int(p["dim"]))),
    "eigenmode": (dict(omega="1", dim="1", amp="1"), lambda p: Eigenmode(
        (float(p["omega"]),) * int(p["dim"]), float(p["amp"]))),
    "erf_front": ({}, lambda p: ErfFront()),
    "tychonoff": (dict(K="40"), lambda p: TychonoffSolution(int(p["K"]))),
}
_DATUM_IDS = {
    "sign": ({}, lambda p: SignDatum()),
    "dirac": (dict(x0="0"), lambda p: DiracDatum(float(p["x0"]))),
    "oscillator": (dict(omega="1", amp="1"),
                   lambda p: OscillatorDatum(float(p["omega"]), float(p["amp"]))),
    "gauss_poly": (dict(coeffs="1", sigma="1"), lambda p: SchwartzGaussPolyDatum(
        tuple(float(c) for c in p["coeffs"].split("|")), float(p["sigma"]))),
}


def _from_id(ident: str, kind: str, registry: dict):
    """Build the registry member an id ``name:key=value,...`` names.

    Raises ValueError naming the id for an unknown name, and naming the id,
    the item and the accepted keys for an item that is not ``key=value``
    with an accepted key; a value the member rejects raises ValueError
    naming the id as well.
    """
    name, _, params_txt = ident.partition(":")
    name = name.strip()
    if name not in registry:
        raise ValueError(f"unknown {kind} id {ident!r}")
    defaults, build = registry[name]
    params = dict(defaults)
    for item in params_txt.split(",") if params_txt else ():
        key, eq, value = item.partition("=")
        if not eq or key.strip() not in defaults:
            raise ValueError(f"{kind} id {ident!r}: bad parameter {item!r}; accepted keys: "
                             f"{', '.join(defaults) or 'none'}")
        params[key.strip()] = value
    try:
        return build(params)
    except ValueError as exc:  # a value that does not parse or breaks the member's invariant
        raise ValueError(f"{kind} id {ident!r}: {exc}") from None


def solution_from_id(ident: str) -> AnalyticSolution:
    """Build a zoo member from an id like ``tychonoff:K=40``."""
    return _from_id(ident, "solution", _SOLUTION_IDS)


def datum_from_id(ident: str) -> InitialDatum:
    """Build an initial datum from an id like ``oscillator:omega=1,amp=1``."""
    return _from_id(ident, "datum", _DATUM_IDS)

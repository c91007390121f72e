"""Pairing duals: compactly supported bumps and Gaussian-polynomial probes.

Both families evaluate their values exactly.  Bumps also give their gradient
and, in 1D, their derivatives to order MAX_DERIVATIVE_ORDER: the Schwartz
seminorm of the pairing bound is taken of a bump.  The Gaussian-polynomial
probes instead evolve in closed form under the heat semigroup: evolving
p(x) e^{-x^2/2s^2} yields another polynomial times a Gaussian of width
sqrt(s^2 + 2t), computed from the Gaussian moment formula, so probe
evolution introduces no quadrature error at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

# exp(1 - 1/w) underflows for 1/w beyond ~745; cut a bit earlier.
_EXP_FLOOR = 700.0
# A Gaussian probe's decay window ends where |phi| falls below this.
_DECAY_TAIL = 1e-18


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported bump, unit peak, supp = B(center, radius).

    Profile exp(1 - 1/(1 - s)) with s = |x - center|^2 / radius^2; exactly
    zero outside the support, evaluated in the stable exponent form inside.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def label(self) -> str:
        c = ",".join(f"{ci:g}" for ci in self.center)
        return f"bump(c={c},r={self.radius:g})"

    @property
    def dim(self) -> int:
        return len(self.center)

    def _s(self, axes: tuple[Array, ...]) -> Array:
        s = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in axes)))
        for a, c in zip(axes, self.center):
            s = s + ((np.asarray(a, dtype=float) - c) / self.radius) ** 2
        return s

    def value(self, *axes: Array) -> Array:
        return _bump_profile(1.0 - self._s(axes))[1]

    def gradient(self, *axes: Array) -> tuple[Array, ...]:
        w = 1.0 - self._s(axes)
        safe, phi = _bump_profile(w)
        comps = []
        for a, c in zip(axes, self.center):
            g = np.zeros_like(w)
            da = np.broadcast_to(np.asarray(a, dtype=float) - c, w.shape)
            g[safe] = phi[safe] * (-1.0 / w[safe] ** 2) * (2.0 * da[safe] / self.radius**2)
            comps.append(g)
        return tuple(comps)

    def derivative(self, order: int, x: Array) -> Array:
        """Exact d^order/dx^order of the 1D bump, order 0..MAX_DERIVATIVE_ORDER.

        Uses the rational recursion phi^(m) = N_m(z) / (1-z^2)^{2m} * phi / r^m
        with z = (x - c)/r; N_{m+1} = w^2 N_m' + (4 m z w - 2 z) N_m.  The
        numerators N_0..N_12 are tabled once at import (_BUMP_NUMERATORS).
        """
        if self.dim != 1:
            raise ValueError("high-order derivatives implemented for 1D bumps only")
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivatives available only to order {MAX_DERIVATIVE_ORDER}")
        num = _BUMP_NUMERATORS[order]
        x = np.asarray(x, dtype=float)
        z = (x - self.center[0]) / self.radius
        w = 1.0 - z**2
        if order == 0:
            return _bump_profile(w)[1]
        safe = w > 1.0 / _EXP_FLOOR
        out = np.zeros_like(z)
        ws = w[safe]
        # phi / w^{2m} evaluated as a single exponential to avoid 0 * inf.
        log_scale = (1.0 - 1.0 / ws) - 2.0 * order * np.log(ws)
        poly_val = np.polynomial.polynomial.polyval(z[safe], num)
        out[safe] = poly_val * np.exp(log_scale) / self.radius**order
        return out


def _bump_profile(w: Array) -> tuple[Array, Array]:
    """The set w > 1/_EXP_FLOOR and the profile exp(1 - 1/w) on it, 0 elsewhere."""
    safe = w > 1.0 / _EXP_FLOOR
    phi = np.zeros_like(w)
    phi[safe] = np.exp(1.0 - 1.0 / w[safe])
    return safe, phi


def _bump_numerator_table(max_order: int) -> tuple[Array, ...]:
    """Coefficients (ascending) of N_0..N_max_order in the bump derivative recursion."""
    num = np.array([1.0])
    w2 = np.array([1.0, 0.0, -2.0, 0.0, 1.0])  # (1 - z^2)^2
    w = np.array([1.0, 0.0, -1.0])
    table = [num]
    for m in range(max_order):
        dnum = np.polynomial.polynomial.polyder(num) if num.size > 1 else np.array([0.0])
        term1 = np.polynomial.polynomial.polymul(w2, dnum)
        lin = np.polynomial.polynomial.polymul(np.array([0.0, 4.0 * m]), w)
        lin = np.polynomial.polynomial.polyadd(lin, np.array([0.0, -2.0]))
        term2 = np.polynomial.polynomial.polymul(lin, num)
        num = np.polynomial.polynomial.polyadd(term1, term2)
        table.append(num)
    for coeffs in table:
        coeffs.flags.writeable = False
    return tuple(table)


# The highest derivative order a 1D bump evaluates, and so the highest
# Schwartz seminorm order.
MAX_DERIVATIVE_ORDER = 12
_BUMP_NUMERATORS = _bump_numerator_table(MAX_DERIVATIVE_ORDER)


@dataclass(frozen=True)
class SchwartzProbe:
    """phi(x) = p(x) exp(-x^2 / 2 sigma^2), evolving in closed form under e^{tL}."""

    coeffs: tuple[float, ...]
    sigma: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.coeffs:
            raise ValueError("need at least one polynomial coefficient")
        if not self.label:
            object.__setattr__(
                self, "label",
                f"probe(p={list(self.coeffs)},sigma={self.sigma:g})")

    @property
    def dim(self) -> int:
        return 1

    def value(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        p = np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        return p * np.exp(-(x**2) / (2.0 * self.sigma**2))

    def evolved(self, t: float) -> "SchwartzProbe":
        """Closed-form heat evolution; returns another Gaussian-polynomial probe."""
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return self
        coeffs_t, sigma_t = evolve_gauss_poly(self.coeffs, self.sigma, t)
        return SchwartzProbe(coeffs_t, sigma_t, label=f"{self.label}@t={t:g}")

    def decay_window(self) -> float:
        """Half-width beyond which |phi| is below 1e-18 (for sup searches)."""
        deg = len(self.coeffs) - 1
        x = self.sigma * (sqrt(2.0 * abs(np.log(_DECAY_TAIL))) + deg + 4.0)
        return float(x)


def evolve_gauss_poly(coeffs: Sequence[float], sigma: float, t: float
                      ) -> tuple[tuple[float, ...], float]:
    """Heat-evolve p(x) e^{-x^2/2 sigma^2}: new coefficients and width.

    Completing the square in the Gaussian convolution gives, per monomial,
    e^{tL}[y^m e^{-y^2/2 s^2}](x) = N * E[(beta x + Z)^m] * e^{-x^2/2(s^2+2t)}
    with beta = s^2/(s^2+2t), Z ~ N(0, v), v = 2 t s^2/(s^2+2t), and
    N = s/sqrt(s^2+2t); the expectation expands by Gaussian moments.
    """
    s2 = sigma * sigma
    sig_t = sqrt(s2 + 2.0 * t)
    beta = s2 / (s2 + 2.0 * t)
    v = 2.0 * t * s2 / (s2 + 2.0 * t)
    scale = sigma / sig_t
    out = np.zeros(len(coeffs))
    # E[(beta x + Z)^m] = sum_j C(m, 2j) (2j-1)!! v^j (beta x)^{m-2j}
    for m, cm in enumerate(coeffs):
        if cm == 0.0:
            continue
        for j in range(m // 2 + 1):
            dfact = 1.0
            for i in range(1, 2 * j, 2):
                dfact *= i
            out[m - 2 * j] += cm * math.comb(m, 2 * j) * dfact * v**j * beta ** (m - 2 * j)
    return tuple((scale * out).tolist()), sig_t


def hermite_probe(degree: int, sigma: float) -> SchwartzProbe:
    """Probabilists' Hermite polynomial He_degree(x/sigma) times the Gaussian."""
    he = {0: [1.0], 1: [0.0, 1.0], 2: [-1.0, 0.0, 1.0], 3: [0.0, -3.0, 0.0, 1.0]}
    if degree not in he:
        raise ValueError("hermite_probe supports degrees 0..3")
    coeffs = tuple(c / sigma**k for k, c in enumerate(he[degree]))
    return SchwartzProbe(coeffs, sigma, label=f"He{degree}(s={sigma:g})")


def default_schwartz_panel() -> tuple[SchwartzProbe, ...]:
    """Eight probes: Hermite degrees 0..3 at widths 1 and 2."""
    return tuple(
        hermite_probe(d, s)
        for s in (1.0, 2.0)
        for d in (0, 1, 2, 3)
    )


def central_compact_panel(radii: Sequence[float]) -> tuple[TestFunction, ...]:
    """Origin-centered bumps, used where the probed solution is only tame near 0."""
    return tuple(TestFunction((0.0,), r) for r in radii)

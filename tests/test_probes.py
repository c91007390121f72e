import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from caloric import SchwartzProbe, TestFunction, default_schwartz_panel
from caloric.norms import schwartz_seminorm
from caloric.probes import _BUMP_NUMERATORS, hermite_probe


class TestBump:
    def test_support_is_exact(self):
        b = TestFunction((0.0,), 1.0)
        x = np.array([-1.5, -1.0, 1.0, 2.0])
        np.testing.assert_array_equal(b.value(x), 0.0)
        assert b.value(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_gradient_matches_fd(self):
        b = TestFunction((0.5,), 1.5)
        x = np.linspace(-0.9, 1.9, 13)
        h = 1e-6
        fd = (b.value(x + h) - b.value(x - h)) / (2 * h)
        np.testing.assert_allclose(b.gradient(x)[0], fd, atol=1e-7)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_high_order_derivatives_vs_fd(self, order):
        b = TestFunction((0.0,), 1.0)
        x = np.linspace(-0.85, 0.85, 11)
        h = 1e-5
        fd = (b.derivative(order - 1, x + h) - b.derivative(order - 1, x - h)) / (2 * h)
        scale = max(np.abs(b.derivative(order, x)).max(), 1.0)
        np.testing.assert_allclose(b.derivative(order, x) / scale, fd / scale, atol=1e-6)

    def test_numerator_table_matches_recursion(self):
        # N_0 = 1, N_{m+1} = w^2 N_m' + (4 m z w - 2 z) N_m with w = 1 - z^2
        P = np.polynomial.polynomial
        num = np.array([1.0])
        for order in range(13):
            np.testing.assert_array_equal(_BUMP_NUMERATORS[order], num)
            dnum = P.polyder(num) if num.size > 1 else np.array([0.0])
            lin = P.polyadd(P.polymul([0.0, 4.0 * order], [1.0, 0.0, -1.0]), [0.0, -2.0])
            num = P.polyadd(P.polymul([1.0, 0.0, -2.0, 0.0, 1.0], dnum), P.polymul(lin, num))
        assert len(_BUMP_NUMERATORS) == 13

    def test_derivative_order_cap(self):
        bump = TestFunction((0.0,), 1.0)
        for order in (-1, 13):
            with pytest.raises(ValueError, match="only to order 12"):
                bump.derivative(order, np.zeros(3))

    def test_rim_is_smooth_zero(self):
        b = TestFunction((0.0,), 1.0)
        x = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        for m in range(5):
            np.testing.assert_array_equal(b.derivative(m, x), 0.0)


class TestSchwartzProbe:
    def test_evolution_matches_quadrature(self):
        p = SchwartzProbe((0.5, 1.0, -0.3), sigma=1.2)
        t = 0.41
        evolved = p.evolved(t)
        for x0 in (-1.7, 0.0, 2.3):
            oracle, _ = quad(
                lambda y: math.exp(-(x0 - y) ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)
                * float(p.value(np.array([y]))[0]), -25, 25, limit=200)
            assert float(evolved.value(np.array([x0]))[0]) == pytest.approx(oracle, abs=1e-12)

    def test_evolution_semigroup_in_closed_form(self):
        p = hermite_probe(2, 1.0)
        a = p.evolved(0.3).evolved(0.2)
        b = p.evolved(0.5)
        x = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(a.value(x), b.value(x), atol=1e-13)


@dataclass(frozen=True)
class _ScaledBump(TestFunction):
    """factor * bump: the seminorm reads only the derivatives, all scaled."""

    factor: float = 1.0

    def derivative(self, order, x):
        return self.factor * super().derivative(order, x)


class TestSeminorms:
    @pytest.mark.parametrize("center", [0.0, 1.5])
    @pytest.mark.parametrize("radius", [0.25, 1.0, 4.0])
    def test_p0_is_the_unit_peak_at_every_radius(self, center, radius):
        assert schwartz_seminorm(TestFunction((center,), radius), 0) == pytest.approx(
            1.0, rel=1e-4)

    def test_monotone_in_order(self):
        phi = TestFunction((0.5,), 1.0)
        vals = [schwartz_seminorm(phi, m) for m in range(5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        base = TestFunction((0.5,), 1.0)
        scaled = _ScaledBump((0.5,), 1.0, c)
        assert schwartz_seminorm(scaled, 2) == pytest.approx(
            c * schwartz_seminorm(base, 2), rel=1e-9)

    def test_order_cap(self):
        for order in (-1, 13):
            with pytest.raises(ValueError, match=r"0\.\.12"):
                schwartz_seminorm(TestFunction((0.0,), 1.0), order)
        for order in (2, 3):
            with pytest.raises(ValueError, match="1D bumps, got the 2-D bump"):
                schwartz_seminorm(TestFunction((0.0, 0.0), 1.0), order)

    def test_bump_seminorm_finite(self):
        val = schwartz_seminorm(TestFunction((0.0,), 1.0), 4)
        assert math.isfinite(val) and val > 0

    def test_matches_pairwise_loop(self):
        # the reference takes |x|^alpha anew for every (alpha, beta) pair
        phi, m = TestFunction((1.0,), 1.0), 4
        window = abs(phi.center[0]) + phi.radius
        n, prev = 2049, None
        for _ in range(12):
            x = np.linspace(-window, window, n)
            best = 0.0
            for beta in range(m + 1):
                d = np.abs(phi.derivative(beta, x))
                for alpha in range(m + 1 - beta):
                    best = max(best, float((np.abs(x) ** alpha * d).max()))
            if prev is not None and abs(best - prev) <= 1e-4 * best:
                break
            prev, n = best, 2 * n - 1
        assert schwartz_seminorm(phi, m) == best

    def test_traced_peak_memory(self):
        # levels are swept in blocks: the finest level here has 32769
        # points, 3.7 MB traced when swept whole
        phi = TestFunction((1.0,), 1.0)
        tracemalloc.start()
        try:
            schwartz_seminorm(phi, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestPanels:
    def test_default_schwartz_panel(self):
        panel = default_schwartz_panel()
        assert len(panel) == 8
        assert {p.sigma for p in panel} == {1.0, 2.0}

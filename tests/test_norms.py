import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from caloric import (
    BallFamily,
    CoverageError,
    DataError,
    Eigenmode,
    GaussianKernelSolution,
    HeatOperatorConfig,
    SpaceTimeField,
    SpaceTimeRegion,
    SpatialGrid,
    StripSpec,
    TychonoffSolution,
    bmo_inv_norm,
    caccioppoli_ratio,
    carleson_time_ladder,
    sample_solution,
    strip_growth_fit,
    tent_norm,
    tent_to_strip_bound,
)
from caloric import norms
from caloric.grid import ball_weights, integrate_ball, time_trapezoid
from caloric.norms import classify_growth
from caloric.zoo import DiracDatum, ExponentialSolution, SignDatum, evolve_datum_exact

from conftest import constant_field

SPECTRAL = HeatOperatorConfig("spectral_multiplier")


@pytest.fixture(scope="module")
def strip_grid():
    return SpatialGrid.make(1, 15.0, 1024)


class TestStripGrowthFit:
    def test_eigenmode_passes(self, strip_grid):
        u = sample_solution(Eigenmode((1.0,)), strip_grid, np.linspace(1, 2, 13))
        fit = strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5, 6, 7, 8])
        assert fit.gamma_hat <= 0.01
        assert fit.classification == "PASS"
        assert all(b >= a for a, b in zip(fit.l2_values, fit.l2_values[1:]))

    def test_exponential_gamma_shrinks_with_radius(self, strip_grid):
        u = sample_solution(ExponentialSolution((1.0,)), strip_grid,
                            np.linspace(1, 2, 13))
        small = strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5, 6])
        large = strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 4, 6, 8, 10, 12])
        assert small.classification == large.classification == "PASS"
        assert large.gamma_hat < small.gamma_hat

    def test_tychonoff_fails(self):
        g = SpatialGrid.make(1, 8.0, 512)
        u = sample_solution(TychonoffSolution(40), g, np.linspace(0.1, 0.3, 11))
        fit = strip_growth_fit(u, StripSpec(0.1, 0.3), [2, 3, 4, 5, 6])
        assert fit.classification == "FAIL"
        assert fit.gamma_hat >= 0.25
        assert fit.r2_of_fit >= 0.9

    def test_zero_field_passes(self, strip_grid):
        u = constant_field(strip_grid, np.linspace(1, 2, 9), value=0.0)
        fit = strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5, 6])
        assert fit.classification == "PASS"
        assert fit.gamma_hat == 0.0

    @given(c=st.floats(0.1, 100.0))
    @settings(max_examples=10, deadline=None)
    def test_classification_scale_invariant(self, c):
        g = SpatialGrid.make(1, 15.0, 256)
        u = sample_solution(ExponentialSolution((1.0,)), g, np.linspace(1, 2, 9))
        base = strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5, 6])
        scaled = strip_growth_fit(SpaceTimeField(u.grid, u.times, c * u.values),
                                  StripSpec(1.0, 2.0), [2, 3, 4, 5, 6])
        assert scaled.classification == base.classification
        assert scaled.gamma_hat == pytest.approx(base.gamma_hat, abs=1e-10)
        assert scaled.logC_hat == pytest.approx(base.logC_hat + math.log(c), abs=1e-9)

    def test_validation(self, strip_grid):
        u = constant_field(strip_grid, np.linspace(1, 2, 9))
        with pytest.raises(ValueError, match="5 radii"):
            strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5])
        with pytest.raises(DataError, match="0.8"):
            strip_growth_fit(u, StripSpec(1.0, 2.0), [2, 3, 4, 5, 13])

    @pytest.mark.parametrize("radii", [(8, 2, 3, 4, 5, 6, 7), (2, 3, 4, 4, 5, 6)],
                             ids=["unsorted", "repeated"])
    def test_radii_must_strictly_increase(self, strip_grid, radii):
        # the radii are judged as given, never reordered
        u = constant_field(strip_grid, np.linspace(1, 2, 9))
        with pytest.raises(ValueError, match=r"radii must be strictly increasing, got \("
                           + r", ".join(f"{r:.1f}" for r in radii)):
            strip_growth_fit(u, StripSpec(1.0, 2.0), radii)

    def test_borderline_is_inconclusive(self):
        assert classify_growth(0.25, 0.99, math.inf) == "INCONCLUSIVE"
        assert classify_growth(0.24, 0.99, math.inf) == "INCONCLUSIVE"
        assert classify_growth(0.3, 0.99, math.inf) == "FAIL"
        assert classify_growth(0.3, 0.5, math.inf) == "INCONCLUSIVE"
        assert classify_growth(-0.01, 0.1, math.inf) == "PASS"


def phi_field(grid, radii):
    times = carleson_time_ladder(grid, max(r * r for r in radii),
                                 extra=[r * r for r in radii])
    vals = np.stack([DiracDatum(0.0).value(t, grid.axis) for t in times])
    return SpaceTimeField(grid, times, vals, "Phi")


class TestTentNorm:
    def test_constant_per_ball_is_radius(self, grid_1d):
        fam = BallFamily(((0.0,),), (1.0, 2.0, 2.5))
        times = carleson_time_ladder(grid_1d, 2.5**2, extra=[1.0, 4.0, 6.25])
        u = constant_field(grid_1d, times)
        res = tent_norm(u, fam)
        for p in res.per_ball:
            assert p.value == pytest.approx(p.radius, rel=1e-12)
        assert res.value == pytest.approx(2.5, rel=1e-12)
        assert res.argmax.radius == 2.5

    def test_heat_kernel_erf_oracle(self, grid_1d):
        # oracle: value^2 = (1/2)(8 pi)^{-1/2} int_0^1 tau^{-1/2} erf(1/sqrt(2 tau)) dtau,
        # radius-independent for balls centered at the kernel's center
        integral, _ = quad(lambda s: 2.0 * erf(1.0 / (math.sqrt(2.0) * s)), 0, 1, limit=200)
        oracle = math.sqrt(0.5 * (8 * math.pi) ** -0.5 * integral)
        fam = BallFamily(((0.0,),), (0.5, 1.0, 2.0))
        res = tent_norm(phi_field(grid_1d, fam.radii), fam)
        assert res.value == pytest.approx(oracle, rel=0.05)
        values = [p.value for p in res.per_ball]
        assert max(values) - min(values) <= 0.02 * max(values)  # scale invariance

    def test_eigenmode_approaches_half_from_below(self, grid_1d):
        # radii at multiples of pi/2, where the sin*cos oscillation term of
        # the spatial mean vanishes: the continuum per-ball value is
        # ((1 - e^{-2 r^2}) / 4)^{1/2}, increasing toward 1/2 from below;
        # the discrete values match it to 1% (trapezoid bias is upward)
        radii = (math.pi / 2, math.pi)
        # the Carleson ladder from dx^2 at the finer ratio q = 1.15
        t, ladder = grid_1d.spacing**2, []
        while t < radii[-1] ** 2:
            ladder.append(t)
            t *= 1.15
        times = np.asarray(sorted(set(ladder) | {r * r for r in radii}))
        u = sample_solution(Eigenmode((1.0,)), grid_1d, times)
        res = tent_norm(u, BallFamily(((0.0,),), radii))
        exacts = [math.sqrt((1.0 - math.exp(-2 * p.radius**2)) / 4.0)
                  for p in res.per_ball]
        for p, exact in zip(res.per_ball, exacts):
            assert p.value == pytest.approx(exact, rel=1e-2)
        assert exacts[0] < exacts[1] < 0.5
        assert res.per_ball[0].value < res.per_ball[1].value

    @given(c=st.floats(-30.0, 30.0).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity(self, c):
        g = SpatialGrid.make(1, 8.0, 128)
        fam = BallFamily(((0.0,),), (0.5, 1.0))
        times = carleson_time_ladder(g, 1.0, extra=[0.25, 1.0])
        u = sample_solution(Eigenmode((1.0,)), g, times)
        base = tent_norm(u, fam).value
        scaled = tent_norm(SpaceTimeField(u.grid, u.times, c * u.values), fam).value
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)

    def test_monotone_under_family_enlargement(self, grid_1d):
        times = carleson_time_ladder(grid_1d, 4.0, extra=[0.25, 1.0, 4.0])
        u = sample_solution(Eigenmode((1.0,)), grid_1d, times)
        small = tent_norm(u, BallFamily(((0.0,),), (0.5, 1.0)))
        big = tent_norm(u, BallFamily(((0.0,), (1.0,)), (0.5, 1.0, 2.0)))
        assert big.value >= small.value

    def test_box_coverage_error(self, grid_1d):
        u = constant_field(grid_1d, [0.1, 0.2, 0.3])
        with pytest.raises(CoverageError, match="box height"):
            tent_norm(u, BallFamily(((0.0,),), (1.0,)))

    def test_2d_constant_per_ball_is_radius(self, grid_2d):
        times = carleson_time_ladder(grid_2d, 1.0, extra=[0.25, 1.0])
        u = constant_field(grid_2d, times)
        res = tent_norm(u, BallFamily(((0.0, 0.0),), (0.5, 1.0)))
        for p in res.per_ball:
            assert p.value == pytest.approx(p.radius, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_ball_weights_build_per_ball(self, monkeypatch, dim):
        # one weight build serves a ball's values and its measure, and the
        # per-ball values are those of two integrate_ball calls, bit for bit
        grid = SpatialGrid.make(dim, 8.0, 256 if dim == 1 else 48)
        fam = BallFamily(((0.0,) * dim, (1.0,) * dim), (0.5, 1.0, 2.0))
        times = carleson_time_ladder(grid, 4.0, extra=[0.25, 1.0, 4.0])
        u = sample_solution(Eigenmode((1.0,) * dim), grid, times)
        balls = []

        def counted(grid, center, radius):
            balls.append((center, radius))
            return ball_weights(grid, center, radius)

        monkeypatch.setattr(norms, "ball_weights", counted)
        res = tent_norm(u, fam)
        assert balls == list(fam.balls())
        for p in res.per_ball:
            g = integrate_ball(grid, u.values**2, p.center, p.radius)
            r_sq = p.radius**2
            total = u.times[0] * g[0] + time_trapezoid(u.times, g, u.times[0], r_sq)
            measure = integrate_ball(grid, np.ones(grid.shape), p.center, p.radius)
            assert p.value == math.sqrt(total / measure)


class TestBmoInvNorm:
    def test_zero_datum(self, grid_1d):
        fam = BallFamily(((0.0,),), (0.5, 1.0))
        res = bmo_inv_norm(np.zeros(grid_1d.shape), grid_1d, fam, SPECTRAL)
        assert res.value == 0.0

    def test_dirac_matches_tent_of_kernel(self, grid_1d):
        integral, _ = quad(lambda s: 2.0 * erf(1.0 / (math.sqrt(2.0) * s)), 0, 1, limit=200)
        oracle = math.sqrt(0.5 * (8 * math.pi) ** -0.5 * integral)
        fam = BallFamily(((0.0,),), (0.5, 1.0, 2.0))
        res = bmo_inv_norm(DiracDatum(0.0).sample(grid_1d), grid_1d, fam, SPECTRAL)
        assert res.value == pytest.approx(oracle, rel=0.05)

    def test_oscillator_scaling_stability(self, grid_1d):
        from caloric import OscillatorDatum

        fam = BallFamily(((0.0,),), (0.5, 1.0, 2.0))
        osc = OscillatorDatum(1.0, 1.0)
        b1 = bmo_inv_norm(osc.sample(grid_1d), grid_1d, fam, SPECTRAL)
        b2 = bmo_inv_norm(osc.rescaled(2.0).sample(grid_1d), grid_1d, fam, SPECTRAL)
        assert b2.value / b1.value == pytest.approx(1.0, abs=0.10)


# the ball family of acceptance criterion 8
GATE_FAMILY = BallFamily(((0.0,),), (0.5, 1.0, 2.0))


class TestTentToStrip:
    def test_zero_field(self, grid_1d):
        times = carleson_time_ladder(grid_1d, 4.0, extra=[1.0])
        u = constant_field(grid_1d, times, value=0.0)
        rep = tent_to_strip_bound(u, StripSpec(0.01, 1.0), GATE_FAMILY)
        assert rep.sup_F == 0.0

    def test_constant_closed_form(self, grid_1d):
        # F = ((b - a) * 2 sqrt(b))^{1/2} for u == 1 with a=0.01, b=1
        times = carleson_time_ladder(grid_1d, 4.0, extra=[0.01, 1.0])
        u = constant_field(grid_1d, times)
        rep = tent_to_strip_bound(u, StripSpec(0.01, 1.0), GATE_FAMILY)
        assert rep.sup_F == pytest.approx(math.sqrt(0.99 * 2.0), rel=1e-10)

    def test_sign_evolution_ratio_stable(self):
        ratios = []
        for n in (512, 1024):
            g = SpatialGrid.make(1, 8.0, n)
            times = carleson_time_ladder(g, 4.0, extra=[0.01, 1.0])
            u = evolve_datum_exact(SignDatum(), g, times)
            ratios.append(tent_to_strip_bound(u, StripSpec(0.01, 1.0), GATE_FAMILY).ratio)
        assert math.isfinite(ratios[0])
        assert abs(ratios[0] - ratios[1]) / ratios[0] <= 0.05


class TestCaccioppoli:
    def test_constant_gives_zero(self, grid_1d):
        u = constant_field(grid_1d, np.linspace(0.4, 2.1, 9), value=3.0)
        ratio = caccioppoli_ratio(u, SpaceTimeRegion(1.0, 2.0, 1.0),
                                  SpaceTimeRegion(0.5, 2.0, 2.0))
        assert ratio == pytest.approx(0.0, abs=1e-20)

    def test_eigenmode_closed_form(self):
        # energy = int_1^2 e^{-2t} dt * int_{-1}^{1} cos^2; mass over the
        # enlargement in closed form as well; ratio stays below 1
        g = SpatialGrid.make(1, 8.0, 1024)
        u = sample_solution(Eigenmode((1.0,)), g, np.linspace(0.4, 2.1, 17))
        ratio = caccioppoli_ratio(u, SpaceTimeRegion(1.0, 2.0, 1.0),
                                  SpaceTimeRegion(0.5, 2.0, 2.0))
        energy = (math.exp(-2) - math.exp(-4)) / 2 * (1 + math.sin(1) * math.cos(1))
        mass = (math.exp(-1) - math.exp(-4)) / 2 * (2 - math.sin(2) * math.cos(2))
        exact = energy / ((1.0 + 2.0) * mass)
        assert ratio == pytest.approx(exact, rel=5e-3)
        assert ratio <= 1.0

    def test_2d_fields(self, grid_2d):
        # regions are balls about the origin in the field's dimension
        times = np.linspace(0.4, 2.1, 9)
        inner, outer = SpaceTimeRegion(1.0, 2.0, 1.0), SpaceTimeRegion(0.5, 2.0, 2.0)
        const = constant_field(grid_2d, times, value=3.0)
        assert caccioppoli_ratio(const, inner, outer) == 0.0
        gauss = sample_solution(GaussianKernelSolution(1.0, (0.0, 0.0)), grid_2d, times)
        ratio = caccioppoli_ratio(gauss, inner, outer)
        assert math.isfinite(ratio) and ratio > 0.0

    def test_region_containment_enforced(self, grid_1d):
        u = constant_field(grid_1d, np.linspace(0.4, 2.1, 9))
        with pytest.raises(ValueError, match="contain"):
            caccioppoli_ratio(u, SpaceTimeRegion(1.0, 2.0, 2.0),
                              SpaceTimeRegion(0.5, 2.0, 1.5))
        with pytest.raises(ValueError, match="0 < t0 < t1"):
            SpaceTimeRegion(2.0, 1.0, 1.0)

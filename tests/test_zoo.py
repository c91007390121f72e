import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from caloric import (
    CaloricPolynomial,
    DiracDatum,
    Eigenmode,
    ErfFront,
    ExponentialSolution,
    GaussianKernelSolution,
    HeatOperatorConfig,
    OscillatorDatum,
    ResidualProbeRegion,
    SchwartzGaussPolyDatum,
    SignDatum,
    SpaceTimeField,
    SpatialGrid,
    TestFunction,
    TychonoffSolution,
    datum_from_id,
    eval_solution,
    evolve_datum_exact,
    heat_evolve,
    heat_residual,
    sample_solution,
    solution_from_id,
    tychonoff_eval,
)
from caloric.acceptance import _RECOVERY_DATA
from caloric.probes import default_schwartz_panel, hermite_probe
from caloric import zoo
from caloric.zoo import exact_pairing, heat_kernel


def _out_of_place_heat_kernel(t, r2, dim):
    """Oracle: the fundamental solution as one out-of-place expression."""
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-r2 / (4.0 * t))


class TestHeatKernelInPlace:
    """heat_kernel works in one array; it must equal the out-of-place
    expression bit for bit and leave r2 alone."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 7.0])
    def test_arrays_bitwise(self, dim, t):
        rng = np.random.default_rng(dim)
        # zeros, subnormals, ordinary squares and r^2/4t far past exp's underflow
        r2 = np.concatenate([[0.0, 5e-324, 1e-310], rng.random(200) * 40.0,
                             [3000.0 * t, 1e6]]).reshape(5, 41)
        before = r2.copy()
        got = heat_kernel(t, r2, dim)
        want = _out_of_place_heat_kernel(t, r2, dim)
        assert got.dtype == np.float64 and got.shape == r2.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert (want == 0.0).any() and np.array_equal(r2, before)

    @pytest.mark.parametrize("r2", [0.0, 0.7, np.array(0.7), np.float64(2.5)],
                             ids=["float-zero", "float", "0-d array", "numpy scalar"])
    def test_scalar_gives_numpy_scalar(self, r2):
        got = heat_kernel(0.5, r2, 1)
        want = _out_of_place_heat_kernel(0.5, r2, 1)
        assert type(got) is type(want) is np.float64
        assert got.hex() == want.hex()


class TestEvalSolution:
    def test_caloric_polynomial_value(self):
        # v_2 = x^2 + 2t, so v_2(1, 0) = 2
        assert eval_solution(CaloricPolynomial(2), 1.0, np.array(0.0)) == pytest.approx(2.0)

    def test_caloric_polynomial_4(self):
        # v_4 = x^4 + 12 x^2 t + 12 t^2
        v = eval_solution(CaloricPolynomial(4), 0.5, np.array(2.0))
        assert v == pytest.approx(16 + 12 * 4 * 0.5 + 12 * 0.25)

    def test_gaussian_kernel_value(self):
        # Phi(2, 0) = (8 pi)^{-1/2} in 1D
        v = eval_solution(GaussianKernelSolution(1.0), 1.0, np.array(0.0))
        assert v == pytest.approx((8 * math.pi) ** -0.5)

    def test_exponential_is_caloric(self):
        res = heat_residual(ExponentialSolution((1.0,)),
                            ResidualProbeRegion((0.1, 0.3), 1.0))
        assert res <= 1e-6

    def test_eigenmode_and_erf(self):
        x = np.array([0.3, -1.2])
        em = eval_solution(Eigenmode((2.0,)), 0.25, x)
        np.testing.assert_allclose(em, math.exp(-1.0) * np.sin(2 * x))
        ef = eval_solution(ErfFront(), 0.25, x)
        from scipy.special import erf

        np.testing.assert_allclose(ef, erf(x / 1.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="1D"):
            eval_solution(ErfFront(), 0.1, np.array(0.0), np.array(0.0))
        with pytest.raises(ValueError, match="positive"):
            eval_solution(ErfFront(), -0.1, np.array(0.0))


class TestTychonoff:
    def test_value_at_origin_is_flat_function(self):
        for t in (0.1, 0.37, 1.0):
            v, flagged = tychonoff_eval(t, 0.0, 40)
            assert v == pytest.approx(math.exp(-1.0 / t), rel=1e-12)
            assert not flagged

    def test_time_domain(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            tychonoff_eval(1.5, 0.5, 40)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            tychonoff_eval(-0.5, 0.5, 40)

    def test_self_convergence(self):
        v30, f30 = tychonoff_eval(0.5, 1.0, 30)
        v40, f40 = tychonoff_eval(0.5, 1.0, 40)
        assert not (f30 or f40)
        assert abs(v30 - v40) <= 1e-10 * abs(v40)

    def test_super_exponential_growth(self):
        # log|u|/x strictly increasing over x = 2, 4, 8 rules out any e^{cx}
        vals = [abs(tychonoff_eval(0.1, x, 40)[0]) for x in (2.0, 4.0, 8.0)]
        rates = [math.log(v) / x for v, x in zip(vals, (2.0, 4.0, 8.0))]
        assert rates[0] < rates[1] < rates[2]

    def test_partial_sum_matches_exact_arithmetic(self):
        # frozen from an exact-rational + mpmath evaluation of the K=40 sum
        v, _ = tychonoff_eval(0.1, 4.0, 40)
        assert v == pytest.approx(-3.6000079e13, rel=5e-3)

    def test_flag_fires_outside_convergence_budget(self):
        _, flagged = tychonoff_eval(0.1, 8.0, 40)
        assert flagged

    def test_residual_in_resolved_region(self):
        res = heat_residual(TychonoffSolution(40), ResidualProbeRegion((0.2, 0.9), 2.0))
        assert res <= 1e-4

    def test_vanishing_trace_on_central_compacts(self):
        # sup over |x| <= 1 decreases monotonically along t -> 0 (below t* ~ 0.5)
        sol = TychonoffSolution(40)
        x = np.linspace(-1.0, 1.0, 101)
        sups = [np.abs(sol.value(t, x)).max() for t in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-3

    # (t, x^2/4t) points inside and outside the K = 40 trust region; t = 0.02
    # puts x/t far above K/2 while x^2/4t stays small
    _TIMES = (0.02, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize("t", _TIMES)
    @pytest.mark.parametrize("a", [2.0, 5.0, 8.0])
    def test_accurate_inside_trust_region(self, t, a):
        x = math.sqrt(4.0 * t * a)
        v, flagged = TychonoffSolution(40).value_with_flag(t, np.array(x))
        partial, full = _flat_series_mp(t, x, 41), _flat_series_mp(t, x, 150)
        assert not flagged
        assert abs(float(v) - float(partial)) <= 1e-8 * abs(float(partial))
        assert abs(partial - full) <= 1e-13 * abs(full)

    @pytest.mark.parametrize("t", _TIMES)
    @pytest.mark.parametrize("a", [10.0, 14.0, 20.0, 40.0])
    def test_flag_fires_outside_trust_region(self, t, a):
        _, flagged = TychonoffSolution(40).value_with_flag(t, np.array(math.sqrt(4.0 * t * a)))
        assert flagged

    @pytest.mark.parametrize("t", _TIMES)
    @pytest.mark.parametrize("K", [1, 40])
    def test_terms_equal_out_of_place_formula_bitwise(self, t, K):
        # the reference allocates every intermediate anew
        x = np.concatenate([np.linspace(-8.0, 8.0, 1025), [0.0, 1e-300, -3.5]])
        means = np.asarray(zoo._contour_means(t, K))
        ks = np.arange(K + 1, dtype=float)
        base = np.array([math.lgamma(k + 1) - math.lgamma(2 * k + 1) - k * math.log(0.5 * t)
                         for k in range(K + 1)])
        zero = x == 0.0
        logx = np.where(zero, 0.0, np.log(np.where(zero, 1.0, np.abs(x))))
        expo = (base + np.log(np.abs(means) + 1e-300))[:, None] + 2.0 * ks[:, None] * logx
        m = expo.max(axis=0)
        signed = np.sign(means)[:, None] * np.exp(expo - m)
        signed[:, zero] = 0.0
        m[zero] = 0.0
        signed[0, zero] = means[0]
        got_signed, got_m = zoo._tychonoff_terms(t, x, K)
        assert got_signed.tobytes() == signed.tobytes()
        assert got_m.tobytes() == m.tobytes()

    def test_terms_traced_peak_memory(self):
        # one (K+1) x n buffer (336 kB here), not three
        x = np.linspace(-8.0, 8.0, 1024)
        zoo._tychonoff_terms(0.1, x, 40)  # fill the contour-mean cache first
        tracemalloc.start()
        try:
            zoo._tychonoff_terms(0.1, x, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7e6


def _flat_series_mp(t: float, x: float, n_terms: int):
    """sum_{k < n_terms} f^(k)(t) x^2k / (2k)! for f = e^{-1/t}, in 60-digit mpmath.

    f^(k)(t) = e^{-1/t} t^{-2k} Q_k(t) with integer polynomials Q_0 = 1 and
    Q_{k+1} = t^2 Q_k' + (1 - 2kt) Q_k.
    """
    with mpmath.workdps(60):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        q = [1]  # ascending coefficients of Q_k
        total = mpmath.mpf(0)
        for k in range(n_terms):
            f_k = mpmath.exp(-1 / t) * t ** (-2 * k) * mpmath.polyval(q[::-1], t)
            total += f_k * x ** (2 * k) / mpmath.factorial(2 * k)
            nxt = [0] * (len(q) + 1)
            for i, c in enumerate(q):
                nxt[i] += c
                nxt[i + 1] += i * c - 2 * k * c
            q = nxt
        return +total


def _contour_means_per_k(t: float, k_max: int) -> tuple[float, ...]:
    """Contour means with nodes and twiddles rebuilt for every k (the reference loop)."""
    r = 0.5 * t
    means = []
    for k in range(k_max + 1):
        n = max(64, 8 * k)
        theta = 2.0 * math.pi * np.arange(n) / n
        z = t + r * np.exp(1j * theta)
        means.append(float(np.mean(np.exp(-1.0 / z) * np.exp(-1j * k * theta)).real))
    return tuple(means)


@pytest.mark.parametrize("k_max", [1, 8, 9, 40])
def test_contour_means_match_per_k_loop_bit_for_bit(k_max):
    ts = 1.0 - np.random.default_rng(k_max).random(200)  # in (0, 1]
    for t in ts.tolist():
        got = np.array(zoo._contour_means(t, k_max))
        want = np.array(_contour_means_per_k(t, k_max))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_contour_means_equal_np_mean_in_hex():
    # np.add.reduce and one complex division by the count are what np.mean does
    unit, twiddle, offsets = zoo._contour_nodes(40)
    for t in (1.0 - np.random.default_rng(50).random(50)).tolist():  # in (0, 1]
        integrand = np.exp(-1.0 / (t + 0.5 * t * unit)) * twiddle
        want = [float(np.mean(integrand[a:b]).real).hex() for a, b in zip(offsets, offsets[1:])]
        assert [m.hex() for m in zoo._contour_means(t, 40)] == want


def _central_difference(sol, t, axes, ax, h):
    """Fourth-order central difference of sol.value along axis *ax*."""
    def at(delta):
        moved = list(axes)
        moved[ax] = axes[ax] + delta
        return sol.value(t, *moved)

    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


_X = np.linspace(-4.0, 4.0, 33)
_MESH = np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-2.5, 3.5, 11), indexing="ij")


class TestClosedFormGradients:
    """Each closed-form gradient against central differences of its value,
    to a relative tolerance of the largest gradient component on the sample."""

    @pytest.mark.parametrize("sol,t,axes", [
        (GaussianKernelSolution(1.0), 0.5, (_X,)),
        (GaussianKernelSolution(0.5, (1.5,)), 0.3, (_X,)),
        (GaussianKernelSolution(1.0, (0.5, -1.0)), 0.25, tuple(_MESH)),
        (Eigenmode((2.0,), 1.5), 0.2, (_X,)),
        (Eigenmode((1.0, 0.5)), 0.3, tuple(_MESH)),
    ], ids=["gaussian-centred", "gaussian-off-centre", "gaussian-2d", "eigenmode-1d",
            "eigenmode-2d"])
    def test_matches_central_differences(self, sol, t, axes):
        # worst measured: 6.8e-13
        grad = sol.gradient(t, *axes)
        assert len(grad) == sol.dim
        scale = max(np.abs(g).max() for g in grad)
        for ax, g in enumerate(grad):
            fd = _central_difference(sol, t, axes, ax, 1e-3)
            assert np.abs(g - fd).max() <= 1e-10 * scale

    @pytest.mark.parametrize("t", [0.02, 0.1, 0.5, 1.0])
    def test_flat_series_inside_trust_region(self, t):
        # x^2/4t <= 8, where the value matches the partial sum to 1e-8; its
        # cancellation error, divided by the step, bounds the difference
        # (worst measured: 4.9e-10 at t = 1)
        sol = TychonoffSolution(40)
        x = np.linspace(-1.0, 1.0, 41) * math.sqrt(32.0 * t)
        (grad,) = sol.gradient(t, x)
        fd = _central_difference(sol, t, (x,), 0, 1e-3 * math.sqrt(t))
        assert np.abs(grad - fd).max() <= 2e-9 * np.abs(grad).max()


class TestHeatResidual:
    @pytest.mark.parametrize("sol,region,bound", [
        (Eigenmode((1.0,)), ResidualProbeRegion((0.2, 1.0), 2.0), 1e-5),
        (CaloricPolynomial(4),
         ResidualProbeRegion((0.2, 1.0), 2.0, dt=0.01, dx=0.05, stencil_order=4), 1e-9),
        (GaussianKernelSolution(1.0), ResidualProbeRegion((0.2, 1.0), 2.0), 1e-6),
    ])
    def test_kind_bounds(self, sol, region, bound):
        assert heat_residual(sol, region) <= bound

    def test_region_validation(self):
        with pytest.raises(ValueError, match="stencil"):
            ResidualProbeRegion((0.2, 1.0), 2.0, stencil_order=3)
        with pytest.raises(ValueError, match="time stencil"):
            ResidualProbeRegion((1e-4, 1.0), 2.0)


@pytest.fixture(scope="module")
def datum_grid():
    return SpatialGrid.make(1, 16.0, 1024)


class TestInitialData:
    def test_closed_form_evolutions_match_operator(self, datum_grid):
        # || heat_evolve(datum samples, t) - closed form ||_inf <= max(1e-6, C dx^2),
        # compared away from the periodic wrap (sign and the like are not
        # box-periodic, so the boundary belongs to a different problem)
        cfg = HeatOperatorConfig("kernel_quadrature")
        tol = max(1e-6, 0.2 * datum_grid.spacing**2)
        interior = np.abs(datum_grid.axis) <= datum_grid.half_extent / 2
        for datum in (SignDatum(), DiracDatum(0.0), SchwartzGaussPolyDatum((0.0, 1.0), 1.0)):
            evolved = heat_evolve(datum_grid, datum.sample(datum_grid), 0.25, cfg)
            expect = datum.value(0.25, datum_grid.axis)
            assert np.abs(evolved - expect)[interior].max() <= tol, datum.label

    def test_oscillator_evolution_on_compatible_grid(self):
        # sin(x) is box-periodic when L is a multiple of pi
        g = SpatialGrid.make(1, 4 * math.pi, 1024)
        cfg = HeatOperatorConfig("kernel_quadrature")
        osc = OscillatorDatum(1.0, 1.0)
        evolved = heat_evolve(g, osc.sample(g), 0.25, cfg)
        expect = osc.value(0.25, g.axis)
        assert np.abs(evolved - expect).max() <= max(1e-6, 0.2 * g.spacing**2)

    def test_erf_front_is_sign_evolution(self, datum_grid):
        sign_evolved = SignDatum().value(0.3, datum_grid.axis)
        erf_vals = ErfFront().value(0.3, datum_grid.axis)
        np.testing.assert_allclose(sign_evolved, erf_vals, atol=1e-14)

    def test_exact_pairings_against_quadrature(self):
        probe = hermite_probe(1, 1.0)
        # <sign, x e^{-x^2/2}> = 2 int_0^inf x e^{-x^2/2} = 2
        assert exact_pairing(SignDatum(), probe) == pytest.approx(2.0, rel=1e-10)
        assert exact_pairing(DiracDatum(0.3), probe) == pytest.approx(
            0.3 * math.exp(-0.045), rel=1e-12)
        osc = OscillatorDatum(1.0, 2.0)
        oracle, _ = quad(lambda y: 2.0 * math.sin(y) * y * math.exp(-y * y / 2), -30, 30)
        assert exact_pairing(osc, probe) == pytest.approx(oracle, rel=1e-9)

    def test_evolve_datum_exact_rejects_2d_grid(self):
        with pytest.raises(ValueError, match="grid must be 1-D, got dim 2"):
            evolve_datum_exact(SignDatum(), SpatialGrid.make(2, 8.0, 16), [0.1])

    @pytest.mark.parametrize("label", [None, "u"])
    def test_evolve_datum_exact_validates_its_field_once(self, monkeypatch, label):
        # one field is built and checked; its samples are sample_solution's
        grid, times = SpatialGrid.make(1, 8.0, 128), [0.3, 0.1, 0.2]
        sampled = sample_solution(SignDatum(), grid, times)
        checked = []
        post_init = SpaceTimeField.__post_init__

        def counted(self):
            checked.append(self.label)
            post_init(self)

        monkeypatch.setattr(SpaceTimeField, "__post_init__", counted)
        fld = evolve_datum_exact(SignDatum(), grid, times, label)
        assert checked == [label or "e^(tL)sign"] == [fld.label]
        assert fld.times.tobytes() == sampled.times.tobytes()
        assert fld.values.tobytes() == sampled.values.tobytes()

    def test_even_probe_pairs_to_zero_with_sign(self):
        assert exact_pairing(SignDatum(), hermite_probe(0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def _mp_gauss_poly(coeffs, sigma):
    return lambda x: mpmath.polyval(list(coeffs)[::-1], x) * mpmath.exp(-x * x / (2 * sigma**2))


def _mp_initial_function(datum):
    if isinstance(datum, SignDatum):
        return mpmath.sign
    if isinstance(datum, OscillatorDatum):
        return lambda x: datum.amplitude * mpmath.sin(datum.omega * x)
    return _mp_gauss_poly(datum.coeffs, datum.sigma)


class TestExactPairingOracle:
    """exact_pairing against an mpmath quadrature of u0 * phi on the whole line."""

    DATA = tuple(d for d in _RECOVERY_DATA if not isinstance(d, DiracDatum)) + (
        datum_from_id("oscillator:omega=1.5"),)

    @staticmethod
    def _reference(datum, probe) -> float:
        u0, phi = _mp_initial_function(datum), _mp_gauss_poly(probe.coeffs, probe.sigma)
        with mpmath.workdps(20):
            return float(mpmath.quad(lambda x: u0(x) * phi(x), [-mpmath.inf, 0, mpmath.inf]))

    @pytest.mark.parametrize("datum", DATA, ids=lambda d: d.label)
    def test_criterion_4_data_against_mpmath(self, datum):
        for probe in default_schwartz_panel():
            got = exact_pairing(datum, probe)
            odd = isinstance(datum, (SignDatum, OscillatorDatum)) and len(probe.coeffs) % 2 == 1
            if odd:  # odd datum times even Hermite probe
                assert got == 0.0, probe.label
            else:
                assert abs(got - self._reference(datum, probe)) <= 1e-14, probe.label

    @pytest.mark.parametrize("datum,probe,want", [
        # <sin(w x), (x/s) e^{-x^2/2s^2}> = sqrt(2 pi) s^2 w e^{-w^2 s^2/2}
        (OscillatorDatum(20.0, 1.0), hermite_probe(1, 2.0),
         math.sqrt(2 * math.pi) * 4.0 * 20.0 * math.exp(-800.0)),
        # <e^{-x^2/2d^2}, e^{-x^2/2s^2}> = sqrt(2 pi) / sqrt(1/d^2 + 1/s^2)
        (SchwartzGaussPolyDatum((1.0,), 0.02), hermite_probe(0, 2.0),
         math.sqrt(2 * math.pi) / math.sqrt(1 / 0.02**2 + 1 / 4.0)),
    ], ids=["fast-oscillator", "narrow-gaussian"])
    def test_panels_refine_until_resolved(self, datum, probe, want):
        # 16 panels of the 32-wide window leave these integrands unresolved
        assert exact_pairing(datum, probe) == pytest.approx(want, abs=1e-15)

    def test_unresolvable_datum_raises(self):
        with pytest.raises(ValueError, match="did not converge"):
            exact_pairing(OscillatorDatum(1e6, 1.0), hermite_probe(1, 1.0))

    def test_probe_without_decay_window_raises(self):
        with pytest.raises(TypeError, match=r"bump\(c=0,r=1\)"):
            exact_pairing(SignDatum(), TestFunction((0.0,), 1.0))


class TestRegistry:
    @pytest.mark.parametrize("ident,label", [
        ("gaussian_kernel:t0=2", "gaussian_kernel(t0=2)"),
        ("gaussian_kernel:t0=1,x0=0", "gaussian_kernel(t0=1)"),
        ("gaussian_kernel:t0=1,x0=-1.5", "gaussian_kernel(t0=1,x0=-1.5)"),
        ("gaussian_kernel:t0=1,dim=2", "gaussian_kernel(t0=1,x0=0,0)"),
        ("gaussian_kernel:t0=0.5,x0=2,dim=2", "gaussian_kernel(t0=0.5,x0=2,2)"),
        ("caloric_polynomial:m=4", "caloric_polynomial(4)"),
        ("exponential:mu=1", "exponential(mu=1)"),
        ("eigenmode:omega=2", "eigenmode(omega=2)"),
        ("erf_front", "erf_front"),
        ("tychonoff:K=40", "tychonoff(K=40)"),
    ])
    def test_solution_ids(self, ident, label):
        assert solution_from_id(ident).label == label

    @pytest.mark.parametrize("ident,cls", [
        ("sign", SignDatum),
        ("dirac:x0=0.5", DiracDatum),
        ("oscillator:omega=2,amp=3", OscillatorDatum),
        ("gauss_poly:coeffs=0|1|0.5,sigma=2", SchwartzGaussPolyDatum),
    ])
    def test_datum_ids(self, ident, cls):
        assert isinstance(datum_from_id(ident), cls)

    def test_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown solution"):
            solution_from_id("navier_stokes")
        with pytest.raises(ValueError, match="unknown datum"):
            datum_from_id("white_noise")

    @pytest.mark.parametrize("build,ident,expected", [
        (solution_from_id, "gaussian_kernel", GaussianKernelSolution(1.0, (0.0,))),
        (solution_from_id, "caloric_polynomial", CaloricPolynomial(2)),
        (solution_from_id, "exponential", ExponentialSolution((1.0,))),
        (solution_from_id, "eigenmode", Eigenmode((1.0,), 1.0)),
        (solution_from_id, "erf_front", ErfFront()),
        (solution_from_id, "tychonoff", TychonoffSolution(40)),
        (datum_from_id, "sign", SignDatum()),
        (datum_from_id, "dirac", DiracDatum(0.0)),
        (datum_from_id, "oscillator", OscillatorDatum(1.0, 1.0)),
        (datum_from_id, "gauss_poly", SchwartzGaussPolyDatum((1.0,), 1.0)),
    ])
    def test_bare_ids_build_the_registry_defaults(self, build, ident, expected):
        assert build(ident) == expected

    @pytest.mark.parametrize("build,ident,item,keys", [
        (solution_from_id, "eigenmode:omgea=2", "omgea=2", "omega, dim, amp"),
        (datum_from_id, "oscillator:omega=2,ampl=3", "ampl=3", "omega, amp"),
        (solution_from_id, "tychonoff:40", "40", "K"),
        (datum_from_id, "gauss_poly:sigma=2,1|2", "1|2", "coeffs, sigma"),
    ])
    def test_bad_id_parameters_rejected(self, build, ident, item, keys):
        # an unknown key or an item without '=' is an error, never a default
        with pytest.raises(ValueError) as err:
            build(ident)
        message = str(err.value)
        assert repr(ident) in message
        assert f"bad parameter {item!r}" in message
        assert f"accepted keys: {keys}" in message

    def test_bad_id_values_name_the_id(self):
        with pytest.raises(ValueError, match="solution id 'eigenmode:omega=abc': could not "
                                             "convert string to float"):
            solution_from_id("eigenmode:omega=abc")
        with pytest.raises(ValueError, match="solution id 'tychonoff:K=0': need K >= 1"):
            solution_from_id("tychonoff:K=0")

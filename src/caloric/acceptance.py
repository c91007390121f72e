"""The acceptance suite: nine desk-scale criteria, one pass/fail line each.

Every tolerance here is pinned; nothing is deferred to later calibration.
The final coverage step asserts that a full run has exercised every tracked
operation in the package, so the suite cannot silently stop guarding a
measurement path.

Each criterion records its sub-checks as ``check(name, passed, info)``.  A
criterion that raises fails alone: the exception is one FAIL line naming
its type and innermost frame, and the other criteria still run.
"""

from __future__ import annotations

import functools
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import cli, optrack
from .cli import Check
from .grid import SpatialGrid, SpaceTimeField, StripSpec
from .norms import (
    BallFamily,
    SpaceTimeRegion,
    bmo_inv_norm,
    caccioppoli_ratio,
    carleson_time_ladder,
    strip_growth_fit,
    tent_norm,
    tent_to_strip_bound,
)
from .probes import TestFunction, central_compact_panel, default_schwartz_panel, hermite_probe
from .representation import (
    SnapshotLadder,
    convergence_mode_probe,
    flux_functional,
    homotopy_residual,
    pairing_bound_check,
    recover_initial_data,
    uniqueness_probe,
)
from .semigroup import AnnulusScheme, HeatOperatorConfig, annulus_decay_check, heat_evolve
from .util import det_sum
from .zoo import (
    CaloricPolynomial,
    DiracDatum,
    Eigenmode,
    ErfFront,
    ExponentialSolution,
    GaussianKernelSolution,
    OscillatorDatum,
    ResidualProbeRegion,
    SchwartzGaussPolyDatum,
    SignDatum,
    TychonoffSolution,
    evolve_datum_exact,
    heat_residual,
    sample_solution,
    tychonoff_eval,
)

KERNEL = HeatOperatorConfig("kernel_quadrature")
KERNEL6 = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=6.0)
SPECTRAL = HeatOperatorConfig("spectral_multiplier")


@dataclass
class CriterionResult:
    index: int
    name: str
    runtime_budget: float
    elapsed: float
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def details(self) -> list[str]:
        return [f"  {'ok' if c.passed else 'FAIL'}: {c.name}" + (f" ({c.info})" if c.info else "")
                for c in self.checks]

    @property
    def status_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.index}: {self.name} ({self.elapsed:.1f}s)"


def _criterion(index: int, name: str, budget: float):
    """Make ``body(check, *args)`` a criterion that returns its CriterionResult.

    An exception from the body is one failing check, ``raised <Type>`` at its
    innermost frame, and the runtime budget is always the last check.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(*args) -> CriterionResult:
            checks: list[Check] = []
            start = time.perf_counter()
            try:
                body(lambda what, ok, info: checks.append(Check(what, bool(ok), info)), *args)
            except Exception as exc:
                site = traceback.extract_tb(exc.__traceback__)[-1]
                checks.append(Check(f"raised {type(exc).__name__}", False,
                                    f"{os.path.basename(site.filename)}:{site.lineno}: {exc}"))
            elapsed = time.perf_counter() - start
            checks.append(Check("runtime budget", elapsed < budget,
                                f"{elapsed:.1f}s < {budget:.0f}s"))
            return CriterionResult(index, name, budget, elapsed, checks)

        return run

    return decorate


@_criterion(1, "semigroup laws", 30.0)
def criterion_1_semigroup_laws(check) -> None:
    grid = SpatialGrid.make(1, 4 * math.pi, 256)
    x = grid.axis
    f = np.sin(x) + 0.3 * np.cos(0.5 * x)
    # composition (spectral)
    comp = heat_evolve(grid, heat_evolve(grid, f, 0.2, SPECTRAL), 0.3, SPECTRAL)
    direct = heat_evolve(grid, f, 0.5, SPECTRAL)
    err = np.abs(comp - direct).max() / np.abs(f).max()
    check("semigroup composition (spectral)", err <= 1e-6, f"{err:.2e} <= 1e-6")
    for cfg, tag in ((KERNEL, "kernel"), (SPECTRAL, "spectral")):
        ev = heat_evolve(grid, f, 0.4, cfg)
        mass = abs(ev.mean() - f.mean())
        check(f"mass conservation ({tag})", mass <= 1e-10, f"{mass:.2e}")
        over = max(ev.max() - f.max(), f.min() - ev.min(), 0.0)
        check(f"maximum principle ({tag})", over <= 1e-10, f"{over:.2e}")
        l2_in = math.sqrt(det_sum(f**2 * grid.spacing))
        l2_out = math.sqrt(det_sum(ev**2 * grid.spacing))
        check(f"L2 contraction ({tag})", l2_out <= l2_in * (1 + 1e-12),
              f"{l2_out:.6f} <= {l2_in:.6f}")
    mode = heat_evolve(grid, np.sin(x), 0.7, SPECTRAL)
    rel = np.abs(mode - math.exp(-0.7) * np.sin(x)).max() / math.exp(-0.7)
    check("eigenmode decay exact (spectral)", rel <= 1e-8, f"{rel:.2e} <= 1e-8")
    # 2D: constants, mass, separable eigenmode
    g2 = SpatialGrid.make(2, 2 * math.pi, 64)
    xg, yg = g2.meshgrid()
    f2 = np.sin(xg) * np.sin(yg)
    ev2 = heat_evolve(g2, f2, 0.25, SPECTRAL)
    rel2 = np.abs(ev2 - math.exp(-0.5) * f2).max() / math.exp(-0.5)
    check("2D eigenmode decay (spectral)", rel2 <= 1e-8, f"{rel2:.2e}")
    ones = heat_evolve(g2, np.ones(g2.shape), 0.1, KERNEL)
    check("2D constants preserved (kernel)",
          np.abs(ones - 1).max() <= 1e-12, f"{np.abs(ones - 1).max():.2e}")
    # zoo heat residuals below the kind-specific bounds
    residual_cases = [
        (Eigenmode((1.0,)), ResidualProbeRegion((0.2, 1.0), 2.0), 1e-5),
        (GaussianKernelSolution(1.0), ResidualProbeRegion((0.2, 1.0), 2.0), 1e-6),
        (CaloricPolynomial(2), ResidualProbeRegion((0.2, 1.0), 2.0), 1e-8),
        (CaloricPolynomial(4),
         ResidualProbeRegion((0.2, 1.0), 2.0, dt=0.01, dx=0.05, stencil_order=4), 1e-9),
        (ExponentialSolution((1.0,)), ResidualProbeRegion((0.1, 0.3), 1.0), 1e-6),
        (ErfFront(), ResidualProbeRegion((0.25, 0.5), 2.0), 2e-5),
        (TychonoffSolution(40), ResidualProbeRegion((0.2, 0.9), 2.0), 1e-4),
    ]
    for sol, region, bound in residual_cases:
        res = heat_residual(sol, region)
        check(f"heat residual {sol.label}", res <= bound, f"{res:.2e} <= {bound:g}")


_HOMOTOPY_ZOO = (
    GaussianKernelSolution(1.0),
    CaloricPolynomial(2),
    CaloricPolynomial(4),
    ExponentialSolution((1.0,)),
    Eigenmode((1.0,)),
)

# per-method grid triplets: each method's three levels sit where its dominant
# error term (O(dx^2) kernel consistency, resp. bump alias decay) is above
# its floor, so the >=3x-per-halving signature is measurable
_HOMOTOPY_LEVELS = {
    "kernel_quadrature": (4096, 8192, 16384),
    "spectral_multiplier": (256, 512, 1024),
}


@_criterion(2, "homotopy identity", 120.0)
def criterion_2_homotopy(check) -> None:
    """Homotopy residual ladders, both methods.  A spectral level's rhs is that grid's rectangle
    rule for int u(t) h (within ulps): its residuals measure that rule, not operator consistency."""
    h = TestFunction((1.0,), 1.0)
    for method, levels in _HOMOTOPY_LEVELS.items():
        cfg = HeatOperatorConfig(method, truncation_radius_factor=10.0)
        per_level = [homotopy_residual(_HOMOTOPY_ZOO, 0.5, 1.0, h, cfg,
                                       grid=SpatialGrid.make(1, 16.0, n), grid_level=lvl)
                     for lvl, n in enumerate(levels)]
        for sol, reports in zip(_HOMOTOPY_ZOO, zip(*per_level)):
            resids = [rep.residual for rep in reports]
            ratios = [resids[i] / resids[i + 1] for i in range(len(resids) - 1)]
            ok = all(r >= 3.0 for r in ratios) and resids[-1] <= 1e-5
            check(f"{method}/{sol.label}", ok,
                  "residuals " + ",".join(f"{r:.1e}" for r in resids))


@_criterion(3, "size condition", 60.0)
def criterion_3_size_condition(check) -> None:
    grid = SpatialGrid.make(1, 15.0, 1024)
    strip = StripSpec(1.0, 2.0)
    times = np.linspace(1.0, 2.0, 13)
    for sol in (Eigenmode((1.0,)), GaussianKernelSolution(1.0)):
        fld = sample_solution(sol, grid, times)
        fit = strip_growth_fit(fld, strip, [2, 3, 4, 5, 6, 7, 8])
        check(f"bounded member gamma_hat ({sol.label})",
              fit.gamma_hat < 0.01 and fit.classification == "PASS",
              f"gamma={fit.gamma_hat:.4f} {fit.classification}")
    exp_field = sample_solution(ExponentialSolution((1.0,)), grid, times)
    gammas = []
    for radii in ([2, 3, 4, 5, 6, 7, 8], [2, 3, 4, 6, 8, 10], [2, 4, 6, 8, 10, 12]):
        fit = strip_growth_fit(exp_field, strip, radii)
        gammas.append(fit.gamma_hat)
        check(f"exponential PASS at Rmax={radii[-1]}",
              fit.classification == "PASS", f"gamma={fit.gamma_hat:.4f}")
    check("exponential gamma_hat decreasing toward 0",
          gammas[0] > gammas[1] > gammas[2] > 0,
          "gammas " + ",".join(f"{g:.4f}" for g in gammas))
    g8 = SpatialGrid.make(1, 8.0, 512)
    ty_field = sample_solution(TychonoffSolution(40), g8, np.linspace(0.1, 0.3, 11))
    ty_fit = strip_growth_fit(ty_field, StripSpec(0.1, 0.3), [2, 3, 4, 5, 6])
    check("tychonoff FAIL with credible fit",
          ty_fit.gamma_hat >= 0.25 and ty_fit.classification == "FAIL"
          and ty_fit.r2_of_fit >= 0.9,
          f"gamma={ty_fit.gamma_hat:.3f} r2={ty_fit.r2_of_fit:.3f}")
    # uniqueness probes ride on the same growth measurements
    panel = default_schwartz_panel()
    lad = SnapshotLadder(1.9, 0.7, 6)
    union_times = np.unique(np.concatenate([lad.times, times]))
    zero_field = SpaceTimeField(grid, union_times,
                                np.zeros((union_times.size, *grid.shape)), "zero")
    v0 = uniqueness_probe(zero_field, lad, panel, strip, [2, 3, 4, 5, 6, 7, 8])
    check("uniqueness: zero field CONSISTENT", v0.verdict == "CONSISTENT", v0.verdict)
    em_field = sample_solution(Eigenmode((1.0,)), grid, union_times)
    vem = uniqueness_probe(em_field, lad, panel, strip, [2, 3, 4, 5, 6, 7, 8])
    check("uniqueness: eigenmode hypothesis not met",
          vem.verdict == "HYPOTHESIS_NOT_MET", vem.verdict)
    ty_lad = SnapshotLadder(0.28, 0.7, 4)
    vty = uniqueness_probe(ty_field, ty_lad, panel, StripSpec(0.1, 0.3), [2, 3, 4, 5, 6])
    check("uniqueness: tychonoff NOT_APPLICABLE",
          vty.verdict == "NOT_APPLICABLE", vty.verdict)


_RECOVERY_DATA = (
    OscillatorDatum(1.0, 1.0),
    DiracDatum(0.0),
    SignDatum(),
    SchwartzGaussPolyDatum((0.0, 1.0, 0.5), 1.0),
)


@_criterion(4, "representation closure", 120.0)
def criterion_4_representation_closure(check) -> None:
    grid = SpatialGrid.make(1, 16.0, 2048)
    panel = default_schwartz_panel()
    for datum in _RECOVERY_DATA:
        extraps = {}
        for q in (0.5, 0.7):
            lad = SnapshotLadder.down_to(0.08, q, 6e-4)
            fld = evolve_datum_exact(datum, grid, lad.times)
            rec = recover_initial_data(fld, lad, panel, datum=datum)
            extraps[q] = np.array([p.extrapolated for p in rec.per_probe])
            check(f"recovery error {datum.label} q={q}",
                  rec.all_recoverable and rec.max_error <= 1e-4,
                  f"max err {rec.max_error:.2e} <= 1e-4")
        dq = float(np.abs(extraps[0.5] - extraps[0.7]).max())
        check(f"ladder independence {datum.label}", dq <= 1e-8, f"{dq:.2e} <= 1e-8")


@_criterion(5, "nonuniqueness counterexample", 60.0)
def criterion_5_counterexample(check) -> None:
    grid = SpatialGrid.make(1, 8.0, 1024)
    ty = TychonoffSolution(40)
    ladder = SnapshotLadder.down_to(0.1, 0.7, 2e-3)
    rep = convergence_mode_probe(
        ty, grid, ladder,
        compact_panel=central_compact_panel((0.5, 1.0)),
        schwartz_panel=[hermite_probe(0, 1.0)],
        rho_values=(2.0, 4.0, 6.0, 8.0), t_divergence=0.1)
    check("compact pairings decrease below 1e-8",
          rep.compact_converging and rep.compact_final_sup < 1e-8,
          f"final sup {rep.compact_final_sup:.2e}")
    check("schwartz partials grow >= 10x per step",
          rep.schwartz_diverging,
          "factors " + ",".join(f"{f:.1e}" for f in rep.schwartz_growth_factors))
    value, flagged = tychonoff_eval(0.1, 8.0, 40)
    check("series truncation flagged at the outermost radius", flagged,
          f"S_40(0.1, 8) = {value:.2e}")


@_criterion(6, "annulus decay exponent", 30.0)
def criterion_6_annulus_decay(check) -> None:
    grid = SpatialGrid.make(1, 8.0, 1600)
    h = TestFunction((0.0,), 1.0)
    h_vals = h.value(grid.axis)
    scheme = AnnulusScheme(1.0, 1.3, 6)
    res_t = annulus_decay_check(grid, h_vals, 0.1, scheme)
    res_2t = annulus_decay_check(grid, h_vals, 0.2, scheme)
    check("fitted c in (0.20, 0.25]", res_t.window_ok,
          f"c={res_t.fitted_c:.4f} (inner-edge slope {res_t.inner_edge_c:.4f})")
    stab = abs(res_2t.fitted_c - res_t.fitted_c) / res_t.fitted_c
    check("stable within 10% under t -> 2t", stab <= 0.10,
          f"{res_t.fitted_c:.4f} -> {res_2t.fitted_c:.4f} ({100 * stab:.1f}%)")
    h_norm = math.sqrt(det_sum(h_vals**2 * grid.spacing))
    check("contraction on the support ball",
          res_t.rows[0].l2_norm <= h_norm,
          f"{res_t.rows[0].l2_norm:.4f} <= {h_norm:.4f}")


@_criterion(7, "flux boundedness", 60.0)
def criterion_7_flux_boundedness(check) -> None:
    grid = SpatialGrid.make(1, 12.0, 1024)
    h = TestFunction((0.0,), 1.0)
    strip = StripSpec(0.25, 1.25)
    times = np.linspace(0.25, 1.25, 13)
    for sol in (GaussianKernelSolution(1.0), Eigenmode((1.0,))):
        fld = sample_solution(sol, grid, times)
        fit = strip_growth_fit(fld, strip, [2, 3, 4, 5, 6, 7, 8])
        res = flux_functional(sol, 0.5, 1.0, h, gamma_hat=fit.gamma_hat, cfg=KERNEL6,
                              grid=grid)
        check(f"admissibility {sol.label}", res.admissible,
              f"gamma {fit.gamma_hat:.4f} < {res.gamma_threshold:.4f}")
        check(f"max flux finite, tail decreasing {sol.label}",
              math.isfinite(res.max_total) and res.tail_monotone_decreasing,
              f"max {res.max_total:.2e}")
        if isinstance(sol, GaussianKernelSolution):
            phi8 = res.rows[-1].total
            check("gaussian flux at R=8 below 1e-8", phi8 <= 1e-8, f"{phi8:.2e}")


def _tent_oracle_value() -> float:
    """Closed-form tent norm of the 1D heat kernel.

    It needs I = int_0^1 2 erf(1/(sqrt(2) s)) ds.  Integrating by parts and
    substituting u = 1/(2 s^2) gives I = 2 (erf(1/sqrt(2)) + E1(1/2)/sqrt(2 pi)),
    which matches a 40-digit quadrature to the last double digit.
    """
    from scipy.special import erf, exp1

    integral = 2.0 * (erf(1.0 / math.sqrt(2.0)) + exp1(0.5) / math.sqrt(2.0 * math.pi))
    return math.sqrt(0.5 * (8.0 * math.pi) ** -0.5 * integral)


@_criterion(8, "tent space and bmo^-1", 120.0)
def criterion_8_tent_and_bmo(check) -> None:
    oracle = _tent_oracle_value()
    grids = {512: SpatialGrid.make(1, 8.0, 512), 1024: SpatialGrid.make(1, 8.0, 1024)}
    family = BallFamily(((0.0,),), (0.5, 1.0, 2.0))

    def phi_field(g: SpatialGrid) -> SpaceTimeField:
        times = carleson_time_ladder(g, 4.0, extra=[r * r for r in family.radii])
        return evolve_datum_exact(DiracDatum(0.0), g, times, "Phi")

    phi_512 = phi_field(grids[512])
    tent_phi = tent_norm(phi_512, family)
    rel = abs(tent_phi.value - oracle) / oracle
    check("tent norm of the heat kernel matches the erf oracle",
          rel <= 0.05, f"{tent_phi.value:.4f} vs {oracle:.4f} ({100 * rel:.2f}%)")
    # the box heights reach t = 4, beyond the kernel truncation's reach
    # on this box, so the heat characterization runs spectrally here
    bmo_dirac = bmo_inv_norm(DiracDatum(0.0).sample(grids[512]), grids[512], family, SPECTRAL)
    rel_b = abs(bmo_dirac.value - oracle) / oracle
    check("bmo^-1 norm of the point mass matches the same oracle",
          rel_b <= 0.05, f"{bmo_dirac.value:.4f} ({100 * rel_b:.2f}%)")
    osc = OscillatorDatum(1.0, 1.0)
    b1 = bmo_inv_norm(osc.sample(grids[512]), grids[512], family, SPECTRAL)
    b2 = bmo_inv_norm(osc.rescaled(2.0).sample(grids[512]), grids[512], family, SPECTRAL)
    ratio = b2.value / b1.value
    check("oscillator norm stable under the scaling w->2w", abs(ratio - 1) <= 0.10,
          f"ratio {ratio:.3f}")
    # pairing bound: corpus ratios bounded and 5%-stable over two grid
    # levels (off-center bump, so odd fields do not pair to zero)
    phi_bump = TestFunction((1.0,), 1.0)

    def corpus(phi: SpaceTimeField) -> list[SpaceTimeField]:
        return [phi,
                evolve_datum_exact(SignDatum(), phi.grid, phi.times, "e^(tL)sign"),
                evolve_datum_exact(osc, phi.grid, phi.times, "e^(tL)oscillator")]

    labels = ["Phi", "e^(tL)sign", "e^(tL)oscillator"]
    # both grid levels in one call, so the seminorm is computed once
    ratios = [r.ratio for r in pairing_bound_check(
        corpus(phi_512) + corpus(phi_field(grids[1024])), phi_bump, family=family)]
    for i, label in enumerate(labels):
        a, b = ratios[i], ratios[i + len(labels)]
        stable = abs(a - b) / max(a, 1e-300) <= 0.05
        check(f"pairing ratio bounded+stable ({label})",
              math.isfinite(a) and stable, f"{a:.4f} vs {b:.4f}")
    # strip bound F(x) against the tent norm (ratio finite, 5%-stable)
    strip = StripSpec(0.01, 1.0)
    tts = []
    for n, g in grids.items():
        times = carleson_time_ladder(g, 4.0, extra=[r * r for r in family.radii] + [1.0])
        fld = evolve_datum_exact(SignDatum(), g, times, "e^(tL)sign")
        tts.append(tent_to_strip_bound(fld, strip, family=family).ratio)
    check("tent-to-strip ratio finite and 5%-stable",
          math.isfinite(tts[0]) and abs(tts[0] - tts[1]) / tts[0] <= 0.05,
          f"{tts[0]:.4f} vs {tts[1]:.4f}")
    # composite: T_inf solution is represented
    g15 = SpatialGrid.make(1, 15.0, 2048)
    fit = strip_growth_fit(sample_solution(Eigenmode((1.0,), 1.0), g15,
                                           np.linspace(1.0, 2.0, 13)),
                           StripSpec(1.0, 2.0), [2, 3, 4, 5, 6, 7, 8])
    check("composite: size condition PASS", fit.classification == "PASS",
          f"gamma={fit.gamma_hat:.4f}")
    lad = SnapshotLadder.down_to(0.08, 0.5, 6e-4)
    osc_field = evolve_datum_exact(osc, g15, lad.times)
    rec = recover_initial_data(osc_field, lad, default_schwartz_panel(), datum=osc)
    # condition (ii) read from the recovery: a recoverable (Cauchy) sequence is bounded
    pairings = [abs(v) for p in rec.per_probe for v in p.pairings]
    check("composite: snapshots bounded (condition ii)",
          rec.all_recoverable and all(map(math.isfinite, pairings)),
          f"sup {max(pairings):.3f}")
    check("composite: datum pairings recovered within 1e-3",
          rec.all_recoverable and rec.max_error <= 1e-3,
          f"max err {rec.max_error:.2e}")


_CACCIOPPOLI_CORPUS = (
    GaussianKernelSolution(1.0),
    CaloricPolynomial(2),
    CaloricPolynomial(4),
    ExponentialSolution((1.0,)),
    Eigenmode((1.0,)),
    ErfFront(),
)


@_criterion(9, "caccioppoli energy ratio", 30.0)
def criterion_9_caccioppoli(check) -> None:
    inner = SpaceTimeRegion(1.0, 2.0, 1.0)
    outer = SpaceTimeRegion(0.5, 2.0, 2.0)
    maxima = []
    for n in (512, 1024):
        g = SpatialGrid.make(1, 8.0, n)
        times = np.linspace(0.4, 2.1, 15)
        worst = 0.0
        for sol in _CACCIOPPOLI_CORPUS:
            fld = sample_solution(sol, g, times)
            worst = max(worst, caccioppoli_ratio(fld, inner, outer))
        # flat series only inside its resolved region (t <= 1, |x| <= 2)
        ty_field = sample_solution(TychonoffSolution(40), g, np.linspace(0.2, 0.8, 13))
        ty_ratio = caccioppoli_ratio(ty_field, SpaceTimeRegion(0.4, 0.7, 1.0),
                                     SpaceTimeRegion(0.2, 0.8, 2.0))
        worst = max(worst, ty_ratio)
        maxima.append(worst)
    check("corpus-wide ratio finite", all(math.isfinite(m) for m in maxima),
          f"max {maxima[-1]:.4f}")
    drift = abs(maxima[0] - maxima[1]) / maxima[1]
    check("refinement-stable within 10%", drift <= 0.10,
          f"{maxima[0]:.4f} vs {maxima[1]:.4f} ({100 * drift:.1f}%)")
    # the closed-form eigenmode example stays below 1
    g = SpatialGrid.make(1, 8.0, 1024)
    em = sample_solution(Eigenmode((1.0,)), g, np.linspace(0.4, 2.1, 15))
    ratio = caccioppoli_ratio(em, inner, outer)
    check("eigenmode ratio <= 1", ratio <= 1.0, f"{ratio:.4f}")


ALL_CRITERIA = (
    criterion_1_semigroup_laws,
    criterion_2_homotopy,
    criterion_3_size_condition,
    criterion_4_representation_closure,
    criterion_5_counterexample,
    criterion_6_annulus_decay,
    criterion_7_flux_boundedness,
    criterion_8_tent_and_bmo,
    criterion_9_caccioppoli,
)


def run_all(out_dir: str, echo) -> list[CriterionResult]:
    """Run the nine criteria plus the operation-coverage assertion.

    The coverage check routes a small growth-fit experiment through the CLI
    runner so the report/plot machinery is exercised; its files land in
    *out_dir* alongside summary.txt.  Once all ten have run, *echo* gets
    every status and detail line in run order (kept for the benchmark
    scripts under ``bench/``, which pass it).
    """
    results = [fn() for fn in ALL_CRITERIA] + [coverage_check(out_dir)]
    for r in results:
        echo(r.status_line)
        for line in r.details:
            echo(line)
    return results


@_criterion(10, "operation coverage", 60.0)
def coverage_check(check, out_dir: str) -> None:
    """Assert the suite has exercised every tracked operation."""
    config = cli.ExperimentConfig(
        pipeline="growth-fit",
        solution_id="eigenmode:omega=1",
        grid_dim=1, grid_half_extent=15.0, grid_points=512,
        strip_a=1.0, strip_b=2.0,
        radii=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        out_dir=out_dir,
    )
    run = cli.run_experiment(config)
    check("embedded growth-fit experiment exits 0", run.exit_code == 0,
          f"exit {run.exit_code}")
    missing = optrack.uncovered_ops()
    check("every tracked operation exercised", not missing,
          "missing: " + ",".join(missing) if missing else
          f"{len(optrack.registered_ops())} ops covered")

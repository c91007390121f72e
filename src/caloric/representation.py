"""Representation machinery: homotopy identity, flux diagnostics, data recovery.

The centerpiece is the interior semigroup relation

    int u(t) h = int u(s) (e^{(t-s)L} h),   0 < s < t,  h compactly supported,

whose quadrature residual must vanish under grid refinement for every
caloric function satisfying the size condition.  The identity and the flux
functional below are checked against closed-form (analytic) solutions only,
so no time is ever interpolated; the ladder probes read sampled fields at
their sample times.  On top of the identity sit:

* the annulus-averaged flux functional Phi(R) = Phi_1 + Phi_2 from the
  identity's proof, bounded (with a decreasing tail) exactly when the
  measured growth exponent is admissible, gamma_hat < c lambda^2 / kappa^2.
  The annuli and the threshold are fixed: lambda = _FLUX_LAMBDA = 0.9,
  kappa = _FLUX_KAPPA = 1.1, c = _FLUX_C = 0.24, the radii _FLUX_RADII =
  2..8, and _FLUX_GAMMA_THRESHOLD = c lambda^2 / kappa^2;
* recovery of the initial datum as a tempered-distribution functional: the
  pairings <u(t_k), phi> along a geometric ladder are Cauchy, and Richardson
  extrapolation (the bias is O(t) with smooth higher corrections; three
  levels) pins the limit independently of the ladder ratio.  The same
  pairings witness condition (ii), boundedness of the snapshots as
  tempered distributions: a recoverable (Cauchy) sequence is bounded;
* probes for the uniqueness principle (ladder pairings tending to zero
  should force u = 0), for the convergence dichotomy exhibited by the
  flat-series solution (compactly-supported pairings converge, Schwartz
  pairings diverge), and for the seminorm pairing bound
  sup_t |<u(t), phi>| <= C P_{n+3}(phi) ||u||_{T_inf}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import ceil, floor, isfinite, nan, sqrt
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainTooSmallError, InvariantViolationError
from .grid import (
    SpaceTimeField,
    SpatialGrid,
    StripSpec,
    integrate_ball,
    masked_sums,
    point_distance,
)
from .norms import BallFamily, GrowthFit, schwartz_seminorm, strip_growth_fit, tent_norm
from .optrack import track
from .probes import SchwartzProbe, TestFunction
from .semigroup import HeatOperatorConfig, heat_evolve, heat_evolve_gradient
from .util import det_sum
from .zoo import AnalyticSolution, InitialDatum, exact_pairing, heat_kernel

Array = NDArray[np.float64]

_RHS_TAIL_TOL = 1e-10
# The homotopy right side gathers u(s) at the points it reads while they are
# at most this share of the grid, and evaluates it on the open mesh beyond.
# Gathering holds about 6 floats per point read, the mesh about 4 per grid
# point: traced peaks cross at a share of 0.62 on 256^2 and 0.68 on 16384
# points, and on 2 vCPUs the step's time crosses between 0.53 and 0.92
# (heat-ladder kernel levels read 0.50-0.60 of their grid, spectral ones
# 0.96-1.0).
_GATHER_MAX_SHARE = 5 / 8
# Trapezoid nodes in tau of the flux functional.
_N_TAU = 9
# Richardson levels: the recovery bias terms t, t^2, t^3 are removed.
_RICHARDSON_LEVELS = 3
# Uniqueness probe: a pairing limit or an interior slice norm at or below
# these counts as zero.
_PAIR_TOL = 1e-6
_SLICE_TOL = 1e-6
# Schwartz partial integrals diverge when each grows by at least this factor.
_DIVERGENCE_FACTOR = 10.0
# The pairing bound takes the sup over the sample times below this cap.
_PAIRING_T_CAP = 0.5
# Flux functional: annuli lam R < |x| < R at the radii R; a measured growth
# exponent is admissible below c lam^2 / kappa^2 (the proof's smallness
# condition, with lam in (0, 1), kappa > 1 and c in (0, 1/4)).
_FLUX_LAMBDA = 0.9
_FLUX_KAPPA = 1.1
_FLUX_C = 0.24
_FLUX_RADII = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
_FLUX_GAMMA_THRESHOLD = _FLUX_C * _FLUX_LAMBDA**2 / _FLUX_KAPPA**2


@dataclass(frozen=True)
class SnapshotLadder:
    """Geometric times t_k = t0 * ratio^k, k = 0..count-1, decreasing to 0."""

    t0: float
    ratio: float
    count: int

    def __post_init__(self) -> None:
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 3:
            raise ValueError("need at least 3 ladder steps")

    @property
    def times(self) -> NDArray[np.float64]:
        return self.t0 * self.ratio ** np.arange(self.count, dtype=float)

    def validate_floor(self, grid: SpatialGrid) -> None:
        floor = grid.spacing**2
        if self.times[-1] < floor:
            raise ValueError(
                f"ladder bottom {self.times[-1]:g} is below the resolution floor "
                f"{floor:g} = 1*dx^2")

    @classmethod
    def down_to(cls, t0: float, ratio: float, t_floor: float) -> "SnapshotLadder":
        """Ladder from t0 with the given ratio, ending just above t_floor."""
        count = 1
        t = t0
        while t * ratio >= t_floor:
            t *= ratio
            count += 1
        return cls(t0, ratio, max(count, 3))


@dataclass(frozen=True)
class HomotopyReport:
    solution: str
    s: float
    t: float
    h_id: str
    grid_level: int
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def grid_pairing(grid: SpatialGrid, values: Array, probe_values: Array) -> float | Array:
    """Deterministic quadrature of <u, phi> over the full grid.

    *values* is one slice (returns a float) or a stack of slices along a
    leading time axis (returns one pairing per slice).
    """
    return masked_sums(grid, None, values, probe_values, grid.cell_volume)


def _check_probe_dims(panel, grid: SpatialGrid) -> None:
    """A pairing needs probes of the field's dimension (ValueError otherwise)."""
    for probe in panel:
        if probe.dim != grid.dim:
            raise ValueError(f"probe {probe.label} is {probe.dim}-D but the field is "
                             f"{grid.dim}-D; a pairing needs probes of the field's dimension")


def _check_solution_dims(u: AnalyticSolution, h: TestFunction, grid: SpatialGrid) -> None:
    """The solution, the bump and the grid must share one dimension (ValueError)."""
    if u.dim != grid.dim:
        raise ValueError(f"solution {u.label} is {u.dim}-D but the grid is {grid.dim}-D; "
                         "the identity needs a solution of the grid's dimension")
    _check_probe_dims((h,), grid)


def _open_mesh(*axes: Array) -> tuple[Array, ...]:
    """One axis per dimension, shaped to broadcast into their tensor mesh."""
    return axes if len(axes) == 1 else (axes[0][:, None], axes[1][None, :])


def _gather(mesh: tuple[Array, ...], mask: NDArray[np.bool_]) -> tuple[Array, ...]:
    """Coordinates of the points of *mask* (C order) from an open mesh.

    Each broadcast axis is read at the mask directly, so neither the full
    mesh nor an index array over it is built.
    """
    return tuple(np.broadcast_to(a, mask.shape)[mask] for a in mesh)


def _support_box(h: TestFunction, grid: SpatialGrid) -> tuple[tuple[slice, ...], tuple[Array, ...]]:
    """The index box of supp h on *grid* and its open mesh.

    Per axis the box is one point wider on each side than [c - r, c + r],
    clipped to the axis (empty when the support lies wholly off it), so h
    is +0.0 off it.  Its points -L + j dx are the axis's values bit for
    bit, so h on the box is h on the grid there.
    """
    L, dx, n = grid.half_extent, grid.spacing, grid.points_per_axis
    box, axes = [], []
    for c in h.center[:grid.dim]:
        j0 = max(floor((c - h.radius + L) / dx) - 1, 0)
        j1 = max(min(ceil((c + h.radius + L) / dx) + 2, n), j0)
        box.append(slice(j0, j1))
        axes.append(-L + np.arange(j0, j1, dtype=float) * dx)
    return tuple(box), _open_mesh(*axes)


def _support_nodes(h: TestFunction, grid: SpatialGrid) -> tuple[tuple[Array, ...], Array, float]:
    """The fine points of supp h, h there and the fine cell volume; no u enters.

    The fine grid is an 8x (1D) or 4x (2D) refinement of *grid*.  Only the
    points of its :func:`_support_box` are built, and of those only the
    ones where h is nonzero are kept.
    """
    fine = grid.refined(8 if grid.dim == 1 else 4)
    _, mesh = _support_box(h, fine)
    h_vals = h.value(*mesh)
    mask = h_vals != 0.0
    return _gather(mesh, mask), h_vals[mask], fine.cell_volume


def _support_quadrature(u, t: float, nodes: tuple) -> float:
    """Grid-independent quadrature of u(t) * h over supp h.

    A midpoint rule on the fine support nodes of :func:`_support_nodes`; for
    the smooth integrands of the corpus this is exact far beyond the
    tolerances, so the homotopy residual measures the discrete right-hand
    path rather than a telescoped difference.  h vanishes outside the nodes,
    their values are those of the whole fine grid, and det_sum is exact, so
    the sum is the full-grid one bit for bit (0.0 when no fine point falls
    inside the support).
    """
    points, h_vals, cell = nodes
    return det_sum(u.value(t, *points) * h_vals * cell)


def _ring_bound(grid: SpatialGrid, mesh: tuple[Array, ...], h: TestFunction, h_box: Array,
                tau: float) -> tuple[NDArray[np.bool_], Array]:
    """The ring max_i |x_i| >= 0.9 L, and ||h||_1 G_tau(dist(x, supp h)) on it.

    *mesh* is the grid's open mesh (:func:`_open_mesh` of its axes).
    *h_box* is h on its :func:`_support_box`, which holds every nonzero of
    h, so ||h||_1 is its exact sum.  The ring is the union of the slabs
    |x_i| >= 0.9 L of *mesh*.  G falls with distance and the
    grid support of h lies in B(c, r), so this bounds the untruncated
    quadrature of |e^{tau L} h|.  No operator enters it, so neither
    truncation nor FFT noise can hide or fake a tail.
    """
    ring = reduce(np.logical_or, [np.abs(a) >= 0.9 * grid.half_extent for a in mesh])
    gap = np.maximum(point_distance(_gather(mesh, ring), h.center) - h.radius, 0.0)
    h_mass = det_sum(np.abs(h_box) * grid.cell_volume)
    return ring, h_mass * heat_kernel(tau, gap**2, grid.dim)


@track("homotopy_residual")
def homotopy_residual(solutions: Sequence[AnalyticSolution], s: float, t: float,
                      h: TestFunction, cfg: HeatOperatorConfig, *, grid: SpatialGrid,
                      grid_level: int) -> tuple[HomotopyReport, ...]:
    """Quadrature residuals of int u(t) h = int u(s) e^{(t-s)L} h, one per solution.

    Returns one report per solution of *solutions*, in order.  Each u is a
    closed-form solution, evaluated exactly at s and t.  The left side
    integrates u(t) h over supp h on a grid-independent refinement; the right
    side pairs u(s) with the configured discrete operator's e^{(t-s)L} h over
    the full grid, so the residual tracks the operator's consistency error
    and falls under grid refinement.  Every solution, h and the grid must
    have one dimension: each is checked before any operator work (ValueError
    naming them otherwise).  The operator image e^{(t-s)L} h and its ring
    bound below do not depend on u, so they are computed once per call, as
    are the fine support nodes of the left side; per solution only u(s),
    u(t) on those nodes, the ring audit and the two sides are.

    Each factor is evaluated only where it is read.  h is evaluated on its
    support box (:func:`_support_box`) and put into a zero field, which is
    h on the grid: h is +0.0 off the box.  u(s) is evaluated once, at the
    points of the ring and at the nonzeros of e^{(t-s)L} h, gathered from
    the axes, and the right side is the exact det_sum over those nonzeros:
    every term it drops is u(s) * (+-0.0), a zero for finite u(s), so it
    equals the full-grid pairing bit for bit.  The kernel image vanishes
    off the window its support reaches; a spectral image has only a few
    scattered exact zeros, so when more than ``_GATHER_MAX_SHARE`` of the
    grid is read, gathering would cost more time and memory than it saves,
    and u(s) is evaluated on the open mesh and paired over the whole grid.

    The right-hand integrand must have died out inside the box: the extent
    audit requires |u(s)| times the closed-form bound of |e^{(t-s)L}h| to
    stay below 1e-10 on the ring max_i |x_i| >= 0.9 L (``_ring_bound``), and
    fails with DomainTooSmallError naming the solution otherwise (the
    expected outcome for data growing faster than the inverse Gaussian).  It
    fails the same way, saying "not finite", when u(s) at a point it reads
    or the ring maximum is not finite (u(s) overflowing on the ring).
    """
    for u in solutions:
        _check_solution_dims(u, h, grid)
    if not 0 < s < t:
        raise ValueError("need 0 < s < t")
    box, box_mesh = _support_box(h, grid)
    h_box = h.value(*box_mesh)
    h_vals = np.zeros(grid.shape)
    h_vals[box] = h_box
    phi_s = heat_evolve(grid, h_vals, t - s, cfg)
    mesh = _open_mesh(*(grid.axis,) * grid.dim)
    ring, phi_ring = _ring_bound(grid, mesh, h, h_box, t - s)
    nodes = _support_nodes(h, grid)
    nonzero = phi_s != 0.0
    read = ring | nonzero
    if np.count_nonzero(read) > _GATHER_MAX_SHARE * read.size:
        points, on_ring, on_phi, phi_read = mesh, ring, ..., phi_s
    else:
        points, on_ring = _gather(mesh, read), ring[read]
        on_phi, phi_read = nonzero[read], phi_s[nonzero]
    reports = []
    for u in solutions:
        u_s = u.value(s, *points)
        tail = float(np.abs(u_s[on_ring] * phi_ring).max()) if np.isfinite(u_s).all() else nan
        if not isfinite(tail):
            raise DomainTooSmallError(
                f"homotopy rhs integrand of {u.label} is not finite where the identity "
                f"reads it (u(s) or its product with the ring bound overflows); the box "
                f"does not contain the pairing")
        if tail > _RHS_TAIL_TOL:
            raise DomainTooSmallError(
                f"homotopy rhs integrand of {u.label} is at most {tail:.3g} at |x| = 0.9L "
                f"(needs < {_RHS_TAIL_TOL:g}); the box does not contain the pairing")
        lhs = _support_quadrature(u, t, nodes)
        rhs = det_sum(u_s[on_phi] * phi_read * grid.cell_volume)
        reports.append(HomotopyReport(u.label, s, t, h.label, grid_level, lhs, rhs))
    return tuple(reports)


@dataclass(frozen=True)
class FluxRow:
    R: float
    phi1: float
    phi2: float

    @property
    def total(self) -> float:
        return self.phi1 + self.phi2


@dataclass(frozen=True)
class FluxResult:
    rows: tuple[FluxRow, ...]
    admissible: bool
    gamma_hat: float
    gamma_threshold: float
    max_total: float
    tail_monotone_decreasing: bool


@track("flux_functional")
def flux_functional(u: AnalyticSolution, s: float, t: float, h: TestFunction,
                    gamma_hat: float, cfg: HeatOperatorConfig, *,
                    grid: SpatialGrid) -> FluxResult:
    """Annulus-averaged boundary fluxes Phi_1(R), Phi_2(R) of the identity proof.

    Phi_1 = int_s^t int_{lam R<|x|<R} |phi grad u|, Phi_2 = same with
    |u grad phi|, phi(tau) = e^{(t-tau)L} h, with u and grad u evaluated in
    closed form at each tau node, for R in _FLUX_RADII and lam = _FLUX_LAMBDA.
    When the measured growth is admissible (gamma_hat below
    _FLUX_GAMMA_THRESHOLD = c lam^2/kappa^2) the maximum over R is finite
    and the large-R tail decreases; an inadmissible configuration returns a
    precondition-violation report rather than raising.  u, h and the grid
    must have one dimension, and u must have a closed-form gradient: the
    Gaussian kernel, the eigenmode or the flat series (ValueError naming
    them otherwise).
    """
    _check_solution_dims(u, h, grid)
    if not hasattr(u, "gradient"):
        raise ValueError(f"solution {u.label} has no closed-form gradient; the flux "
                         "functional needs one")
    if not 0 < s < t:
        raise ValueError("need 0 < s < t")
    if _FLUX_RADII[-1] > 0.8 * grid.half_extent + 1e-12:
        raise DomainTooSmallError("largest flux radius exceeds 0.8*L")
    if _FLUX_LAMBDA * _FLUX_RADII[0] <= h.radius + 2 * grid.spacing:
        raise ValueError("smallest annulus must clear the test-function support")
    admissible = gamma_hat < _FLUX_GAMMA_THRESHOLD
    mesh = grid.meshgrid()
    radial = grid.distance_to((0.0,) * grid.dim)
    taus = np.linspace(s, t, _N_TAU)
    h_vals = h.value(*mesh)
    # the factors of both integrands, assembled once per tau
    phi_slices = np.empty((_N_TAU, *grid.shape))
    gphi_slices = np.empty((_N_TAU, grid.dim, *grid.shape))
    for i, tau in enumerate(taus):
        rem = t - tau
        if rem <= 0:
            phi_slices[i] = h_vals
            gphi_slices[i] = np.stack(h.gradient(*mesh))
        else:
            phi_slices[i] = heat_evolve(grid, h_vals, rem, cfg)
            gphi_slices[i] = heat_evolve_gradient(grid, h_vals, rem, cfg)
    u_slices = np.stack([u.value(float(tau), *mesh) for tau in taus])
    gu_slices = np.stack([np.stack(u.gradient(float(tau), *mesh)) for tau in taus])
    abs_gu = np.sqrt(np.add.reduce(gu_slices**2, axis=1))
    abs_gphi = np.sqrt(np.add.reduce(gphi_slices**2, axis=1))
    # the Phi_1 and Phi_2 integrands on the full grid, reduced once per annulus
    integrands = np.stack([np.abs(phi_slices) * abs_gu, np.abs(u_slices) * abs_gphi])
    profiles = np.stack([masked_sums(grid, (radial > _FLUX_LAMBDA * R) & (radial < R),
                                     integrands, grid.cell_volume) for R in _FLUX_RADII])
    dt = (t - s) / (_N_TAU - 1)
    w = np.full(_N_TAU, dt)
    w[0] = w[-1] = dt / 2.0
    phis = det_sum(profiles * w, axis=-1)
    rows = [FluxRow(R, phi1, phi2) for R, (phi1, phi2) in zip(_FLUX_RADII, phis.tolist())]
    totals = [r.total for r in rows]
    return FluxResult(tuple(rows), admissible, gamma_hat, _FLUX_GAMMA_THRESHOLD,
                      max(totals), _tail_nonincreasing(totals))


def _tail_nonincreasing(values: Sequence[float]) -> bool:
    """Each value of the second half is at most the one before it (relative slack 1e-9)."""
    tail = values[len(values) // 2:]
    return all(b <= a * (1 + 1e-9) + 1e-300 for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class ProbeRecovery:
    probe_id: str
    pairings: tuple[float, ...]
    increments: tuple[float, ...]
    extrapolated: float
    exact: float | None
    error: float | None
    recoverable: bool


@dataclass(frozen=True)
class RecoveryResult:
    solution: str
    ladder_times: tuple[float, ...]
    per_probe: tuple[ProbeRecovery, ...]

    @property
    def all_recoverable(self) -> bool:
        return all(p.recoverable for p in self.per_probe)

    @property
    def max_error(self) -> float:
        errs = [p.error for p in self.per_probe if p.error is not None]
        return max(errs) if errs else float("nan")


def richardson_limit(times: Sequence[float], values: Sequence[float]) -> float:
    """Extrapolate p(t) -> p(0) on a geometric ladder, killing t, t^2, t^3 bias.

    The recovery bias is <u0, e^{tL}phi - phi> = t <u0, Lap phi> + O(t^2)
    with smooth higher corrections, so three successive Richardson levels
    remove t, t^2, t^3; uses the last 4 points.  Raises ValueError unless
    every ratio t[k+1]/t[k] equals q = t[1]/t[0] within rtol 1e-9.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(values, dtype=float)
    if t.size < _RICHARDSON_LEVELS + 1:
        raise ValueError("not enough ladder points for the requested extrapolation")
    q = t[1] / t[0]
    ratios = t[1:] / t[:-1]
    off = np.abs(ratios - q) > 1e-9 * abs(q)
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"Richardson extrapolation needs a geometric ladder: "
                         f"t[{k + 1}]/t[{k}] = {ratios[k]!r} differs from q = {q!r}")
    tt = t[-(_RICHARDSON_LEVELS + 1):]
    pp = p[-(_RICHARDSON_LEVELS + 1):]
    for level in range(1, _RICHARDSON_LEVELS + 1):
        factor = q**level
        pp = (pp[1:] - factor * pp[:-1]) / (1.0 - factor)
        tt = tt[1:]
    return float(pp[-1])


def _is_divergent(incs: np.ndarray) -> bool:
    """Increments growing over 3 consecutive steps mark a divergent sequence."""
    if incs.size < 3:
        return False
    growing = 0
    for a, b in zip(incs[:-1], incs[1:]):
        growing = growing + 1 if b > a * (1 + 1e-12) else 0
        if growing >= 3:
            return True
    return False


@track("recover_initial_data")
def recover_initial_data(u: SpaceTimeField, ladder: SnapshotLadder,
                         panel: Sequence[SchwartzProbe],
                         datum: InitialDatum | None = None) -> RecoveryResult:
    """Pairings <u(t_k), phi> along the ladder, with extrapolated limits.

    When the underlying datum is known its exact pairing is reported
    alongside the error: ``exact_pairing`` integrates u0 * phi by composite
    16-node Gauss-Legendre on each half-line (break at 0, window from the
    probe's ``decay_window``, panels doubled from 8 until two values agree)
    reduced by det_sum, never from the closed-form evolution.  A probe whose
    increments grow over 3 consecutive steps is flagged NOT-RECOVERABLE
    instead of extrapolated.  Every ladder time must be a sample time of u
    (CoverageError otherwise: interpolating in time would break the
    polynomial-in-t bias model the extrapolation relies on), and every probe
    must have u's dimension (ValueError otherwise).
    """
    g = u.grid
    _check_probe_dims(panel, g)
    times = ladder.times
    ladder.validate_floor(g)
    stack = u.slices_at(times)
    per = []
    for probe in panel:
        ps = grid_pairing(g, stack, probe.value(g.axis))
        incs = np.abs(np.diff(ps))
        divergent = _is_divergent(incs)
        if divergent:
            extrap = float("nan")
        else:
            # the ladder decreases toward 0, so the last points are the finest
            extrap = richardson_limit(times, ps)
        exact = exact_pairing(datum, probe) if datum is not None else None
        err = abs(extrap - exact) if (exact is not None and not divergent) else None
        per.append(ProbeRecovery(probe.label, tuple(ps.tolist()), tuple(incs.tolist()),
                                 extrap, exact, err, not divergent))
    return RecoveryResult(u.label, tuple(times.tolist()), tuple(per))


@dataclass(frozen=True)
class UniquenessVerdict:
    verdict: str  # CONSISTENT | VIOLATION | HYPOTHESIS_NOT_MET | NOT_APPLICABLE
    growth: GrowthFit | None
    max_pairing_limit: float
    max_slice_norm: float


@track("uniqueness_probe")
def uniqueness_probe(u: SpaceTimeField, ladder: SnapshotLadder,
                     panel: Sequence[SchwartzProbe], strip: StripSpec,
                     radii: Sequence[float]) -> UniquenessVerdict:
    """Probe the uniqueness principle: pairings -> 0 should force u = 0.

    NOT_APPLICABLE when the growth precondition fails (gamma_hat >= 1/4);
    HYPOTHESIS_NOT_MET when the pairings do not tend to 0; otherwise the
    interior slice norms decide CONSISTENT versus VIOLATION.
    """
    fit = strip_growth_fit(u, strip, radii)
    if fit.classification != "PASS":
        return UniquenessVerdict("NOT_APPLICABLE", fit, float("nan"), float("nan"))
    rec = recover_initial_data(u, ladder, panel)
    limits = [abs(p.extrapolated) for p in rec.per_probe if p.recoverable]
    if not limits or not rec.all_recoverable or max(limits) > _PAIR_TOL:
        return UniquenessVerdict("HYPOTHESIS_NOT_MET", fit,
                                 max(limits) if limits else float("inf"), float("nan"))
    g = u.grid
    sq = u.slices_at(np.linspace(strip.a, strip.b, 5)) ** 2
    masses = integrate_ball(g, sq, np.zeros(g.dim), 0.8 * g.half_extent)
    worst = max(sqrt(max(m, 0.0)) for m in masses.tolist())
    verdict = "CONSISTENT" if worst <= _SLICE_TOL else "VIOLATION"
    return UniquenessVerdict(verdict, fit, max(limits), worst)


@dataclass(frozen=True)
class CompactPairingRow:
    h_id: str
    t_k: float
    pairing: float
    truncation_flagged: bool


@dataclass(frozen=True)
class DivergenceRow:
    probe_id: str
    rho: float
    partial_integral: float
    truncation_flagged: bool


@dataclass(frozen=True)
class ConvergenceModeReport:
    compact_rows: tuple[CompactPairingRow, ...]
    divergence_rows: tuple[DivergenceRow, ...]
    compact_final_sup: float
    compact_converging: bool
    schwartz_growth_factors: tuple[float, ...]
    schwartz_diverging: bool


@track("convergence_mode_probe")
def convergence_mode_probe(sol, grid: SpatialGrid, ladder: SnapshotLadder,
                           compact_panel: Sequence[TestFunction],
                           schwartz_panel: Sequence[SchwartzProbe],
                           rho_values: Sequence[float],
                           t_divergence: float) -> ConvergenceModeReport:
    """Witness the D'-versus-S' dichotomy of the flat-series solution.

    (a) Pairings against compact bumps tend to 0 along t_k -> 0 (supports
    must sit inside the vanishing-trace region); (b) at a fixed interior
    time, partial integrals of u * phi over |x| <= rho_m grow without bound
    as rho_m expands - the numerical witness that the snapshot is not
    tempered.  Truncation flags of the series evaluator propagate into the
    report as resolution limits.  Both panels must be non-empty and the
    rho_m at least two and strictly increasing (ValueError at entry).
    """
    x = grid.axis
    if grid.dim != 1:
        raise ValueError("convergence-mode probe is 1D")
    if not compact_panel or not schwartz_panel:
        raise ValueError("convergence-mode probe needs non-empty compact and Schwartz panels")
    if len(rho_values) < 2 or not all(b > a for a, b in zip(rho_values, rho_values[1:])):
        raise ValueError(f"rho_values must be at least two strictly increasing radii, "
                         f"got {tuple(rho_values)}")
    has_flags = hasattr(sol, "value_with_flag")

    def eval_with_flag(t: float) -> tuple[Array, Array]:
        if has_flags:
            return sol.value_with_flag(t, x)
        v = sol.value(t, x)
        return v, np.zeros_like(v, dtype=bool)

    # one series evaluation per time, shared by every bump and every probe
    times = ladder.times.tolist()
    snaps, snap_flags = map(np.stack, zip(*(eval_with_flag(t_k) for t_k in times)))
    div_vals, div_flags = eval_with_flag(t_divergence)
    compact_rows = []
    sup_final = 0.0
    monotone_tail = True
    for h in compact_panel:
        h_vals = h.value(x)
        supp = h_vals != 0.0
        pairings = masked_sums(grid, supp, snaps, h_vals, grid.cell_volume).tolist()
        flagged = snap_flags[:, supp].any(axis=1).tolist()
        compact_rows += [CompactPairingRow(h.label, t_k, p, f)
                         for t_k, p, f in zip(times, pairings, flagged)]
        seq = [abs(p) for p in pairings]
        sup_final = max(sup_final, seq[-1])
        monotone_tail = monotone_tail and _tail_nonincreasing(seq)
    div_rows = []
    factors: list[float] = []
    diverging = True
    for probe in schwartz_panel:
        probe_vals = probe.value(x)
        prev = None
        for rho in rho_values:
            region = np.abs(x) <= rho
            partial = masked_sums(grid, region, div_vals, probe_vals, grid.cell_volume)
            div_rows.append(DivergenceRow(probe.label, float(rho), partial,
                                          bool(div_flags[region].any())))
            if prev is not None:
                if abs(prev) > 0:
                    factors.append(abs(partial) / abs(prev))
                diverging = diverging and abs(partial) >= _DIVERGENCE_FACTOR * abs(prev)
            prev = partial
    return ConvergenceModeReport(tuple(compact_rows), tuple(div_rows), sup_final,
                                 monotone_tail, tuple(factors), diverging)


@dataclass(frozen=True)
class PairingBoundResult:
    ratio: float
    sup_pairing: float
    seminorm: float
    seminorm_order: int
    tent_value: float


@track("pairing_bound_check")
def pairing_bound_check(fields: Sequence[SpaceTimeField], phi: TestFunction,
                        family: BallFamily) -> tuple[PairingBoundResult, ...]:
    """Ratio sup_{t_k < 1/2} |<u(t_k), phi>| / (P_{n+3}(phi) ||u||_{T_inf}) per field.

    One result per field of *fields*, in order; the seminorm P_{n+3}(phi)
    is computed once for the whole sequence.  The theory bounds each ratio
    by a constant; the suite asserts the corpus-wide maximum is bounded and
    refinement-stable.  A zero tent norm with a nonzero pairing is
    impossible for genuine tent-space fields and raises
    InvariantViolationError (it signals a quadrature bug).  phi must have
    every field's dimension, and ``schwartz_seminorm`` takes 1-D bumps only
    (ValueError at entry, before any field is measured).
    """
    order = phi.dim + 3
    for u in fields:
        _check_probe_dims((phi,), u.grid)
    seminorm = schwartz_seminorm(phi, order)
    results = []
    for u in fields:
        g = u.grid
        tent = tent_norm(u, family)
        phi_vals = phi.value(*g.meshgrid())
        early = u.values[:int(np.searchsorted(u.times, _PAIRING_T_CAP))]  # the times < cap
        sup_pair = float(np.abs(grid_pairing(g, early, phi_vals)).max(initial=0.0))
        if tent.value <= 0.0:
            if sup_pair > 1e-12:
                raise InvariantViolationError(
                    "zero tent norm with a nonzero pairing: quadrature bug")
            results.append(PairingBoundResult(0.0, sup_pair, seminorm, order, tent.value))
        else:
            results.append(PairingBoundResult(sup_pair / (seminorm * tent.value), sup_pair,
                                              seminorm, order, tent.value))
    return tuple(results)

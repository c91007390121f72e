import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from caloric import (
    BallFamily,
    CaloricPolynomial,
    CoverageError,
    DiracDatum,
    DomainTooSmallError,
    Eigenmode,
    ExponentialSolution,
    GaussianKernelSolution,
    HeatOperatorConfig,
    OscillatorDatum,
    SignDatum,
    SnapshotLadder,
    SpaceTimeField,
    SpatialGrid,
    StripSpec,
    TestFunction,
    TychonoffSolution,
    carleson_time_ladder,
    convergence_mode_probe,
    default_schwartz_panel,
    evolve_datum_exact,
    flux_functional,
    heat_evolve,
    homotopy_residual,
    pairing_bound_check,
    recover_initial_data,
    richardson_limit,
    sample_solution,
    uniqueness_probe,
)
from caloric import representation, semigroup
from caloric.probes import central_compact_panel, hermite_probe
from caloric.representation import grid_pairing
from caloric.semigroup import dense_evolve_at
from caloric.util import det_sum
from caloric.zoo import SchwartzGaussPolyDatum, heat_kernel

from conftest import constant_field

KERNEL10 = HeatOperatorConfig("kernel_quadrature", truncation_radius_factor=10.0)
SPECTRAL = HeatOperatorConfig("spectral_multiplier")

# (solution, bump, message) on a 1-D grid: a 2-D bump used to lose its second
# centre coordinate, and a 2-D solution was evaluated on the 1-D axis alone.
_DIM_MISMATCHES = {
    "2d-bump": (GaussianKernelSolution(1.0), TestFunction((0.5, 0.0), 1.0),
                "probe bump(c=0.5,0,r=1) is 2-D but the field is 1-D"),
    "2d-solution": (GaussianKernelSolution(1.0, (0.0, 0.0)), TestFunction((0.5,), 1.0),
                    "solution gaussian_kernel(t0=1,x0=0,0) is 2-D but the grid is 1-D"),
}

# (solutions, bump, operator, grid) of the batched homotopy call: three
# solutions per call, both methods, 1-D and 2-D
_BATCH_CASES = {
    "1d-kernel": ((GaussianKernelSolution(1.0), CaloricPolynomial(2), Eigenmode((1.0,))),
                  TestFunction((1.0,), 1.0), KERNEL10, SpatialGrid.make(1, 16.0, 512)),
    "1d-spectral": ((GaussianKernelSolution(1.0), ExponentialSolution((1.0,)),
                     Eigenmode((1.0,))),
                    TestFunction((1.0,), 1.0), SPECTRAL, SpatialGrid.make(1, 16.0, 256)),
    "2d-kernel": ((GaussianKernelSolution(1.0, (0.0, 0.0)), Eigenmode((1.0, 0.5)),
                   ExponentialSolution((0.5, 0.5))),
                  TestFunction((0.5, 0.0), 1.0), HeatOperatorConfig("kernel_quadrature", 6.0),
                  SpatialGrid.make(2, 8.0, 64)),
    "2d-spectral": ((GaussianKernelSolution(1.0, (0.0, 0.0)), Eigenmode((1.0, 0.5)),
                     ExponentialSolution((0.5, 0.5))),
                    TestFunction((0.5, 0.0), 1.0), SPECTRAL, SpatialGrid.make(2, 8.0, 64)),
}


class TestSnapshotLadder:
    def test_times_and_floor(self):
        lad = SnapshotLadder(0.1, 0.5, 4)
        np.testing.assert_allclose(lad.times, [0.1, 0.05, 0.025, 0.0125])
        g = SpatialGrid.make(1, 8.0, 64)
        with pytest.raises(ValueError, match="resolution floor"):
            lad.validate_floor(g)

    def test_down_to(self):
        lad = SnapshotLadder.down_to(0.08, 0.5, 6e-4)
        assert lad.times[-1] >= 6e-4
        assert lad.times[-1] * 0.5 < 6e-4

    def test_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            SnapshotLadder(0.1, 1.1, 4)
        with pytest.raises(ValueError, match="3 ladder"):
            SnapshotLadder(0.1, 0.5, 2)


class TestRichardson:
    def test_polynomial_bias_removed(self):
        times = 0.1 * 0.5 ** np.arange(8)
        p = 3.0 + 2.0 * times - 1.5 * times**2 + 0.7 * times**3
        assert richardson_limit(times, p) == pytest.approx(3.0, abs=1e-12)

    def test_slow_ladder(self):
        times = 0.1 * 0.7 ** np.arange(12)
        p = -1.0 + times + times**2
        assert richardson_limit(times, p) == pytest.approx(-1.0, abs=1e-12)

    def test_ladder_must_be_geometric(self):
        times = np.array([0.1, 0.05, 0.025, 0.01, 0.005])
        with pytest.raises(ValueError, match=r"geometric ladder: t\[3\]/t\[2\]"):
            richardson_limit(times, 1.0 + times)
        # ratios equal to q within rtol 1e-9 are accepted
        times = 0.1 * 0.5 ** np.arange(6) * (1.0 + 1e-11 * np.arange(6))
        assert richardson_limit(times, 2.0 + times) == pytest.approx(2.0, abs=1e-12)


class TestHomotopyResidual:
    def test_gaussian_kernel_ladder_both_methods(self):
        h = TestFunction((1.0,), 1.0)
        sol = GaussianKernelSolution(1.0)
        for cfg, levels in ((KERNEL10, (4096, 8192)), (SPECTRAL, (256, 512))):
            resids = []
            for n in levels:
                g = SpatialGrid.make(1, 16.0, n)
                resids.append(homotopy_residual((sol,), 0.5, 1.0, h, cfg, grid=g,
                                                grid_level=0)[0].residual)
            assert resids[0] / resids[1] >= 3.0
            assert resids[-1] <= 1e-5

    def test_polynomial_oracle(self):
        # both sides in closed form: lhs = int (x^2 + 2t) h by quadrature
        h = TestFunction((1.0,), 1.0)
        sol = CaloricPolynomial(2)
        oracle, _ = quad(lambda x: (x * x + 2.0) * float(h.value(np.array([x]))[0]),
                         0.0, 2.0, limit=200)
        g = SpatialGrid.make(1, 16.0, 1024)
        rep = homotopy_residual((sol,), 0.5, 1.0, h, SPECTRAL, grid=g, grid_level=0)[0]
        assert rep.lhs == pytest.approx(oracle, rel=1e-9)
        assert rep.rhs == pytest.approx(oracle, rel=1e-6)

    def test_exponential_closed_form_identity(self):
        # with a Gaussian probe surrogate the identity closes analytically:
        # int e^{x+t} phi = e^t sqrt(2 pi) e^{1/2} independent of the split
        lhs = math.exp(1.0) * math.sqrt(2 * math.pi) * math.exp(0.5)
        probe = hermite_probe(0, 1.0)
        evolved = probe.evolved(0.5)
        rhs, _ = quad(lambda x: math.exp(x + 0.5) * float(evolved.value(np.array([x]))[0]),
                      -30, 30, limit=300)
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_2d_gaussian_kernel(self):
        g = SpatialGrid.make(2, 8.0, 128)
        h = TestFunction((0.5, 0.0), 1.0)
        rep = homotopy_residual((GaussianKernelSolution(1.0, (0.0, 0.0)),), 0.2, 0.4,
                                h, HeatOperatorConfig("kernel_quadrature", 6.0), grid=g,
                                grid_level=0)[0]
        assert rep.residual <= 1e-3

    def test_transitivity_at_fine_resolution(self):
        # |res(s,t)| <= |res(s,r)| + |res(r,t)| + 1e-8 once each residual
        # sits at the spectral floor
        h = TestFunction((1.0,), 1.0)
        g = SpatialGrid.make(1, 16.0, 2048)
        for sol in (GaussianKernelSolution(1.0), Eigenmode((1.0,))):
            r_st = homotopy_residual((sol,), 0.5, 1.0, h, SPECTRAL, grid=g,
                                     grid_level=0)[0].residual
            r_sr = homotopy_residual((sol,), 0.5, 0.75, h, SPECTRAL, grid=g,
                                     grid_level=0)[0].residual
            r_rt = homotopy_residual((sol,), 0.75, 1.0, h, SPECTRAL, grid=g,
                                     grid_level=0)[0].residual
            assert r_st <= r_sr + r_rt + 1e-8

    def test_tychonoff_fails_extent_audit(self):
        g = SpatialGrid.make(1, 8.0, 1024)
        with pytest.raises(DomainTooSmallError, match="0.9"):
            homotopy_residual((TychonoffSolution(40),), 0.1, 0.25, TestFunction((0.0,), 1.0),
                              HeatOperatorConfig("kernel_quadrature", 6.0), grid=g,
                              grid_level=0)

    def test_time_ordering_enforced(self):
        g = SpatialGrid.make(1, 16.0, 256)
        with pytest.raises(ValueError, match="0 < s < t"):
            homotopy_residual((Eigenmode((1.0,)),), 1.0, 0.5, TestFunction((0.0,), 1.0),
                              SPECTRAL, grid=g, grid_level=0)

    @pytest.mark.parametrize("case", list(_DIM_MISMATCHES))
    def test_dimension_mismatch_rejected(self, case):
        sol, h, message = _DIM_MISMATCHES[case]
        g = SpatialGrid.make(1, 8.0, 256)
        with pytest.raises(ValueError, match=re.escape(message)):
            homotopy_residual((sol,), 0.2, 0.4, h, SPECTRAL, grid=g, grid_level=0)

    @pytest.mark.parametrize("case", list(_BATCH_CASES))
    def test_batch_matches_single_solutions_bitwise(self, case):
        solutions, h, cfg, grid = _BATCH_CASES[case]
        batch = homotopy_residual(solutions, 0.2, 0.4, h, cfg, grid=grid, grid_level=1)
        singles = [homotopy_residual((u,), 0.2, 0.4, h, cfg, grid=grid, grid_level=1)[0]
                   for u in solutions]
        assert [r.solution for r in batch] == [u.label for u in solutions]
        for got, want in zip(batch, singles, strict=True):
            assert (got.lhs.hex(), got.rhs.hex(), got.residual.hex()) == \
                (want.lhs.hex(), want.rhs.hex(), want.residual.hex())
            assert got == want

    def test_operator_images_computed_once_per_call(self, monkeypatch):
        # the extent audit is a closed-form bound: no quadrature of the tail
        calls = {"heat_evolve": 0, "dense_evolve_at": 0}
        for module, name in ((representation, "heat_evolve"), (semigroup, "dense_evolve_at")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert not hasattr(representation, "dense_evolve_at")
        solutions, h, cfg, grid = _BATCH_CASES["1d-spectral"]
        for n_solutions in (1, 3):
            for name in calls:
                calls[name] = 0
            homotopy_residual(solutions[:n_solutions], 0.2, 0.4, h, cfg, grid=grid,
                              grid_level=0)
            assert calls == {"heat_evolve": 1, "dense_evolve_at": 0}

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 2.5], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0, 4.0])
    def test_ring_bound_dominates_dense_quadrature(self, dim, offset, tau):
        # The audit's closed-form bound ||h||_1 G_tau(dist(x, supp h)) is at
        # least the untruncated quadrature of e^{tau L} h at every ring point,
        # so the audit passes only where the dense audit would.
        grid = SpatialGrid.make(dim, 6.0, 256 if dim == 1 else 48)
        h = TestFunction((offset,) + (-offset / 2,) * (dim - 1), 0.8)
        mesh = grid.meshgrid()
        h_vals = h.value(*mesh)
        box, _ = representation._support_box(h, grid)
        open_mesh = representation._open_mesh(*(grid.axis,) * dim)
        ring, bound = representation._ring_bound(grid, open_mesh, h, h_vals[box], tau)
        # the ring the mesh gives, built here from the axis
        assert np.array_equal(ring, np.maximum.reduce(np.abs(mesh)) >= 0.9 * grid.half_extent)
        dense = dense_evolve_at(grid, h_vals, tau)[ring]
        assert ring.any() and dense.max() > 0.0
        assert np.all(bound >= np.abs(dense))

    @pytest.mark.parametrize("case", ["1d-kernel", "2d-spectral"])
    def test_bump_evaluated_twice_per_call(self, monkeypatch, case):
        # once on the grid for the operator image, once on the fine support
        # nodes of the left side, however many solutions the call pairs
        calls = []
        value = TestFunction.value

        def counted(self, *axes):
            calls.append(self)
            return value(self, *axes)

        monkeypatch.setattr(TestFunction, "value", counted)
        solutions, h, cfg, grid = _BATCH_CASES[case]
        for n_solutions in (1, 3):
            calls.clear()
            homotopy_residual(solutions[:n_solutions], 0.2, 0.4, h, cfg, grid=grid,
                              grid_level=0)
            assert calls == [h, h]

    def test_checks_every_solution_before_operator_work(self, monkeypatch):
        def no_operator(*args, **kwargs):
            raise AssertionError("operator applied before every solution was checked")

        monkeypatch.setattr(representation, "heat_evolve", no_operator)
        sol_2d = GaussianKernelSolution(1.0, (0.0, 0.0))
        with pytest.raises(ValueError, match=re.escape(f"solution {sol_2d.label} is 2-D")):
            homotopy_residual((Eigenmode((1.0,)), CaloricPolynomial(2), sol_2d), 0.2, 0.4,
                              TestFunction((0.5,), 1.0), SPECTRAL,
                              grid=SpatialGrid.make(1, 8.0, 256), grid_level=0)

    def test_extent_audit_names_the_solution(self):
        g = SpatialGrid.make(1, 8.0, 1024)
        flat = TychonoffSolution(40)
        with pytest.raises(DomainTooSmallError, match=re.escape(f"of {flat.label} is")):
            homotopy_residual((Eigenmode((1.0,)), flat), 0.1, 0.25, TestFunction((0.0,), 1.0),
                              HeatOperatorConfig("kernel_quadrature", 6.0), grid=g,
                              grid_level=0)


def _full_fine_grid_quadrature(u, t, h, grid):
    """Oracle: the midpoint rule over the whole 8x (1D) / 4x (2D) refined grid."""
    fine = grid.refined(8 if grid.dim == 1 else 4)
    mesh = fine.meshgrid()
    h_vals = h.value(*mesh)
    mask = h_vals != 0.0
    return det_sum(u.value(t, *(m[mask] for m in mesh)) * h_vals[mask] * fine.cell_volume)


# (solution, bump, grid): dx = 1/32 on L = 8 in 1D, so the fine spacing is
# 1/256; the last bump sits between two fine points with a radius below
# their spacing, so its box holds no fine point.
_SUPPORT_CASES = {
    "1d-gaussian": (GaussianKernelSolution(1.0), TestFunction((0.5,), 1.0),
                    SpatialGrid.make(1, 8.0, 512)),
    "1d-exponential-off-grid-centre": (ExponentialSolution((1.0,)), TestFunction((-1.3,), 0.77),
                                       SpatialGrid.make(1, 8.0, 512)),
    "1d-cut-by-box-edge": (Eigenmode((1.0,)), TestFunction((7.6,), 1.0),
                           SpatialGrid.make(1, 8.0, 512)),
    "2d-gaussian": (GaussianKernelSolution(1.0, (0.0, 0.0)), TestFunction((0.5, -0.25), 1.0),
                    SpatialGrid.make(2, 6.0, 64)),
    "2d-cut-by-box-edge": (Eigenmode((1.0, 0.5)), TestFunction((-5.5, 5.9), 1.2),
                           SpatialGrid.make(2, 6.0, 64)),
    "1d-radius-below-fine-spacing": (Eigenmode((1.0,)), TestFunction((0.5 + 1 / 512,), 1e-3),
                                     SpatialGrid.make(1, 8.0, 512)),
}


def _searchsorted_support_nodes(h, grid):
    """Oracle: cut the bump's box [c - r, c + r] out of the whole fine axis."""
    fine = grid.refined(8 if grid.dim == 1 else 4)
    x = fine.axis
    axes = [x[np.searchsorted(x, c - h.radius):np.searchsorted(x, c + h.radius, "right")]
            for c in h.center]
    mesh = np.meshgrid(*axes, indexing="ij")
    h_vals = h.value(*mesh)
    mask = h_vals != 0.0
    return tuple(m[mask] for m in mesh), h_vals[mask], fine.cell_volume


class TestSupportQuadrature:
    """The homotopy's left side visits only the fine points in the bump's
    box; it must equal the whole-fine-grid midpoint rule bit for bit."""

    @pytest.mark.parametrize("points,center,radius", [
        *((n, (c,), r) for n in (1024, 4096, 16384)
          for c, r in ((1.0, 1.0), (0.5, 1.0), (-1.3, 0.77), (15.5, 1.0), (-15.9, 0.4),
                       (0.5 + 1 / 16384, 1e-3))),
        *((n, c, 1.2) for n in (64, 256) for c in ((0.5, 0.5), (-11.5, 11.9), (0.3, -0.7))),
    ])
    def test_nodes_equal_whole_axis_window(self, points, center, radius):
        # The nodes are built only over the bump's index window, yet must be
        # the whole fine axis's points and h values in its box, bit for bit
        # (L = 16 in 1D, 12 in 2D; near the edges the window is clipped).
        h = TestFunction(center, radius)
        grid = SpatialGrid.make(len(center), 16.0 if len(center) == 1 else 12.0, points)
        (got_pts, got_h, got_cell), (want_pts, want_h, want_cell) = (
            f(h, grid) for f in (representation._support_nodes, _searchsorted_support_nodes))
        assert got_cell == want_cell
        assert got_h.tobytes() == want_h.tobytes()
        assert [p.tobytes() for p in got_pts] == [p.tobytes() for p in want_pts]

    @pytest.mark.parametrize("case", list(_SUPPORT_CASES))
    def test_bitwise_equal_to_full_fine_grid(self, case):
        u, h, grid = _SUPPORT_CASES[case]
        got = representation._support_quadrature(u, 0.7, representation._support_nodes(h, grid))
        want = _full_fine_grid_quadrature(u, 0.7, h, grid)
        assert got.hex() == want.hex()
        if case == "1d-radius-below-fine-spacing":
            assert got == 0.0
        else:
            assert got != 0.0


def _full_grid_homotopy(u, s, t, h, cfg, grid):
    """Oracle: the homotopy sides with every factor on the whole grid.

    h, u(s) and the ring come from the full mesh, the right side pairs u(s)
    with e^{(t-s)L} h over every grid point, and the left side is the
    whole-fine-grid midpoint rule.  Also returns the ring audit's maximum,
    which must pass for the case to test anything.
    """
    mesh = grid.meshgrid()
    h_vals = h.value(*mesh)
    u_s = u.value(s, *mesh)
    ring = np.maximum.reduce(np.abs(mesh)) >= 0.9 * grid.half_extent
    gap = np.maximum(np.sqrt(sum((m[ring] - c) ** 2 for m, c in zip(mesh, h.center)))
                     - h.radius, 0.0)
    h_mass = grid_pairing(grid, np.abs(h_vals), np.ones(grid.shape))
    tail = np.abs(u_s[ring] * h_mass * heat_kernel(t - s, gap**2, grid.dim)).max()
    lhs = _full_fine_grid_quadrature(u, t, h, grid)
    rhs = grid_pairing(grid, u_s, heat_evolve(grid, h_vals, t - s, cfg))
    return lhs, rhs, abs(lhs - rhs), tail


KERNEL8 = HeatOperatorConfig("kernel_quadrature")

# (solutions, s, t, bump, operator, grid).  The cut and seam cases put the
# bump near the box edge, where the ring audit needs a solution that is tiny
# there; their kernel windows wrap round the periodic seam.
_WHERE_READ_CASES = {
    "1d-kernel-heat-ladder": ((GaussianKernelSolution(1.0), CaloricPolynomial(3),
                               Eigenmode((1.0,))), 0.5, 1.0, TestFunction((0.5,), 1.0),
                              KERNEL10, SpatialGrid.make(1, 16.0, 4096)),
    "1d-spectral": ((GaussianKernelSolution(2.0), CaloricPolynomial(5),
                     ExponentialSolution((1.0,))), 0.5, 1.0, TestFunction((1.0,), 1.0),
                    SPECTRAL, SpatialGrid.make(1, 16.0, 512)),
    "1d-kernel-cut-by-box-edge": ((GaussianKernelSolution(0.1),), 0.1, 0.2,
                                  TestFunction((7.6,), 1.0), KERNEL8,
                                  SpatialGrid.make(1, 8.0, 512)),
    "1d-kernel-window-wraps-seam": ((GaussianKernelSolution(0.1),), 0.1, 0.3,
                                    TestFunction((6.5,), 0.8), KERNEL8,
                                    SpatialGrid.make(1, 8.0, 512)),
    "1d-spectral-cut-by-box-edge": ((GaussianKernelSolution(0.1),), 0.1, 0.3,
                                    TestFunction((-7.7,), 0.8), SPECTRAL,
                                    SpatialGrid.make(1, 8.0, 256)),
    "2d-kernel": ((GaussianKernelSolution(1.0, (0.0, 0.0)), Eigenmode((1.0, 0.5))), 0.5, 1.0,
                  TestFunction((1.0, 1.0), 1.0), KERNEL8, SpatialGrid.make(2, 12.0, 128)),
    "2d-spectral": ((GaussianKernelSolution(1.0, (0.0, 0.0)), ExponentialSolution((0.5, 0.5))),
                    0.5, 1.0, TestFunction((1.0, 1.0), 1.0), SPECTRAL,
                    SpatialGrid.make(2, 12.0, 64)),
    "2d-kernel-cut-by-box-edge": ((GaussianKernelSolution(0.1, (0.0, 0.0)),), 0.1, 0.2,
                                  TestFunction((-5.5, 5.9), 1.2), KERNEL8,
                                  SpatialGrid.make(2, 6.0, 64)),
    "2d-kernel-window-wraps-seam": ((GaussianKernelSolution(0.1, (0.0, 0.0)),), 0.1, 0.2,
                                    TestFunction((4.0, 0.0), 1.0), KERNEL8,
                                    SpatialGrid.make(2, 6.0, 64)),
}


class _InfNearBump:
    """A 1-D stand-in solution: inf within 1/2 of x = 1, zero elsewhere."""

    dim = 1
    label = "inf_near_bump"

    def value(self, t, x):
        return np.where(np.abs(x - 1.0) < 0.5, np.inf, 0.0)


class TestHomotopyWhereRead:
    """The homotopy evaluates h on its box, the ring from the axis and u(s)
    only where the identity reads it; every side must equal the full-grid
    evaluation bit for bit."""

    @pytest.mark.parametrize("case", list(_WHERE_READ_CASES))
    def test_bitwise_equal_to_full_grid(self, case):
        solutions, s, t, h, cfg, grid = _WHERE_READ_CASES[case]
        reports = homotopy_residual(solutions, s, t, h, cfg, grid=grid, grid_level=0)
        for u, rep in zip(solutions, reports, strict=True):
            lhs, rhs, residual, tail = _full_grid_homotopy(u, s, t, h, cfg, grid)
            assert tail <= 1e-10 and rhs != 0.0
            assert (rep.lhs.hex(), rep.rhs.hex(), rep.residual.hex()) == \
                (lhs.hex(), rhs.hex(), residual.hex())

    @pytest.mark.parametrize("cfg", [KERNEL10, SPECTRAL], ids=["kernel", "spectral"])
    @pytest.mark.parametrize("center", [(-20.0,), (-17.5,), (20.0,), (-20.0, 0.0), (0.0, 18.0)],
                             ids=["1d-far-left", "1d-just-left", "1d-right", "2d-left",
                                  "2d-above"])
    def test_bump_off_the_box_pairs_to_zero(self, cfg, center):
        # supp h misses the box, so h is zero on the grid: both sides are
        # +0.0 and the audit passes, as in the full-grid evaluation
        dim = len(center)
        grid = SpatialGrid.make(dim, 16.0, 4096 if dim == 1 else 64)
        u, h = GaussianKernelSolution(1.0, (0.0,) * dim), TestFunction(center, 1.0)
        box, _ = representation._support_box(h, grid)
        assert any(b.start == b.stop for b in box)
        rep, = homotopy_residual((u,), 0.5, 1.0, h, cfg, grid=grid, grid_level=0)
        lhs, rhs, residual, tail = _full_grid_homotopy(u, 0.5, 1.0, h, cfg, grid)
        assert tail == 0.0
        assert (rep.lhs.hex(), rep.rhs.hex(), rep.residual.hex()) == \
            (lhs.hex(), rhs.hex(), residual.hex()) == ((0.0).hex(),) * 3

    @pytest.mark.parametrize("h_center", [0.5, 1.0])
    def test_u_evaluated_on_ring_and_image_support_only(self, monkeypatch, h_center):
        # the finest heat-ladder level of the 1-D kernel method
        grid = SpatialGrid.make(1, 16.0, 16384)
        h = TestFunction((h_center,), 1.0)
        sizes = []
        value = GaussianKernelSolution.value

        def counted(self, t, *axes):
            if t == 0.5:
                sizes.append(np.broadcast(*axes).size)
            return value(self, t, *axes)

        monkeypatch.setattr(GaussianKernelSolution, "value", counted)
        homotopy_residual((GaussianKernelSolution(1.0),), 0.5, 1.0, h, KERNEL10, grid=grid,
                          grid_level=2)
        phi_s = heat_evolve(grid, h.value(grid.axis), 0.5, KERNEL10)
        ring = np.abs(grid.axis) >= 0.9 * grid.half_extent
        assert len(sizes) == 1
        read = np.count_nonzero(ring) + np.count_nonzero(phi_s)
        assert sizes[0] <= read < grid.n_points

    @pytest.mark.parametrize("u", [ExponentialSolution((12.0,)), _InfNearBump()],
                             ids=["overflow-on-ring", "inf-near-bump"])
    @pytest.mark.parametrize("cfg", [KERNEL8, SPECTRAL], ids=["kernel", "spectral"])
    def test_non_finite_integrand_fails_the_audit(self, cfg, u):
        # exp(12 x + 144 s) overflows on the ring of L = 64, where the ring
        # bound underflows, so the audit maximum is nan; the other solution
        # is finite on the ring and infinite where e^{(t-s)L} h is read
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DomainTooSmallError, match=re.escape(f"of {u.label} is not finite")):
            homotopy_residual((u,), 0.5, 1.0, TestFunction((1.0,), 1.0), cfg,
                              grid=SpatialGrid.make(1, 64.0, 4096), grid_level=0)


class TestFluxFunctional:
    def test_zero_field_gives_zero(self):
        g = SpatialGrid.make(1, 12.0, 512)
        res = flux_functional(Eigenmode((1.0,), 0.0), 0.5, 1.0, TestFunction((0.0,), 1.0),
                              gamma_hat=0.0,
                              cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)
        assert res.max_total == 0.0
        assert res.admissible

    @pytest.mark.parametrize("case", list(_DIM_MISMATCHES))
    def test_dimension_mismatch_rejected(self, case):
        sol, h, message = _DIM_MISMATCHES[case]
        g = SpatialGrid.make(1, 12.0, 512)
        with pytest.raises(ValueError, match=re.escape(message)):
            flux_functional(sol, 0.5, 1.0, h, gamma_hat=0.0,
                            cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)

    def test_solution_without_gradient_rejected_at_entry(self, monkeypatch):
        g = SpatialGrid.make(1, 12.0, 512)
        monkeypatch.setattr(representation, "heat_evolve", None)  # never reached
        with pytest.raises(ValueError, match=re.escape(
                "solution caloric_polynomial(2) has no closed-form gradient")):
            flux_functional(CaloricPolynomial(2), 0.5, 1.0, TestFunction((0.0,), 1.0),
                            gamma_hat=0.0,
                            cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)

    def test_gaussian_tail_decreasing_and_small(self):
        g = SpatialGrid.make(1, 12.0, 1024)
        res = flux_functional(GaussianKernelSolution(1.0), 0.5, 1.0,
                              TestFunction((0.0,), 1.0), gamma_hat=0.001,
                              cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)
        assert res.admissible
        assert res.tail_monotone_decreasing
        assert res.rows[-1].total <= 1e-8

    def test_inadmissible_is_reported_not_raised(self):
        g = SpatialGrid.make(1, 12.0, 512)
        res = flux_functional(Eigenmode((1.0,)), 0.5, 1.0, TestFunction((0.0,), 1.0),
                              gamma_hat=0.3,
                              cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)
        assert not res.admissible

    def test_admissibility_threshold(self):
        # gamma_hat < c lam^2 / kappa^2 with c = 0.24, lam = 0.9, kappa = 1.1
        threshold = 0.24 * 0.9**2 / 1.1**2
        g = SpatialGrid.make(1, 12.0, 512)
        for gamma_hat, admissible in ((math.nextafter(threshold, 0.0), True),
                                      (threshold, False)):
            res = flux_functional(Eigenmode((1.0,)), 0.5, 1.0, TestFunction((0.0,), 1.0),
                                  gamma_hat=gamma_hat,
                                  cfg=HeatOperatorConfig("kernel_quadrature", 6.0), grid=g)
            assert res.gamma_threshold == threshold
            assert res.admissible is admissible


@pytest.fixture(scope="module")
def recover_grid():
    return SpatialGrid.make(1, 16.0, 2048)


class TestRecoverInitialData:
    def test_eigenmode_datum(self, recover_grid):
        # limit = <sin, phi>; error <= 1e-6 after extrapolation
        datum = OscillatorDatum(1.0, 1.0)
        lad = SnapshotLadder.down_to(0.08, 0.5, 6e-4)
        fld = evolve_datum_exact(datum, recover_grid, lad.times)
        rec = recover_initial_data(fld, lad, default_schwartz_panel(), datum=datum)
        assert rec.all_recoverable
        assert rec.max_error <= 1e-6

    def test_dirac_gives_probe_at_origin(self, recover_grid):
        datum = DiracDatum(0.0)
        lad = SnapshotLadder.down_to(0.08, 0.5, 6e-4)
        fld = evolve_datum_exact(datum, recover_grid, lad.times)
        rec = recover_initial_data(fld, lad, [hermite_probe(0, 1.0)], datum=datum)
        assert rec.per_probe[0].extrapolated == pytest.approx(1.0, abs=1e-6)

    def test_sign_parity(self, recover_grid):
        datum = SignDatum()
        lad = SnapshotLadder.down_to(0.08, 0.5, 6e-4)
        fld = evolve_datum_exact(datum, recover_grid, lad.times)
        rec = recover_initial_data(fld, lad,
                                   [hermite_probe(0, 1.0), hermite_probe(1, 1.0)],
                                   datum=datum)
        even, odd = rec.per_probe
        assert even.extrapolated == pytest.approx(0.0, abs=1e-8)
        assert odd.extrapolated == pytest.approx(2.0, abs=1e-6)

    def test_divergent_sequence_flagged(self):
        # pairings of the flat series against a wide probe grow without
        # bound along the ladder: NOT-RECOVERABLE, no extrapolation
        g = SpatialGrid.make(1, 8.0, 512)
        lad = SnapshotLadder(0.08, 0.7, 6)
        fld = sample_solution(TychonoffSolution(40), g, lad.times)
        rec = recover_initial_data(fld, lad, [hermite_probe(0, 2.0)])
        assert not rec.per_probe[0].recoverable
        assert math.isnan(rec.per_probe[0].extrapolated)

    def test_ladder_must_be_covered(self, recover_grid):
        lad = SnapshotLadder(0.5, 0.5, 5)
        fld = evolve_datum_exact(SignDatum(), recover_grid, [0.1, 0.2, 0.3])
        with pytest.raises(CoverageError, match="time 0.5 is not a sample time of the field"):
            recover_initial_data(fld, lad, [hermite_probe(0, 1.0)])

    def test_ladder_times_must_be_samples(self, recover_grid):
        # 0.05 lies between the samples 0.025 and 0.1: no interpolation
        lad = SnapshotLadder(0.1, 0.5, 4)
        fld = evolve_datum_exact(SignDatum(), recover_grid, [0.0125, 0.025, 0.1, 0.2])
        with pytest.raises(CoverageError, match="time 0.05 is not a sample time of the field"):
            recover_initial_data(fld, lad, [hermite_probe(0, 1.0)])


class TestVerdictProbes:
    def test_uniqueness_zero_field(self):
        g = SpatialGrid.make(1, 15.0, 512)
        lad = SnapshotLadder(1.9, 0.7, 6)
        times = np.unique(np.concatenate([lad.times, np.linspace(1, 2, 9)]))
        u = constant_field(g, times, value=0.0)
        v = uniqueness_probe(u, lad, default_schwartz_panel(), StripSpec(1.0, 2.0),
                             [2, 3, 4, 5, 6, 7, 8])
        assert v.verdict == "CONSISTENT"

    def test_uniqueness_tychonoff_not_applicable(self):
        g = SpatialGrid.make(1, 8.0, 512)
        u = sample_solution(TychonoffSolution(40), g, np.linspace(0.1, 0.3, 11))
        v = uniqueness_probe(u, SnapshotLadder(0.28, 0.7, 4), default_schwartz_panel(),
                             StripSpec(0.1, 0.3), [2, 3, 4, 5, 6])
        assert v.verdict == "NOT_APPLICABLE"


class TestConvergenceModeProbe:
    def test_eigenmode_control_case(self):
        # both panels converge for a tempered solution
        g = SpatialGrid.make(1, 8.0, 512)
        lad = SnapshotLadder.down_to(0.1, 0.7, 2e-3)
        rep = convergence_mode_probe(Eigenmode((1.0,)), g, lad,
                                     central_compact_panel((1.0,)),
                                     [hermite_probe(1, 1.0)],
                                     rho_values=(2.0, 4.0, 6.0), t_divergence=0.1)
        assert not rep.schwartz_diverging
        # truncated partial integrals stabilize instead of growing
        partials = [r.partial_integral for r in rep.divergence_rows]
        assert abs(partials[-1] - partials[-2]) <= 1e-3 * abs(partials[-1])

    def test_tychonoff_dichotomy(self, monkeypatch):
        g = SpatialGrid.make(1, 8.0, 1024)
        lad = SnapshotLadder.down_to(0.1, 0.7, 2e-3)
        evaluated = []
        value_with_flag = TychonoffSolution.value_with_flag

        def counted(self, t, x):
            evaluated.append(t)
            return value_with_flag(self, t, x)

        monkeypatch.setattr(TychonoffSolution, "value_with_flag", counted)
        rep = convergence_mode_probe(TychonoffSolution(40), g, lad,
                                     central_compact_panel((0.5, 1.0)),
                                     [hermite_probe(0, 1.0)],
                                     rho_values=(2.0, 4.0, 6.0, 8.0), t_divergence=0.1)
        # one series evaluation per ladder time plus one at t_divergence,
        # however many bumps and probes pair against them
        assert evaluated == [*lad.times.tolist(), 0.1]
        assert rep.compact_converging
        assert rep.compact_final_sup < 1e-8
        assert rep.schwartz_diverging
        assert all(f >= 10.0 for f in rep.schwartz_growth_factors)
        # the outer partials ride on flagged (truncated) series values
        assert any(r.truncation_flagged for r in rep.divergence_rows)

    @pytest.mark.parametrize("bumps,probes,rhos,message", [
        ((), [hermite_probe(0, 1.0)], (2.0, 4.0), "non-empty compact and Schwartz panels"),
        ((0.5,), [], (2.0, 4.0), "non-empty compact and Schwartz panels"),
        ((0.5,), [hermite_probe(0, 1.0)], (4.0,), "at least two strictly increasing"),
        ((0.5,), [hermite_probe(0, 1.0)], (4.0, 4.0), "at least two strictly increasing"),
    ], ids=["no-bumps", "no-probes", "one-rho", "rho-repeated"])
    def test_vacuous_panels_rejected_at_entry(self, monkeypatch, bumps, probes, rhos, message):
        monkeypatch.setattr(TychonoffSolution, "value_with_flag", None)  # never reached
        with pytest.raises(ValueError, match=message):
            convergence_mode_probe(TychonoffSolution(40), SpatialGrid.make(1, 8.0, 256),
                                   SnapshotLadder.down_to(0.1, 0.7, 2e-3),
                                   central_compact_panel(bumps), probes, rho_values=rhos,
                                   t_divergence=0.1)


class TestPairingBound:
    def test_zero_field(self, grid_1d):
        times = carleson_time_ladder(grid_1d, 1.0, extra=[0.25, 1.0])
        u = constant_field(grid_1d, times, value=0.0)
        res = pairing_bound_check([u], TestFunction((0.0,), 1.0),
                                  family=BallFamily(((0.0,),), (0.5, 1.0)))[0]
        assert res.ratio == 0.0

    def test_scaling_invariance(self, grid_1d):
        # an off-center bump avoids the parity zero of odd fields
        times = carleson_time_ladder(grid_1d, 1.0, extra=[0.25, 1.0])
        u = evolve_datum_exact(SignDatum(), grid_1d, times)
        fam = BallFamily(((0.0,),), (0.5, 1.0))
        base = pairing_bound_check([u], TestFunction((1.0,), 1.0), family=fam)[0]
        scaled_u = pairing_bound_check([SpaceTimeField(u.grid, u.times, 10.0 * u.values)],
                                       TestFunction((1.0,), 1.0), family=fam)[0]
        assert base.ratio > 0
        assert scaled_u.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_grid_stability(self):
        ratios = []
        for n in (512, 1024):
            g = SpatialGrid.make(1, 8.0, n)
            times = carleson_time_ladder(g, 1.0, extra=[0.25, 1.0])
            u = evolve_datum_exact(SignDatum(), g, times)
            res = pairing_bound_check([u], TestFunction((1.0,), 1.0),
                                      family=BallFamily(((0.0,),), (0.5, 1.0)))[0]
            ratios.append(res.ratio)
        assert ratios[0] > 0
        assert abs(ratios[0] - ratios[1]) / ratios[0] <= 0.05

    def test_batch_matches_single_fields_with_one_seminorm(self, grid_1d, monkeypatch):
        times = carleson_time_ladder(grid_1d, 1.0, extra=[0.25, 1.0])
        fields = [evolve_datum_exact(SignDatum(), grid_1d, times),
                  evolve_datum_exact(OscillatorDatum(1.0, 1.0), grid_1d, times),
                  constant_field(grid_1d, times, value=0.0)]
        phi, fam = TestFunction((1.0,), 1.0), BallFamily(((0.0,),), (0.5, 1.0))
        seminorm_calls = []
        seminorm = representation.schwartz_seminorm

        def counted(*args, **kwargs):
            seminorm_calls.append(args)
            return seminorm(*args, **kwargs)

        monkeypatch.setattr(representation, "schwartz_seminorm", counted)
        batch = pairing_bound_check(fields, phi, family=fam)
        assert len(seminorm_calls) == 1
        singles = [pairing_bound_check([u], phi, family=fam)[0] for u in fields]
        assert len(seminorm_calls) == 1 + len(fields)
        assert batch == tuple(singles)
        assert batch[0].ratio > 0 and batch[2].ratio == 0.0

    def test_rejects_2d_bump_before_the_tent_norm(self, grid_2d, monkeypatch):
        # the bound needs the seminorm of order n+3 = 5, which takes 1-D bumps only
        def no_tent_norm(*args, **kwargs):
            raise AssertionError("tent norm computed before the order check")

        monkeypatch.setattr(representation, "tent_norm", no_tent_norm)
        u = constant_field(grid_2d, [0.25, 1.0])
        with pytest.raises(ValueError, match=r"seminorms are computed for 1D bumps"):
            pairing_bound_check([u], TestFunction((0.0, 0.0), 1.0),
                                family=BallFamily(((0.0, 0.0),), (0.5, 1.0)))

    def test_checks_every_field_before_measuring_any(self, grid_1d, grid_2d, monkeypatch):
        def no_tent_norm(*args, **kwargs):
            raise AssertionError("tent norm computed before every field was checked")

        monkeypatch.setattr(representation, "tent_norm", no_tent_norm)
        fields = [constant_field(grid_1d, [0.25, 1.0]), constant_field(grid_2d, [0.25, 1.0])]
        with pytest.raises(ValueError, match="is 1-D but the field is 2-D"):
            pairing_bound_check(fields, TestFunction((0.0,), 1.0),
                                family=BallFamily(((0.0,),), (0.5, 1.0)))

    def test_rejects_probe_of_other_dimension(self, grid_2d):
        u = constant_field(grid_2d, [0.25, 1.0])
        with pytest.raises(ValueError, match="is 1-D but the field is 2-D"):
            pairing_bound_check([u], TestFunction((0.0,), 1.0),
                                family=BallFamily(((0.0, 0.0),), (0.5, 1.0)))


def test_grid_pairing_matches_quadrature(grid_1d):
    probe = hermite_probe(2, 1.0)
    vals = np.exp(-grid_1d.axis**2 / 8.0)
    got = grid_pairing(grid_1d, vals, probe.value(grid_1d.axis))
    oracle, _ = quad(lambda x: math.exp(-x * x / 8.0) * float(probe.value(np.array([x]))[0]),
                     -8, 8, limit=200)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_gauss_poly_datum_recovery(recover_grid):
    datum = SchwartzGaussPolyDatum((0.0, 1.0, 0.5), 1.0)
    lad = SnapshotLadder.down_to(0.08, 0.7, 6e-4)
    fld = evolve_datum_exact(datum, recover_grid, lad.times)
    rec = recover_initial_data(fld, lad, default_schwartz_panel(), datum=datum)
    assert rec.max_error <= 1e-6

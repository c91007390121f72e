import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from caloric import (
    CoverageError,
    DataError,
    DomainTooSmallError,
    HeatOperatorConfig,
    InsufficientResolutionError,
    SpaceTimeField,
    SpatialGrid,
    StripSpec,
    TestFunction,
    cli,
    field_from_csv,
    field_to_csv,
    gradient,
    heat_evolve,
    heat_evolve_gradient,
    integrate_ball,
    integrate_strip_L2,
)
from caloric.grid import nonzero_box, point_distance, time_trapezoid
from caloric.semigroup import _kernel_1d
from caloric.util import fmt_float
from caloric.zoo import GaussianKernelSolution, sample_solution

from conftest import constant_field


class TestSpatialGrid:
    def test_points_and_axis(self):
        g = SpatialGrid.make(1, 8.0, 64)
        assert g.points_per_axis == 64
        assert g.axis[0] == -8.0
        assert np.allclose(np.diff(g.axis), g.spacing)
        assert g.axis[-1] == pytest.approx(8.0 - g.spacing)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            SpatialGrid(3, 8.0, 0.1)
        with pytest.raises(ValueError, match="spacing < half_extent/4"):
            SpatialGrid(1, 1.0, 0.3)
        # dx < L/4 forces > 8 points per axis, so a tiny grid trips it too
        with pytest.raises(ValueError, match="spacing"):
            SpatialGrid.make(1, 8.0, 4)

    def test_refine_and_enlarge(self):
        g = SpatialGrid.make(1, 8.0, 64)
        assert g.refined().points_per_axis == 128
        big = g.enlarged()
        assert big.spacing == g.spacing
        assert big.half_extent == pytest.approx(12.0)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -1.7), (1.0, 0.5)])
    def test_distance_to(self, center):
        g1 = SpatialGrid.make(1, 8.0, 64)
        assert g1.distance_to(center).tobytes() == np.abs(g1.axis - center[0]).tobytes()
        for n in (32, 64, 256):
            # the broadcast axes give the meshgrid formula's distances bit for bit
            g2 = SpatialGrid.make(2, 8.0, n)
            xg, yg = g2.meshgrid()
            want = np.sqrt((xg - center[0]) ** 2 + (yg - center[1]) ** 2)
            got = g2.distance_to(center)
            assert got.shape == g2.shape and got.tobytes() == want.tobytes()
            # and so do coordinates gathered at a mask
            ring = np.maximum(np.abs(xg), np.abs(yg)) >= 0.9 * g2.half_extent
            assert (point_distance((xg[ring], yg[ring]), center).tobytes()
                    == want[ring].tobytes())


def _mask(shape, *points):
    mask = np.zeros(shape, dtype=bool)
    for p in points:
        mask[p] = True
    return mask


class TestNonzeroBox:
    """The first to the last occupied index per axis; empty when none is."""

    @pytest.mark.parametrize("mask,box", [
        (_mask((16,)), (slice(0, 0),)),
        (_mask((8, 12)), (slice(0, 0), slice(0, 0))),
        (_mask((16,), 7), (slice(7, 8),)),
        (_mask((16,), 0, 4), (slice(0, 5),)),
        (_mask((16,), 9, 15), (slice(9, 16),)),
        (_mask((16,), 0, 15), (slice(0, 16),)),
        (_mask((8, 12), (2, 9)), (slice(2, 3), slice(9, 10))),
        (_mask((8, 12), (2, 9), (5, 3), (4, 4)), (slice(2, 6), slice(3, 10))),
        (_mask((8, 12), (0, 11), (7, 0)), (slice(0, 8), slice(0, 12))),
    ], ids=["empty-1d", "empty-2d", "one-point", "at-0", "at-n-1", "both-ends",
            "2d-one-point", "2d", "2d-corners"])
    def test_box(self, mask, box):
        assert nonzero_box(mask) == box
        # every True lies in the box and the box's faces each hold one
        outside = mask.copy()
        outside[box] = False
        assert not outside.any()
        for axis, b in enumerate(box):
            if b.stop > b.start:
                assert np.take(mask, b.start, axis).any() and np.take(mask, b.stop - 1, axis).any()

    def test_support_straddling_the_seam_takes_the_wrap_path(self, monkeypatch):
        # points 3 and n - 4 are 7 apart round the periodic seam, but their
        # box is linear and spans nearly the whole axis, so the kernel's
        # window [lo - m, hi + m) is wider than the axis and the convolution
        # wraps the whole axis
        grid = SpatialGrid.make(1, 15.0, 256)
        values = np.zeros(grid.shape)
        values[[3, 252]] = (1.0, -0.0)
        assert nonzero_box((values != 0.0) | np.signbit(values)) == (slice(3, 253),)
        modes = []
        convolve1d = ndimage.convolve1d

        def spy(*args, **kwargs):
            modes.append(kwargs.get("mode"))
            return convolve1d(*args, **kwargs)

        monkeypatch.setattr(ndimage, "convolve1d", spy)
        got = heat_evolve(grid, values, 0.3, HeatOperatorConfig())
        assert modes == ["wrap"]
        kernel = _kernel_1d(0.3, grid, HeatOperatorConfig())
        assert got.tobytes() == convolve1d(values, kernel, mode="wrap").tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("op", [heat_evolve, heat_evolve_gradient],
                             ids=["evolve", "gradient"])
    def test_narrow_bump_calls_no_ndimage(self, monkeypatch, dim, op):
        # a bump whose kernel window fits in the axis is convolved by
        # np.convolve on its own lines: no scipy.ndimage function runs
        calls = []
        for name in ndimage.__all__:
            if callable(getattr(ndimage, name)):
                monkeypatch.setattr(ndimage, name, lambda *a, _name=name, **k: calls.append(_name))
        grid = SpatialGrid.make(dim, 15.0, 256 if dim == 1 else 64)
        values = TestFunction((0.5,) * dim, 1.0).value(*grid.meshgrid())
        got = op(grid, values, 0.3, HeatOperatorConfig())
        assert calls == [] and np.isfinite(got).all() and got.any()


class TestSpaceTimeField:
    def test_validation(self, grid_1d):
        with pytest.raises(DataError, match="strictly increasing"):
            SpaceTimeField(grid_1d, [0.2, 0.1], np.zeros((2, 512)))
        with pytest.raises(DataError, match="> 0"):
            SpaceTimeField(grid_1d, [0.0, 0.1], np.zeros((2, 512)))
        with pytest.raises(DataError, match="finite"):
            SpaceTimeField(grid_1d, [0.1], np.full((1, 512), np.inf))
        with pytest.raises(DataError, match="shape"):
            SpaceTimeField(grid_1d, [0.1], np.zeros((1, 100)))

    def test_slice_at_reads_samples_only(self, grid_1d):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 512))
        u = SpaceTimeField(grid_1d, [1.0, 2.0, 3.0], values)
        for i, t in enumerate((1.0, 2.0 + 5e-10, 3.0 - 5e-10)):
            assert u.slices_at(t)[0].tobytes() == values[i].tobytes()
        for t in (1.5, 2.0 + 2e-9, 0.5, 3.5, math.nan):
            with pytest.raises(CoverageError, match="not a sample time"):
                u.slices_at(t)[0]

    def test_slices_at_stacks_samples_in_the_order_given(self, grid_1d):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((3, 512))
        u = SpaceTimeField(grid_1d, [1.0, 2.0, 3.0], values)
        assert u.slices_at([3.0, 1.0 + 5e-10, 3.0]).tobytes() == values[[2, 0, 2]].tobytes()
        with pytest.raises(CoverageError, match="time 2.5 is not a sample time of the field"):
            u.slices_at([1.0, 2.5, 3.0])


class TestIntegrateBall:
    def test_constant_interval_measure(self, grid_1d):
        # measure of [-2, 2]
        val = integrate_ball(grid_1d, np.ones(512), (0.0,), 2.0)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_constant_disk_area(self, grid_2d):
        val = integrate_ball(grid_2d, np.ones(grid_2d.shape), (0.0, 0.0), 1.0)
        assert val == pytest.approx(math.pi, abs=5 * grid_2d.spacing)

    def test_odd_function_vanishes(self, grid_1d):
        val = integrate_ball(grid_1d, grid_1d.axis.copy(), (0.0,), 3.0)
        assert abs(val) < 1e-12

    @given(radius=st.floats(0.5, 5.0), freq=st.floats(0.2, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_odd_symmetry_property(self, radius, freq):
        g = SpatialGrid.make(1, 8.0, 256)
        odd = np.sin(freq * g.axis) ** 3 + 0.5 * g.axis
        assert abs(integrate_ball(g, odd, (0.0,), radius)) < 1e-11

    def test_refinement_second_order(self):
        # smooth integrand: halving dx cuts the error by >= 3x
        exact = 2.0 * math.sin(2.0)  # integral of cos over [-2, 2]
        errs = []
        for n in (128, 256, 512):
            g = SpatialGrid.make(1, 8.0, n)
            errs.append(abs(integrate_ball(g, np.cos(g.axis), (0.0,), 2.0) - exact))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_domain_too_small(self, grid_1d):
        with pytest.raises(DomainTooSmallError):
            integrate_ball(grid_1d, np.ones(512), (0.0,), 9.0)
        with pytest.raises(DomainTooSmallError):
            integrate_ball(grid_1d, np.ones(512), (5.0,), 4.0)

    def test_deterministic_bit_identical(self, grid_1d):
        vals = np.sin(3.0 * grid_1d.axis) + grid_1d.axis**2
        a = integrate_ball(grid_1d, vals, (0.5,), 3.0)
        b = integrate_ball(grid_1d, vals.copy(), (0.5,), 3.0)
        assert a == b

    def test_rim_refinement_order_2d(self):
        # cell-center membership at the rim: the worst error over 25 radii of
        # the integral of exp(-r^2) over a centred disk stays below 0.25*dx
        # (first order; measured 0.13-0.19 dx on the three finest grids) and
        # its fitted order lies between first and second (measured 1.43)
        radii = np.linspace(0.8, 2.0, 25)
        spacings, worst = [], []
        for n in (32, 64, 128, 256, 512):
            g = SpatialGrid.make(2, 4.0, n)
            xg, yg = g.meshgrid()
            f = np.exp(-(xg**2 + yg**2))
            errs = [abs(integrate_ball(g, f, (0.0, 0.0), r) - math.pi * -math.expm1(-r * r))
                    for r in radii]
            spacings.append(g.spacing)
            worst.append(max(errs))
        order = np.polyfit(np.log(spacings), np.log(worst), 1)[0]
        assert 1.0 <= order <= 1.75
        assert all(e <= 0.25 * h for e, h in zip(worst[2:], spacings[2:]))


class TestStripL2:
    def test_constant_strip(self, grid_1d):
        u = constant_field(grid_1d, np.linspace(1.0, 2.0, 9))
        val = integrate_strip_L2(u, StripSpec(1.0, 2.0), 1.0)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_eigenmode_closed_form(self):
        # closed form ((e^{-2a} - e^{-2b})/2 * (R - sin R cos R))^{1/2};
        # refined grids stabilize to 4 digits against it
        a, b, R = 1.0, 2.0, 1.0
        exact = math.sqrt((math.exp(-2 * a) - math.exp(-2 * b)) / 2.0
                          * (R - math.sin(R) * math.cos(R)))
        vals = []
        for n, nt in ((512, 33), (1024, 65), (2048, 129)):
            g = SpatialGrid.make(1, 8.0, n)
            times = np.linspace(a, b, nt)
            u = SpaceTimeField(g, times,
                               np.stack([np.exp(-t) * np.sin(g.axis) for t in times]))
            vals.append(integrate_strip_L2(u, StripSpec(a, b), R))
        assert vals[-1] == pytest.approx(exact, rel=1e-4)
        assert abs(vals[-1] - vals[-2]) <= 1e-4 * exact  # 4-digit stability

    def test_heat_kernel_erf_oracle(self):
        # oracle: int_a^b (8 pi t)^{-1/2} erf(R / sqrt(2t)) dt by quadrature
        from scipy.integrate import quad
        from scipy.special import erf

        a, b, R = 1.0, 2.0, 8.0
        oracle_sq, _ = quad(
            lambda t: (8 * math.pi * t) ** -0.5 * erf(R / math.sqrt(2 * t)), a, b)
        g = SpatialGrid.make(1, 12.0, 1024)
        sol = GaussianKernelSolution(1e-9)  # u(t,x) ~ Phi(t,x)
        times = np.linspace(a, b, 25)
        u = sample_solution(sol, g, times)
        val = integrate_strip_L2(u, StripSpec(a, b), R)
        assert val == pytest.approx(math.sqrt(oracle_sq), rel=1e-3)

    def test_insufficient_time_samples(self, grid_1d):
        u = constant_field(grid_1d, [0.9, 1.4, 2.1])
        with pytest.raises(InsufficientResolutionError):
            integrate_strip_L2(u, StripSpec(1.0, 2.0), 1.0)


class TestStripSpec:
    def test_invariant(self):
        with pytest.raises(ValueError, match="0 < a < b"):
            StripSpec(2.0, 1.0)
        with pytest.raises(ValueError, match="0 < a < b"):
            StripSpec(0.0, 1.0)


class TestGradient:
    def test_linear_exact(self, grid_1d):
        out = gradient(grid_1d, grid_1d.axis.copy())
        np.testing.assert_allclose(out[0][1:-1], 1.0, atol=1e-10)

    def test_constant_zero(self, grid_1d):
        out = gradient(grid_1d, np.full(512, 3.7))
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)

    def test_second_order_convergence(self):
        errs = []
        for n in (128, 256):
            g = SpatialGrid.make(1, 4 * math.pi, n)
            out = gradient(g, np.sin(g.axis))
            errs.append(np.abs(out[0] - np.cos(g.axis)).max())
        assert errs[0] / errs[1] >= 3.5

    def test_2d_components(self, grid_2d):
        xg, yg = grid_2d.meshgrid()
        out = gradient(grid_2d, np.sin(xg) * np.cos(yg))
        np.testing.assert_allclose(out[0], np.cos(xg) * np.cos(yg), atol=1e-2)
        np.testing.assert_allclose(out[1], -np.sin(xg) * np.sin(yg), atol=1e-2)


class TestTimeTrapezoid:
    def test_linear_exact(self):
        times = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        g = 2.0 * times
        assert time_trapezoid(times, g, 0.75, 2.5) == pytest.approx(2.5**2 - 0.75**2, rel=1e-12)


class TestEvolveExtentAudit:
    # the evolve pipeline recomputes max|u(t_last)| on grid.enlarged()
    @pytest.mark.parametrize("half_extent,record,code", [
        (16.0, "[PASS] extent audit (<0.1% change under L -> 1.5L): rel change 0.00e+00", 0),
        (4.0, "[FAIL] extent audit (<0.1% change under L -> 1.5L): rel change 1.56e-03", 1),
    ], ids=["L=16", "L=4"])
    def test_sign_datum(self, tmp_path, half_extent, record, code):
        cfg = cli.ExperimentConfig(pipeline="evolve", datum_id="sign",
                                   grid_half_extent=half_extent, out_dir=str(tmp_path))
        result = cli.run_experiment(cfg)
        assert result.exit_code == code
        assert result.summary_lines[0] == record


def _per_cell_csv(u: SpaceTimeField) -> str:
    """The one-fmt_float-per-cell writer that field_to_csv replaced: its oracle."""
    g = u.grid
    buf = io.StringIO()
    buf.write(f"# grid n={g.dim} L={fmt_float(g.half_extent)} "
              f"dx={fmt_float(g.spacing)} mode=periodic\n")
    buf.write("t,x,value\n" if g.dim == 1 else "t,x,y,value\n")
    for i, t in enumerate(u.times):
        for j, x in enumerate(g.axis):
            if g.dim == 1:
                buf.write(f"{fmt_float(t)},{fmt_float(x)},{fmt_float(u.values[i, j])}\n")
                continue
            for k, y in enumerate(g.axis):
                buf.write(f"{fmt_float(t)},{fmt_float(x)},{fmt_float(y)},"
                          f"{fmt_float(u.values[i, j, k])}\n")
    return buf.getvalue()


class TestFieldCsv:
    def test_round_trip_1d(self, grid_1d):
        u = constant_field(grid_1d, [0.25, 0.5], value=2.0)
        text = field_to_csv(u)
        assert text.startswith("# grid n=1 L=8 dx=0.03125 mode=periodic")
        back = field_from_csv(text)
        np.testing.assert_array_equal(back.values, u.values)
        np.testing.assert_array_equal(back.times, u.times)

    def test_round_trip_2d(self):
        g = SpatialGrid.make(2, 4.0, 16)
        xg, yg = g.meshgrid()
        u = SpaceTimeField(g, [0.1], (np.sin(xg) * yg)[None, :, :])
        back = field_from_csv(field_to_csv(u))
        np.testing.assert_allclose(back.values, u.values)

    def test_reproducible_bytes(self, grid_1d):
        u = SpaceTimeField(grid_1d, [0.1], np.sin(grid_1d.axis)[None, :])
        assert field_to_csv(u) == field_to_csv(u)

    @given(v=st.floats())
    @settings(max_examples=500)
    def test_printf_format_is_fmt_float(self, v):
        # field_to_csv formats a time slice with one '%.17g' template
        assert "%.17g" % v == fmt_float(v)

    @given(data=st.data(), dim=st.sampled_from([1, 2]),
           half_extent=st.floats(0.5, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_per_cell_writer(self, data, dim, half_extent):
        points = data.draw(st.integers(9, 40 if dim == 1 else 12), label="points")
        grid = SpatialGrid.make(dim, half_extent, points)
        times = data.draw(st.lists(st.one_of(st.sampled_from([1 / 3, 5e-324, 1e300]),
                                             st.floats(1e-300, 1e300)),
                                   min_size=1, max_size=3, unique=True), label="times")
        count = len(times) * grid.n_points
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                                   1e-300, -1e-300, 1 / 3, -1 / 3])
        values = data.draw(st.lists(st.one_of(special, st.floats(allow_nan=False,
                                                                 allow_infinity=False)),
                                    min_size=count, max_size=count), label="values")
        u = SpaceTimeField(grid, sorted(times),
                           np.array(values).reshape(len(times), *grid.shape))
        assert field_to_csv(u) == _per_cell_csv(u)


    @given(data=st.data(), dim=st.sampled_from([1, 2]),
           half_extent=st.floats(0.5, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bit_exact(self, data, dim, half_extent):
        points = data.draw(st.integers(9, 40 if dim == 1 else 12), label="points")
        grid = SpatialGrid.make(dim, half_extent, points)
        times = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=3,
                                   unique=True), label="times")
        times = sorted(times)
        count = len(times) * grid.n_points
        values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=count, max_size=count), label="values"))
        u = SpaceTimeField(grid, times, values.reshape(len(times), *grid.shape))
        back = field_from_csv(field_to_csv(u))
        assert back.grid == grid
        assert back.times.tobytes() == u.times.tobytes()
        assert back.values.tobytes() == u.values.tobytes()  # signed zeros included

    @pytest.mark.parametrize("mode", ["zero_padded", "reflecting", ""])
    def test_non_periodic_mode_rejected(self, mode):
        text = field_to_csv(constant_field(SpatialGrid.make(1, 8.0, 16), [0.25]))
        text = text.replace("mode=periodic", f"mode={mode}", 1)
        with pytest.raises(DataError, match=f"grid mode '{mode}' is not periodic"):
            field_from_csv(text)

    @pytest.mark.parametrize("header,message", [
        ("# grid n=1 L=8 mode=periodic", "missing dx="),
        ("# grid n=1 L=8 dx=0.0625 periodic", "every item must be key=value"),
        ("# grid n=x L=8 dx=0.0625 mode=periodic", "invalid literal for int"),
        ("# grid n=3 L=8 dx=0.0625 mode=periodic", "SpatialGrid invariant violated: dim"),
    ], ids=["no-dx", "item-without-equals", "n-not-a-number", "n-out-of-range"])
    def test_malformed_grid_header_names_the_header(self, header, message):
        _, *rows = field_to_csv(constant_field(SpatialGrid.make(1, 8.0, 256), [0.25])).splitlines()
        with pytest.raises(DataError, match=rf"grid header '{re.escape(header)}': {message}"):
            field_from_csv("\n".join([header, *rows]))

    @pytest.mark.parametrize("edit,row,message", [
        (lambda rows: rows + ["0.25,-8.0625,1"], 259, "coordinate off the grid"),
        (lambda rows: rows + ["0.25,8,1"], 259, "coordinate off the grid"),
        (lambda rows: rows + [rows[5]], 259, "repeats an earlier"),
        (lambda rows: rows[:7] + ["0.25,-7.78125,1,4"] + rows[8:], 10, "4 fields, expected 3"),
    ], ids=["below-minus-L", "at-plus-L", "duplicate", "wrong-width"])
    def test_bad_rows_name_the_row(self, edit, row, message):
        grid = SpatialGrid.make(1, 8.0, 256)
        u = constant_field(grid, [0.25], value=2.0)
        header, columns, *rows = field_to_csv(u).splitlines()
        text = "\n".join([header, columns, *edit(rows)])
        with pytest.raises(DataError, match=rf"row {row} .*{message}"):
            field_from_csv(text)

    @pytest.mark.parametrize("first", ["0.25,-8,2", "+0.25,-8,2", ".25,-8,2", "0.25,-8,+2"])
    def test_first_row_without_column_header_is_data(self, first):
        # only the exact column header is skipped: a first data row that does
        # not start with a digit or '-' used to be dropped as a header
        grid = SpatialGrid.make(1, 8.0, 256)
        u = constant_field(grid, [0.25], value=2.0)
        header, columns, *rows = field_to_csv(u).splitlines()
        assert columns == "t,x,value" and rows[0] == "0.25,-8,2"
        back = field_from_csv("\n".join([header, first, *rows[1:]]))
        np.testing.assert_array_equal(back.values, u.values)
        np.testing.assert_array_equal(back.times, u.times)

    @pytest.mark.parametrize("first,message", [
        ("nan,-8,2", "time or coordinate is not finite"),
        ("0.25,inf,2", "time or coordinate is not finite"),
        ("t,x,y,value", "4 fields, expected 3"),
        ("time,x,value", "a field is not a number"),
        ("T,X,VALUE", "a field is not a number"),
    ], ids=["nan-time", "inf-x", "2d-header", "other-header", "upper-case-header"])
    def test_first_row_that_is_neither_header_nor_data(self, first, message):
        grid = SpatialGrid.make(1, 8.0, 256)
        header, _, *rows = field_to_csv(constant_field(grid, [0.25])).splitlines()
        with pytest.raises(DataError, match=rf"row 2 .*{message}"):
            field_from_csv("\n".join([header, first, *rows]))

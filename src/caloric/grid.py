"""Uniform tensor grids, sampled space-time fields, and deterministic quadrature.

The spatial domain is the periodic box [-L, L]^n truncating full space.
Each measurement that depends on L guards the truncation where it is made:
growth and flux radii capped at 0.8 L, balls covered by the grid's cells,
a kernel reach of at most L/2, an outermost annulus within L, a bound on
the homotopy ring, and (the ``evolve`` pipeline) the same value recomputed
on :meth:`SpatialGrid.enlarged`.  A sampled field is read only at its
sample times (within :data:`SAMPLE_TIME_TOL`); its slices are never
interpolated in time.  The one time interpolation left is the documented
endpoint rule of :func:`time_trapezoid`, on a reduced time profile.

Quadrature conventions
----------------------
* Grid points are x_j = -L + j*dx, j = 0..N-1 (bit-reproducible order); the
  cell of x_j is [x_j - dx/2, x_j + dx/2].
* Ball integrals use uniform weights with boundary cells clipped by the exact
  cell/ball overlap fraction in 1D and by cell-center membership in 2D (first
  order at the rim, acceptable under the >=1% tolerances of the experiments).
* All reductions go through :func:`caloric.util.det_sum`, an exact sum with
  one final rounding (bit-identical to ``math.fsum``), so results do not
  depend on the evaluation order or on how slices are batched.
* :func:`masked_sums` is the one masked reduction: a region integral, a
  ball integral, a pairing or a masked time profile is one call on the
  whole stack.  It gathers every array factor at the mask before it
  multiplies, so a value outside the mask never enters a product.
* :func:`nonzero_box` is the one bounding box: the heat operator's
  support window, the dense tail quadrature's span and the homotopy right
  side's reading box all take the first to last occupied index per axis
  from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import mul

import numpy as np
from numpy.typing import NDArray

from .errors import (
    CoverageError,
    DataError,
    DomainTooSmallError,
    InsufficientResolutionError,
)
from .optrack import track
from .util import det_sum, fmt_float

_COVER_TOL = 1e-9
# A time within this distance of a sample time names that sample.
SAMPLE_TIME_TOL = 1e-9
# SpatialGrid.enlarged widens the box by this factor at the same spacing.
EXTENT_FACTOR = 1.5


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic uniform tensor grid on [-L, L]^dim with spacing dx.

    Points per axis equal round(2L/dx) and 2L/dx must be an integer to
    round-off, so the periodic wrap x_{N-1} + dx == L is exact.
    """

    dim: int
    half_extent: float
    spacing: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"SpatialGrid invariant violated: dim must be 1 or 2, got {self.dim}")
        if not (self.half_extent > 0 and self.spacing > 0):
            raise ValueError("SpatialGrid invariant violated: half_extent and spacing must be positive")
        if not self.spacing < self.half_extent / 4:
            raise ValueError("SpatialGrid invariant violated: need spacing < half_extent/4")
        ratio = 2.0 * self.half_extent / self.spacing
        n = round(ratio)
        if abs(ratio - n) > 1e-6 * max(1.0, n):
            raise ValueError(
                "SpatialGrid invariant violated: 2L/dx must be integral "
                f"(got {ratio!r}); build with SpatialGrid.make to avoid this"
            )
        if n < 8:
            raise ValueError("SpatialGrid invariant violated: need >= 8 points per axis")

    @classmethod
    def make(cls, dim: int, half_extent: float, points_per_axis: int) -> "SpatialGrid":
        """Grid with exactly *points_per_axis* points per axis."""
        return cls(dim, half_extent, 2.0 * half_extent / points_per_axis)

    @property
    def points_per_axis(self) -> int:
        return round(2.0 * self.half_extent / self.spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def n_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis(self) -> NDArray[np.float64]:
        """The 1D coordinate axis -L + j*dx, j = 0..N-1 (shared by all axes)."""
        x = -self.half_extent + np.arange(self.points_per_axis, dtype=float) * self.spacing
        x.flags.writeable = False
        return x

    def meshgrid(self) -> tuple[NDArray[np.float64], ...]:
        """Coordinate arrays of shape ``self.shape`` (indexing='ij')."""
        return tuple(np.meshgrid(*([self.axis] * self.dim), indexing="ij"))

    def distance_to(self, center) -> NDArray[np.float64]:
        """|x - center| at every grid point, an array of shape ``self.shape``."""
        x = self.axis
        return point_distance((x,) if self.dim == 1 else (x[:, None], x[None, :]), center)

    def refined(self, factor: int = 2) -> "SpatialGrid":
        """Same box, spacing divided by *factor*."""
        return replace(self, spacing=self.spacing / factor)

    def enlarged(self) -> "SpatialGrid":
        """Box EXTENT_FACTOR times wider at identical spacing (the evolve extent audit)."""
        n_new = round(self.points_per_axis * EXTENT_FACTOR / 2) * 2
        return SpatialGrid(self.dim, n_new * self.spacing / 2.0, self.spacing)


def point_distance(coords, center) -> NDArray[np.float64]:
    """|x - center| for points given by one coordinate array per axis.

    The arrays broadcast against each other, so grid axes shaped for the
    tensor product and coordinates gathered at a mask both serve; the value
    at a point depends on its coordinates alone, bit for bit.
    """
    if len(coords) == 1:
        return np.abs(coords[0] - center[0])
    return np.sqrt((coords[0] - center[0]) ** 2 + (coords[1] - center[1]) ** 2)


def nonzero_box(mask) -> tuple[slice, ...]:
    """The index box of the True points of *mask*, one slice per axis.

    Each slice runs from the first to the last index whose hyperplane holds
    a True; it is empty (``slice(0, 0)``) when *mask* holds none.  Every
    point outside the box is False.  The box is linear: a set straddling a
    periodic seam spans nearly the whole axis.
    """
    mask = np.asarray(mask, dtype=bool)
    box = []
    for axis in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
    return tuple(box)


@dataclass(frozen=True)
class StripSpec:
    """Interior time strip (a, b); the size condition is measured on these."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a < self.b):
            raise ValueError(f"StripSpec invariant violated: need 0 < a < b, got a={self.a}, b={self.b}")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class SpaceTimeField:
    """Samples u(t_i, x_j) of a solution on a grid and a strictly increasing t-ladder."""

    grid: SpatialGrid
    times: NDArray[np.float64]
    values: NDArray[np.float64]
    label: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise DataError("times must be a non-empty 1D array")
        if not np.all(times > 0):
            raise DataError("SpaceTimeField invariant violated: all times must be > 0")
        if not np.all(np.diff(times) > 0):
            raise DataError("SpaceTimeField invariant violated: times must be strictly increasing")
        if values.shape != (times.size, *self.grid.shape):
            raise DataError(
                f"values shape {values.shape} inconsistent with "
                f"{times.size} times and grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("SpaceTimeField invariant violated: all values must be finite")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def slices_at(self, times) -> NDArray[np.float64]:
        """The stored samples at sample times *times* (each within SAMPLE_TIME_TOL).

        Returns one slice per time, stacked in the order given.  A field is
        never interpolated in time: any other time raises CoverageError.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        idx = np.abs(self.times[None, :] - times[:, None]).argmin(axis=1)
        off = ~(np.abs(self.times[idx] - times) <= SAMPLE_TIME_TOL)  # NaN is no sample time
        if off.any():
            k = int(off.argmax())
            raise CoverageError(f"time {times[k]} is not a sample time of the field (nearest "
                                f"{self.times[idx[k]]}); sampled fields are never interpolated")
        return self.values[idx]


def ball_weights(grid: SpatialGrid, center, radius: float) -> NDArray[np.float64]:
    """Quadrature weights for the ball B(center, radius).

    1D: exact cell/interval overlap lengths.  2D: cell-center membership
    times the cell area.  Raises DomainTooSmallError when the ball is not
    covered by the grid's cells.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError(f"center has {center.size} coordinates on a dim-{grid.dim} grid")
    if radius > grid.half_extent + _COVER_TOL:
        raise DomainTooSmallError(
            f"ball radius {radius} exceeds grid half-extent {grid.half_extent}")
    h = grid.spacing
    L = grid.half_extent
    for ci in center:
        if abs(ci) + radius > L - h / 2 + _COVER_TOL * max(1.0, L):
            raise DomainTooSmallError(
                f"ball B({tuple(center)}, {radius}) not covered by grid cells "
                f"(|c|+R must stay below L - dx/2 = {L - h / 2})")
    x = grid.axis
    if grid.dim == 1:
        lo = np.maximum(x - h / 2, center[0] - radius)
        hi = np.minimum(x + h / 2, center[0] + radius)
        return np.clip(hi - lo, 0.0, None)
    xg, yg = grid.meshgrid()
    dist2 = (xg - center[0]) ** 2 + (yg - center[1]) ** 2
    inside = dist2 <= radius**2 * (1.0 + 1e-12)
    return np.where(inside, h * h, 0.0)


def masked_sums(grid: SpatialGrid, mask, *factors) -> float | NDArray[np.float64]:
    """det_sum over the points of *mask* of the product of *factors*, left to right.

    *mask* is a boolean array of ``grid.shape``, or None for every point (a
    reshape, no gather).  Array factors end in the grid's axes, broadcast
    over their leading axes and are read only at the mask; scalars multiply
    as they are.  Returns one sum for a slice, one per slice for a stack.
    """
    def gathered(f):
        if np.ndim(f) == 0:
            return f
        f = np.asarray(f, dtype=float)
        return f.reshape(f.shape[:f.ndim - grid.dim] + (-1,)) if mask is None else f[..., mask]

    terms = reduce(mul, map(gathered, factors))
    return det_sum(terms) if terms.ndim == 1 else det_sum(terms, axis=-1)


@track("integrate_ball")
def integrate_ball(grid: SpatialGrid, values: NDArray[np.float64], center,
                   radius: float) -> float | NDArray[np.float64]:
    """Deterministic quadrature over B(center, radius) with :func:`ball_weights`.

    *values* is one slice (returns a float) or a stack of slices along
    leading axes (returns one integral per slice).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-grid.dim:] != grid.shape:
        raise DataError(f"values shape {values.shape} does not end in grid shape {grid.shape}")
    w = ball_weights(grid, center, radius)
    return masked_sums(grid, w > 0, values, w)


def time_trapezoid(times: NDArray[np.float64], g: NDArray[np.float64],
                   a: float, b: float) -> float:
    """Trapezoid of a sampled function of time over [a, b].

    Endpoint values at a and b are obtained by linear interpolation when they
    fall between samples; samples outside [a, b] are ignored.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    tol = 1e-12 * max(1.0, abs(b))
    if a < times[0] - tol or b > times[-1] + tol:
        raise CoverageError(f"[{a}, {b}] not covered by sample times "
                            f"[{times[0]}, {times[-1]}]")
    nodes = [a]
    vals = [float(np.interp(a, times, g))]
    inside = (times > a + tol) & (times < b - tol)
    nodes.extend(times[inside].tolist())
    vals.extend(g[inside].tolist())
    nodes.append(b)
    vals.append(float(np.interp(b, times, g)))
    nodes_arr = np.asarray(nodes)
    vals_arr = np.asarray(vals)
    pieces = 0.5 * (vals_arr[1:] + vals_arr[:-1]) * np.diff(nodes_arr)
    return det_sum(pieces)


@track("integrate_strip_L2")
def integrate_strip_L2(u: SpaceTimeField, strip: StripSpec, radius: float,
                       center=None) -> float:
    """L2 norm of u over the strip (a,b) x B(center, R).

    Square root of the time-trapezoid of the ball integral of |u(t, .)|^2.
    Requires at least 4 sample times inside [a, b].
    """
    times = u.times
    n_inside = int(np.count_nonzero((times >= strip.a - 1e-12) & (times <= strip.b + 1e-12)))
    if n_inside < 4:
        raise InsufficientResolutionError(
            f"only {n_inside} time samples in [{strip.a}, {strip.b}]; need >= 4")
    if center is None:
        center = np.zeros(u.grid.dim)
    g = integrate_ball(u.grid, u.values**2, center, radius)
    total = time_trapezoid(times, g, strip.a, strip.b)
    return float(np.sqrt(max(total, 0.0)))


@track("gradient")
def gradient(grid: SpatialGrid, values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Second-order central differences of a slice or a stack of slices.

    *values* is one slice (returns shape ``(dim, *grid.shape)``) or a stack
    along leading axes (returns ``(*lead, dim, *grid.shape)``).  Grids are
    periodic, so the stencil wraps round each axis.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-grid.dim:] != grid.shape:
        raise DataError(f"values shape {values.shape} does not end in grid shape {grid.shape}")
    lead = values.ndim - grid.dim
    h = grid.spacing
    return np.stack([(np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2 * h)
                     for ax in range(lead, values.ndim)], axis=lead)


# The column header row of a field CSV, by grid dimension.
_COLUMNS = {1: "t,x,value", 2: "t,x,y,value"}


def field_to_csv(u: SpaceTimeField) -> str:
    """Serialize snapshots: grid header comment, then t,x[,y],value rows.

    Rows run over times, then over grid points in C order (x, then y).
    Every number is written as ``'%.17g'``, the same string as
    :func:`~caloric.util.fmt_float` gives, so the text round-trips bit for
    bit through :func:`field_from_csv` and is byte-identical across runs.
    """
    g = u.grid
    ax = ["%.17g" % x for x in g.axis.tolist()]
    points = ax if g.dim == 1 else [f"{x},{y}" for x in ax for y in ax]
    cells = ["", *(f"{p},%.17g\n" for p in points)]
    parts = [f"# grid n={g.dim} L={fmt_float(g.half_extent)} "
             f"dx={fmt_float(g.spacing)} mode=periodic\n{_COLUMNS[g.dim]}\n"]
    # one '%' call per time slice: "t," joined before every cell is the row
    # template of that time
    for t, row in zip(u.times, u.values):
        template = f"{fmt_float(t)},".join(cells)
        parts.append(template % tuple(row.ravel().tolist()))
    return "".join(parts)


def _header_grid(line: str) -> SpatialGrid:
    """The grid of a ``# grid n=.. L=.. dx=.. mode=periodic`` header line."""
    items = line[len("# grid"):].split()
    if not all("=" in item for item in items):
        raise DataError(f"grid header {line!r}: every item must be key=value")
    header = dict(item.split("=", 1) for item in items)
    mode = header.get("mode")
    if mode != "periodic":
        raise DataError(f"grid mode {mode!r} is not periodic, the only boundary mode of a grid")
    try:
        return SpatialGrid(int(header["n"]), float(header["L"]), float(header["dx"]))
    except KeyError as exc:
        raise DataError(f"grid header {line!r}: missing {exc.args[0]}=") from None
    except ValueError as exc:
        raise DataError(f"grid header {line!r}: {exc}") from None


def field_from_csv(text: str) -> SpaceTimeField:
    """Parse the output of :func:`field_to_csv`.

    The column header row that :func:`field_to_csv` writes for the grid's
    dimension is optional; every other line is a data row.  Every data row
    must name a point of the header's grid, once per time.  A row of the
    wrong width, a field that is not a number, a time or coordinate that is
    not finite, a coordinate that rounds to no grid index and a repeated
    (t, x[, y]) raise DataError naming the row.  Grids are periodic: a
    header ``mode=`` other than ``periodic`` raises DataError naming it.  A
    header item without ``=``, a missing ``n``, ``L`` or ``dx``, a value that
    is not a number and a grid that breaks an invariant of
    :class:`SpatialGrid` raise DataError naming the header line.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("# grid"):
        raise DataError("missing '# grid' header line")
    grid = _header_grid(lines[0][1])
    body = lines[1:]
    if body and body[0][1].strip() == _COLUMNS[grid.dim]:
        body = body[1:]
    width = grid.dim + 2
    rows = []
    for no, ln in body:
        fields = ln.split(",")
        if len(fields) != width:
            raise DataError(f"row {no} {ln!r}: {len(fields)} fields, expected {width}")
        try:
            r = tuple(float(v) for v in fields)
        except ValueError:
            raise DataError(f"row {no} {ln!r}: a field is not a number") from None
        if not all(map(math.isfinite, r[:-1])):
            raise DataError(f"row {no} {ln!r}: time or coordinate is not finite")
        rows.append((no, ln, r))
    times = sorted({r[0] for _, _, r in rows})
    t_index = {t: i for i, t in enumerate(times)}
    n = grid.points_per_axis
    values = np.zeros((len(times), *grid.shape))
    seen = np.zeros(values.shape, dtype=bool)
    x0, h = -grid.half_extent, grid.spacing
    for no, ln, r in rows:
        at = (t_index[r[0]], *(round((x - x0) / h) for x in r[1:-1]))
        if not all(0 <= j < n for j in at[1:]):
            raise DataError(f"row {no} {ln!r}: coordinate off the grid [-L, L - dx]")
        if seen[at]:
            raise DataError(f"row {no} {ln!r}: repeats an earlier (t, x) point")
        seen[at] = True
        values[at] = r[-1]
    if not seen.all():
        raise DataError("CSV does not cover the full grid")
    return SpaceTimeField(grid, np.asarray(times), values)

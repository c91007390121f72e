"""Workloads of the caloric benchmark: seeded, verified operation menus.

A workload is a fixed list of slots.  Each slot is a menu of fully
specified operations (CLI pipeline configs) whose exit code, verdict lines
and key values were recorded in ``reference.json`` by
``record_reference.py``; a seed picks one entry per slot, so the seed varies
the inputs but never the shape or the size of the work, and it can only
pick operations whose outcome has been checked.

* ``gate`` - ``acceptance.run_all``: the nine criteria plus the coverage
  check (which routes one growth fit through ``cli.run_experiment``).
  Pinned: the seed does not change it.
* ``heat-ladder`` - homotopy pipelines over the five-member homotopy zoo,
  1D with both operator methods and 2D with the Gaussian kernel solution.
  Operator evaluation (wide kernels, the dense extent audit, FFTs) and the
  homotopy thread pool carry the time; the reductions barely show.
* ``measure-sweep`` - growth-fit, tent-norm, recover, counterexample and
  evolve pipelines.  Reductions, the exact-pairing oracle, CSV writing and
  the flat series carry the time; the heat operator appears only as many
  short-time, narrow-kernel calls along Carleson ladders.

Each pass starts from cold result caches and cleared operation counts,
because every CLI run is a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

GATE = "gate"
HEAT_LADDER = "heat-ladder"
MEASURE_SWEEP = "measure-sweep"
WORKLOADS = (GATE, HEAT_LADDER, MEASURE_SWEEP)

# Key values of an operation must match the recorded ones within
# |got - want| <= ATOL + RTOL * |want|.
RTOL = 1e-6
ATOL = 1e-12
# A CSV column longer than this is compared through its summary
# (count, sum, sum of magnitudes, largest magnitude) instead of row by row.
MAX_ROWS = 256

_CRITERIA = 10


@dataclass(frozen=True)
class Op:
    """One operation: an ``ExperimentConfig`` without its output directory."""

    slot: str
    config: tuple[tuple[str, object], ...]

    @property
    def pipeline(self) -> str:
        return dict(self.config)["pipeline"]

    @property
    def key(self) -> str:
        return json.dumps(dict(self.config), sort_keys=True)


def _op(slot: str, **config) -> Op:
    return Op(slot, tuple(sorted(config.items())))


# -- menus -----------------------------------------------------------------

# The five-member homotopy zoo of acceptance criterion 2, with seeded
# parameters.  Odd solutions pair to exactly zero against a bump centred at
# the origin, so bumps sit off-centre.
_HOMOTOPY_ZOO = {
    "gaussian_kernel": ("gaussian_kernel:t0=0.5", "gaussian_kernel:t0=1",
                        "gaussian_kernel:t0=2"),
    "polynomial_low": ("caloric_polynomial:m=2", "caloric_polynomial:m=3"),
    "polynomial_high": ("caloric_polynomial:m=4", "caloric_polynomial:m=5"),
    "exponential": ("exponential:mu=0.5", "exponential:mu=1"),
    "eigenmode": ("eigenmode:omega=0.5", "eigenmode:omega=1", "eigenmode:omega=2"),
}
_H_CENTERS = (0.5, 1.0)
# The 2D Gaussian is even; at t0 = 2 a bump at (0.5, 0.5) leaves the
# spectral residual non-monotone over the grid ladder.
_H_CENTERS_2D = (0.0, 1.0)

# 1D: the criterion-2 grid ladders (kernel 4096 -> 16384 with truncation
# factor 10, spectral 256 -> 1024).  2D: 64^2 -> 256^2 on L = 12, the
# smallest box the factor-8 kernel reach check accepts at t - s = 0.5.
_HOMOTOPY_GRIDS = {
    "kernel_1d": dict(grid_dim=1, grid_half_extent=16.0, grid_points=4096,
                      method="kernel_quadrature", truncation_factor=10.0),
    "spectral_1d": dict(grid_dim=1, grid_half_extent=16.0, grid_points=256,
                        method="spectral_multiplier", truncation_factor=10.0),
    "kernel_2d": dict(grid_dim=2, grid_half_extent=12.0, grid_points=64,
                      method="kernel_quadrature"),
    "spectral_2d": dict(grid_dim=2, grid_half_extent=12.0, grid_points=64,
                        method="spectral_multiplier"),
}


def _heat_ladder_slots() -> list[tuple[Op, ...]]:
    slots = []
    for grid_name in ("kernel_1d", "spectral_1d"):
        for member, ids in _HOMOTOPY_ZOO.items():
            slots.append(tuple(
                _op(f"{grid_name}/{member}", pipeline="homotopy", solution_id=sid,
                    h_center=hc, grid_levels=3, **_HOMOTOPY_GRIDS[grid_name])
                for sid in ids for hc in _H_CENTERS))
    for grid_name in ("kernel_2d", "spectral_2d"):
        slots.append(tuple(
            _op(f"{grid_name}/gaussian_kernel", pipeline="homotopy",
                solution_id=f"gaussian_kernel:t0={t0},dim=2", h_center=hc,
                grid_levels=3, **_HOMOTOPY_GRIDS[grid_name])
            for t0 in ("0.5", "1", "2") for hc in _H_CENTERS_2D))
    return slots


# gaussian_kernel:t0=1.5 and t0=2 come out INCONCLUSIVE on this strip, so
# they are not on the menu.
_BOUNDED_GROWTH = ("eigenmode:omega=0.5", "eigenmode:omega=1", "eigenmode:omega=2",
                   "exponential:mu=0.5", "exponential:mu=1", "caloric_polynomial:m=2",
                   "caloric_polynomial:m=4", "erf_front", "gaussian_kernel:t0=0.5",
                   "gaussian_kernel:t0=1")
_DATA = ("sign", "dirac:x0=0", "dirac:x0=0.5", "oscillator:omega=1,amp=1",
         "oscillator:omega=0.5,amp=2", "gauss_poly:coeffs=1,sigma=1",
         "gauss_poly:coeffs=0|1|0.5,sigma=1")
# Recovery runs one datum family per slot, and each family's entries cost
# about the same, so that the cost of the exact-pairing oracle does not
# depend on the seed (gauss_poly:coeffs=1|0|0.5 recovers a third faster).
_RECOVERY_DATA = {
    "sign": ("sign",),
    "dirac": ("dirac:x0=0", "dirac:x0=0.5", "dirac:x0=-0.25"),
    "oscillator": ("oscillator:omega=1,amp=1", "oscillator:omega=0.5,amp=2",
                   "oscillator:omega=1.5,amp=1"),
    "gauss_poly": ("gauss_poly:coeffs=0|1|0.5,sigma=1", "gauss_poly:coeffs=1|1|0.5,sigma=1",
                   "gauss_poly:coeffs=0.5|0.5|0.25,sigma=1"),
}
# Evolve data whose CSVs cost about the same to write (the sign and point-mass
# fields format faster or slower than these).
_EVOLVE_DATA = ("oscillator:omega=1,amp=1", "oscillator:omega=0.5,amp=2",
                "gauss_poly:coeffs=1,sigma=1", "gauss_poly:coeffs=0|1|0.5,sigma=1")
_GROWTH_GRID = dict(grid_dim=1, grid_half_extent=15.0, grid_points=512, strip_a=1.0,
                    strip_b=2.0, radii=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
# The flat series on its resolved box (criterion 3); tychonoff:K=30 is
# INCONCLUSIVE there.
_FLAT_GROWTH = dict(solution_id="tychonoff:K=40", grid_dim=1, grid_half_extent=8.0,
                    grid_points=512, strip_a=0.1, strip_b=0.3,
                    radii=(2.0, 3.0, 4.0, 5.0, 6.0))
_COUNTEREXAMPLE = dict(solution_id="tychonoff:K=40", grid_dim=1, grid_half_extent=8.0,
                       grid_points=1024, ladder_t0=0.1, ladder_ratio=0.7,
                       ladder_floor=2e-3)
# Compact bumps must sit inside |x| < 2, where the flat series has zero trace.
_COMPACT_RADII = ((0.5, 1.0), (0.25, 1.0), (0.5, 0.75))


def _measure_sweep_slots() -> list[tuple[Op, ...]]:
    growth = tuple(_op("growth-fit/bounded", pipeline="growth-fit", solution_id=sid,
                       **_GROWTH_GRID) for sid in _BOUNDED_GROWTH)
    flat = (_op("growth-fit/flat", pipeline="growth-fit", **_FLAT_GROWTH),)
    tent = tuple(_op("tent-norm", pipeline="tent-norm", datum_id=d, grid_points=512)
                 for d in _DATA)
    recover = [tuple(_op(f"recover/{family}", pipeline="recover", datum_id=d,
                         grid_points=2048) for d in ids)
               for family, ids in _RECOVERY_DATA.items()]
    counterexample = tuple(_op("counterexample", pipeline="counterexample", compact_radii=cr,
                               **_COUNTEREXAMPLE) for cr in _COMPACT_RADII)
    evolve = tuple(_op("evolve", pipeline="evolve", datum_id=d, grid_points=2048)
                   for d in _EVOLVE_DATA)
    return [growth, growth, flat, tent, tent, tent, tent, *recover, counterexample,
            evolve, evolve, evolve]


def slots(workload: str) -> list[tuple[Op, ...]]:
    """The menu of every slot of a CLI workload."""
    if workload == HEAT_LADDER:
        return _heat_ladder_slots()
    if workload == MEASURE_SWEEP:
        return _measure_sweep_slots()
    raise ValueError(f"{workload!r} has no operation menu")


def menu_entries() -> list[Op]:
    """Every distinct operation any seed can choose, in a fixed order."""
    seen: dict[str, Op] = {}
    for workload in (HEAT_LADDER, MEASURE_SWEEP):
        for slot in slots(workload):
            for op in slot:
                seen.setdefault(op.key, op)
    return list(seen.values())


def build_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass: one seeded choice per slot."""
    if workload == GATE:
        return []
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(slot) for slot in slots(workload)]


# -- running ---------------------------------------------------------------


def finish_lazy_imports() -> None:
    """Import the modules the benchmark drives and trigger lazy imports."""
    import numpy as np

    from caloric import HeatOperatorConfig, SignDatum, SpatialGrid, heat_evolve, hermite_probe
    from caloric import acceptance, cli  # noqa: F401
    from caloric.zoo import exact_pairing

    grid = SpatialGrid.make(1, 8.0, 64)
    heat_evolve(grid, np.ones(64), 0.01, HeatOperatorConfig())
    exact_pairing(SignDatum(), hermite_probe(1, 1.0))


def run_op(op: Op, out_dir: Path):
    from caloric import cli

    return cli.run_experiment(cli.ExperimentConfig(**dict(op.config), out_dir=str(out_dir)))


def verdict_lines(summary_lines) -> list[str]:
    """The PASS/FAIL records of a summary, without their measured values."""
    return [ln.split(":", 1)[0] for ln in summary_lines if ln.startswith("[")]


_KEY_COLUMNS = {
    "homotopy": (("homotopy.csv", "residual"),),
    "growth-fit": (("norm_report.csv", "value"),),
    "tent-norm": (("norm_report.csv", "value"),),
    "recover": (("recovery.csv", "extrapolated"),),
    "counterexample": (("compact_pairings.csv", "pairing"),
                       ("divergence.csv", "partial_integral")),
    "evolve": (("field.csv", "value"),),
}


# The report CSVs do not quote their labels, and labels such as
# ``bump(c=1,1,r=1)`` contain commas: a comma inside brackets separates nothing.
_FIELD_SEP = re.compile(r",(?![^()\[\]]*[)\]])")


def _column(path: Path, name: str) -> list[float]:
    rows = [_FIELD_SEP.split(ln) for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    idx = rows[0].index(name)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path.name}: rows do not match the header's columns")
    return [float(r[idx]) for r in rows[1:]]


def key_values(pipeline: str, out_dir: Path) -> dict[str, list[float]]:
    """The reported numbers an operation is judged by, read from its CSVs."""
    out = {}
    for filename, column in _KEY_COLUMNS[pipeline]:
        vals = _column(out_dir / filename, column)
        if len(vals) > MAX_ROWS:
            vals = [float(len(vals)), math.fsum(vals), math.fsum(abs(v) for v in vals),
                    max(abs(v) for v in vals)]
        out[f"{filename}:{column}"] = vals
    return out


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def check_op(op: Op, result, out_dir: Path, reference: dict) -> list[str]:
    """Problems with one operation's outcome; empty when it is correct."""
    want = reference["ops"].get(op.key)
    if want is None:
        return [f"{op.key}: no recorded reference"]
    problems = []
    if result.exit_code != want["exit_code"]:
        problems.append(f"exit code {result.exit_code}, expected {want['exit_code']}")
    if verdict_lines(result.summary_lines) != want["verdict"]:
        problems.append(f"verdict {verdict_lines(result.summary_lines)}, "
                        f"expected {want['verdict']}")
    if not problems:
        got = key_values(op.pipeline, out_dir)
        for name, ref_vals in want["values"].items():
            vals = got.get(name, [])
            if len(vals) != len(ref_vals) or not all(map(_close, vals, ref_vals)):
                problems.append(f"{name} differs from the recorded values")
    return [f"{op.slot} {op.key}: {p}" for p in problems]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _printed_ulp(text: str) -> float:
    """One unit in the last printed place of a formatted number."""
    mant, _, exp = text.lower().partition("e")
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    return 10.0 ** (int(exp or 0) - decimals)


def same_at_printed_precision(got: str, want: str) -> bool:
    """Equal text, and every number within one unit of its last printed digit."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    return all(abs(float(g) - float(w)) <= _printed_ulp(w) * (1 + 1e-9)
               for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


def gate_details(result) -> list[str]:
    """A criterion's detail lines, without its runtime-budget line."""
    return [ln for ln in result.details if "runtime budget" not in ln]


def check_criterion(result, reference: dict) -> list[str]:
    want = reference["gate"].get(str(result.index))
    if want is None:
        return [f"criterion {result.index}: no recorded reference"]
    problems = []
    if not result.passed:
        problems.append("failed")
    got = gate_details(result)
    if len(got) != len(want) or not all(map(same_at_printed_precision, got, want)):
        problems.append("details differ from the recorded ones at printed precision")
    return [f"criterion {result.index} ({result.name}): {p}" for p in problems]


@dataclass
class PassStats:
    wall_s: float
    cpu_s: float
    contour_hits: int
    contour_misses: int


class Runner:
    """Runs passes of one workload and checks every operation's output.

    Every pass writes into the same per-operation directories; CSVs must
    be byte-identical to those of the first pass.
    """

    def __init__(self, workload: str, seed: int, out_root: Path, reference: dict) -> None:
        self.workload = workload
        self.ops = build_ops(workload, seed)
        self.out_root = out_root
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self._digests: dict[str, dict[str, str]] = {}

    @property
    def ops_per_pass(self) -> int:
        return _CRITERIA if self.workload == GATE else len(self.ops)

    def _dirs(self) -> list[Path]:
        if self.workload == GATE:
            return [self.out_root / "acceptance"]
        return [self.out_root / f"op{i:02d}" for i in range(len(self.ops))]

    def run_pass(self, tracer=None) -> PassStats:
        from caloric import acceptance, optrack, zoo

        zoo._contour_means.cache_clear()
        optrack.reset_counts()
        dirs = self._dirs()
        outcomes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if self.workload == GATE:
            if tracer is not None:
                tracer.op_id = f"pass{self.passes}/gate"
            outcomes.append(self._attempt(
                lambda: acceptance.run_all(out_dir=str(dirs[0]), echo=lambda *_: None)))
        else:
            for i, (op, out_dir) in enumerate(zip(self.ops, dirs)):
                if tracer is not None:
                    tracer.op_id = f"pass{self.passes}/op{i:02d}"
                outcomes.append(self._attempt(lambda: run_op(op, out_dir)))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        info = zoo._contour_means.cache_info()
        self._verify(outcomes, dirs)
        self.passes += 1
        return PassStats(wall, cpu, info.hits, info.misses)

    @staticmethod
    def _attempt(call):
        try:
            return call()
        except Exception as exc:  # an operation that raises counts as failed
            return exc

    def _fail(self, problems: list[str], ops: int = 1) -> None:
        self.failed += ops
        self.problems.extend(f"pass {self.passes}: {p}" for p in problems)

    def _verify(self, outcomes, dirs: list[Path]) -> None:
        if self.workload == GATE:
            results = outcomes[0]
            self.attempted += _CRITERIA
            if isinstance(results, Exception):
                self._fail([f"acceptance.run_all raised {results!r}"], ops=_CRITERIA)
                return
            by_index = {r.index: r for r in results}
            for index in range(1, _CRITERIA + 1):
                if index not in by_index:
                    self._fail([f"criterion {index} missing"])
                    continue
                problems = check_criterion(by_index[index], self.reference)
                if index == _CRITERIA:
                    problems += self._check_digests("gate", dirs[0])
                if problems:
                    self._fail(problems)
            return
        for i, (op, result, out_dir) in enumerate(zip(self.ops, outcomes, dirs)):
            self.attempted += 1
            if isinstance(result, Exception):
                self._fail([f"{op.slot} {op.key}: raised {result!r}"])
                continue
            problems = check_op(op, result, out_dir, self.reference)
            problems += self._check_digests(f"op{i:02d}", out_dir)
            if problems:
                self._fail(problems)

    def _check_digests(self, name: str, out_dir: Path) -> list[str]:
        digests = csv_digests(out_dir)
        first = self._digests.setdefault(name, digests)
        if digests != first:
            return [f"{name}: CSVs differ from the first pass's"]
        return []

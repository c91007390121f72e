"""Experiment runner: wires the zoo through the measurements, emits reports.

Pipelines: evolve | tent-norm | growth-fit | homotopy | recover |
counterexample | acceptance.  Each run writes CSV tables (formats below), a
gnuplot-compatible plot script, and a summary.txt with PASS/FAIL lines;
exit codes are 0 (success), 1 (invariant violation), 2 (config error).

Config files are flat INI-style key=value text with section headers (see
README for the full key reference); identical configs and builds produce
byte-identical CSVs.  Every pipeline runs on the calling thread; the homotopy
pipeline computes its grid levels one after another, coarsest first, and
stops at the first level that fails.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CaloricError
from .grid import SpatialGrid, StripSpec, field_to_csv
from .norms import BallFamily, bmo_inv_norm, strip_growth_fit
from .optrack import track
from .probes import TestFunction, central_compact_panel, default_schwartz_panel, hermite_probe
from .representation import (
    SnapshotLadder,
    convergence_mode_probe,
    homotopy_residual,
    recover_initial_data,
)
from .semigroup import HeatOperatorConfig
from .util import fmt_float
from .zoo import datum_from_id, evolve_datum_exact, sample_solution, solution_from_id

PIPELINES = ("evolve", "tent-norm", "growth-fit", "homotopy", "recover",
             "counterexample", "acceptance")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; round-trips losslessly through INI text."""

    pipeline: str = "homotopy"
    solution_id: str = "gaussian_kernel:t0=1"
    datum_id: str = "sign"
    grid_dim: int = 1
    grid_half_extent: float = 16.0
    grid_points: int = 1024
    strip_a: float = 0.5
    strip_b: float = 1.5
    ladder_t0: float = 0.08
    ladder_ratio: float = 0.5
    ladder_floor: float = 6e-4
    radii: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    method: str = "kernel_quadrature"
    truncation_factor: float = 8.0
    homotopy_s: float = 0.5
    homotopy_t: float = 1.0
    h_center: float = 1.0
    h_radius: float = 1.0
    grid_levels: int = 3
    tent_radii: tuple[float, ...] = (0.25, 0.5, 1.0)
    rho_values: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0)
    t_divergence: float = 0.1
    compact_radii: tuple[float, ...] = (0.5, 1.0)
    evolve_times: tuple[float, ...] = (0.1, 0.2, 0.4, 0.8)
    out_dir: str = "caloric-out"

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; valid pipelines: {', '.join(PIPELINES)}")

    def grid(self) -> SpatialGrid:
        return SpatialGrid.make(self.grid_dim, self.grid_half_extent, self.grid_points)

    def strip(self) -> StripSpec:
        return StripSpec(self.strip_a, self.strip_b)

    def operator(self) -> HeatOperatorConfig:
        return HeatOperatorConfig(self.method, self.truncation_factor)

    def ladder(self) -> SnapshotLadder:
        return SnapshotLadder.down_to(self.ladder_t0, self.ladder_ratio, self.ladder_floor)


_SECTIONS = {
    "experiment": ("pipeline",),
    "solution": ("solution_id",),
    "datum": ("datum_id",),
    "grid": ("grid_dim", "grid_half_extent", "grid_points"),
    "strip": ("strip_a", "strip_b"),
    "ladder": ("ladder_t0", "ladder_ratio", "ladder_floor"),
    "radii": ("radii",),
    "operator": ("method", "truncation_factor"),
    "homotopy": ("homotopy_s", "homotopy_t", "h_center", "h_radius", "grid_levels"),
    "tent": ("tent_radii",),
    "counterexample": ("rho_values", "t_divergence", "compact_radii"),
    "evolve": ("evolve_times",),
    "output": ("out_dir",),
}
# The section of each config field.
_HOME = {key: section for section, keys in _SECTIONS.items() for key in keys}


def config_to_ini(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            val = getattr(cfg, key)
            if isinstance(val, tuple):
                txt = ",".join(fmt_float(v) for v in val)
            elif isinstance(val, float):
                txt = fmt_float(val)
            else:
                txt = str(val).replace("%", "%%")  # configparser interpolates '%'
            lines.append(f"{key} = {txt}")
        lines.append("")
    return "\n".join(lines)


def config_from_ini(text: str) -> ExperimentConfig:
    """Parse INI text as written by ``config_to_ini``.

    Each key is read only in its own ``_SECTIONS`` section, where ``id`` also
    names ``solution_id`` in ``[solution]`` and ``datum_id`` in ``[datum]``,
    and only once; no section supplies defaults to the others.  A list value
    is comma-separated and may be empty, but none of its items may be.
    ValueError names the section and the key of every violation.
    """
    # no header can name the empty section, so [DEFAULT] is a section like any other
    parser = configparser.ConfigParser(default_section="")
    parser.read_string(text)
    kwargs = {}
    defaults = ExperimentConfig()
    for section in parser.sections():
        for key, raw in parser.items(section):
            field = f"{section}_id" if key == "id" and section in ("solution", "datum") else key
            if field not in _HOME:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            if _HOME[field] != section:
                raise ValueError(f"config key {key!r} belongs in [{_HOME[field]}], "
                                 f"not [{section}]")
            if field in kwargs:
                raise ValueError(f"[{section}] sets {field} twice")
            current = getattr(defaults, field)
            try:
                if isinstance(current, tuple):
                    items = raw.split(",") if raw.strip() else []
                    if not all(item.strip() for item in items):
                        raise ValueError("empty list item")
                    kwargs[field] = tuple(float(v) for v in items)
                elif isinstance(current, int):
                    kwargs[field] = int(raw)
                elif isinstance(current, float):
                    kwargs[field] = float(raw)
                else:
                    kwargs[field] = raw.strip()
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} = {raw}: {exc}") from None
    return ExperimentConfig(**kwargs)


class Check(NamedTuple):
    """One judged claim: a pipeline's summary line or an acceptance sub-check."""

    name: str
    passed: bool
    info: str


@dataclass
class RunResult:
    exit_code: int
    files: list[str]
    summary_lines: list[str]


class _Reporter:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.files: list[str] = []
        self.csvs: list[tuple[str, str]] = []  # (name, text) of each CSV written
        self.lines: list[str] = []
        self.checks: list[Check] = []

    def write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.files.append(str(path))
        if name.endswith(".csv"):
            self.csvs.append((name, text))
        return path

    def record(self, name: str, ok: bool, info: str = "") -> None:
        self.checks.append(Check(name, bool(ok), info))
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {info}" if info else ""))

    def finish(self, exit_code: int | None = None) -> RunResult:
        """Write summary.txt; unless given, the exit code is 1 if a check failed, else 0."""
        self.write("summary.txt", "\n".join(self.lines) + "\n")
        failed = not all(c.passed for c in self.checks)
        return RunResult(int(failed) if exit_code is None else exit_code, self.files, self.lines)


def _csv(header: str, rows) -> str:
    out = [header]
    for row in rows:
        out.append(",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"


def _pipeline_evolve(cfg: ExperimentConfig, rep: _Reporter) -> None:
    grid = cfg.grid()
    datum = datum_from_id(cfg.datum_id)
    fld = evolve_datum_exact(datum, grid, cfg.evolve_times)
    rep.write("field.csv", field_to_csv(fld))
    v, v_big = (float(np.abs(datum.value(cfg.evolve_times[-1], g.axis)).max())
                for g in (grid, grid.enlarged()))
    rel = abs(v_big - v) / max(abs(v), abs(v_big), 1e-300)
    rep.record("extent audit (<0.1% change under L -> 1.5L)", rel <= 1e-3,
               f"rel change {rel:.2e}")
    rep.lines.append(f"evolved {datum.label} at times {list(cfg.evolve_times)}")


def _pipeline_tent_norm(cfg: ExperimentConfig, rep: _Reporter) -> None:
    grid = cfg.grid()
    datum = datum_from_id(cfg.datum_id)
    family = BallFamily(((0.0,) * grid.dim,), cfg.tent_radii)
    result = bmo_inv_norm(datum.sample(grid), grid, family, cfg.operator())
    fine = bmo_inv_norm(datum.sample(grid.refined()), grid.refined(), family, cfg.operator())
    stab = abs(fine.value - result.value) / max(result.value, 1e-300)
    rows = [("bmo_inv_norm", result.value, family.spec_text(), 0, 100 * stab),
            ("bmo_inv_norm", fine.value, family.spec_text(), 1, 100 * stab)]
    for p in result.per_ball:
        rows.append((f"carleson_ball_r={p.radius:g}", p.value, family.spec_text(), 0, 100 * stab))
    rep.write("norm_report.csv",
              _csv("quantity,value,family_spec,refinement_level,stability_pct", rows))
    rep.record("tent norm refinement-stable within 5%", stab <= 0.05,
               f"{result.value:.5f} vs {fine.value:.5f}")


def _pipeline_growth_fit(cfg: ExperimentConfig, rep: _Reporter) -> None:
    grid = cfg.grid()
    sol = solution_from_id(cfg.solution_id)
    strip = cfg.strip()
    times = np.linspace(strip.a, strip.b, 13)
    fld = sample_solution(sol, grid, times)
    fit = strip_growth_fit(fld, strip, cfg.radii)
    rows = []
    for r, l2 in zip(fit.radii, fit.l2_values):
        z = r * r / strip.width
        log_l2 = float(np.log(max(l2, 1e-300)))
        rows.append((r, z, l2, log_l2, fit.logC_hat + fit.gamma_hat * z))
    rep.write("growth_fit.csv", _csv("radius,z,l2,log_l2,fit_log_l2", rows))
    rep.write("norm_report.csv", _csv(
        "quantity,value,family_spec,refinement_level,stability_pct",
        [("gamma_hat", fit.gamma_hat, f"strip({strip.a:g},{strip.b:g})", 0, 0.0),
         ("logC_hat", fit.logC_hat, f"strip({strip.a:g},{strip.b:g})", 0, 0.0),
         ("r2_of_fit", fit.r2_of_fit, f"strip({strip.a:g},{strip.b:g})", 0, 0.0)]))
    rep.record(f"growth classification {fit.classification}",
               fit.classification in ("PASS", "FAIL"),
               f"gamma_hat={fit.gamma_hat:.4f} r2={fit.r2_of_fit:.4f}")
    rep.lines.append(f"solution {sol.label}: gamma_hat = {fit.gamma_hat:.6f} "
                     f"({fit.classification})")


def _pipeline_homotopy(cfg: ExperimentConfig, rep: _Reporter) -> None:
    sol = solution_from_id(cfg.solution_id)
    h = TestFunction((cfg.h_center,) * cfg.grid_dim, cfg.h_radius)
    op = cfg.operator()

    def run_level(level: int):
        g = SpatialGrid.make(cfg.grid_dim, cfg.grid_half_extent, cfg.grid_points * 2**level)
        return homotopy_residual((sol,), cfg.homotopy_s, cfg.homotopy_t, h, op,
                                 grid=g, grid_level=level)[0]

    reports = [run_level(level) for level in range(cfg.grid_levels)]
    rows = [(r.solution, r.s, r.t, r.h_id, r.grid_level, r.lhs, r.rhs, r.residual)
            for r in reports]
    rep.write("homotopy.csv",
              _csv("solution,s,t,h_id,grid_level,lhs,rhs,residual", rows))
    resids = [r.residual for r in reports]
    decreasing = all(resids[i + 1] < resids[i] for i in range(len(resids) - 1))
    rep.record("homotopy residual decreasing over grid levels", decreasing,
               " -> ".join(f"{r:.2e}" for r in resids))


def _pipeline_recover(cfg: ExperimentConfig, rep: _Reporter) -> None:
    grid = cfg.grid()
    datum = datum_from_id(cfg.datum_id)
    ladder = cfg.ladder()
    fld = evolve_datum_exact(datum, grid, ladder.times)
    rec = recover_initial_data(fld, ladder, default_schwartz_panel(), datum=datum)
    rows = []
    for p in rec.per_probe:
        incs = p.increments + (float("nan"),)
        for t_k, pairing, inc in zip(rec.ladder_times, p.pairings, incs):
            rows.append((rec.solution, p.probe_id, t_k, pairing, inc,
                         p.extrapolated, "" if p.exact is None else fmt_float(p.exact),
                         "" if p.error is None else fmt_float(p.error)))
    rep.write("recovery.csv", _csv(
        "solution,probe_id,t_k,pairing,increment,extrapolated,exact_if_known,error", rows))
    rep.record("all probes recoverable", rec.all_recoverable)
    rep.record("recovery error <= 1e-4", rec.max_error <= 1e-4,
               f"max error {rec.max_error:.2e}")


def _pipeline_counterexample(cfg: ExperimentConfig, rep: _Reporter) -> None:
    grid = cfg.grid()
    sol = solution_from_id(cfg.solution_id)
    ladder = cfg.ladder()
    report = convergence_mode_probe(
        sol, grid, ladder, central_compact_panel(cfg.compact_radii),
        [hermite_probe(0, 1.0)], rho_values=cfg.rho_values,
        t_divergence=cfg.t_divergence)
    rep.write("compact_pairings.csv", _csv(
        "h_id,t_k,pairing,truncation_flagged",
        [(r.h_id, r.t_k, r.pairing, int(r.truncation_flagged)) for r in report.compact_rows]))
    rep.write("divergence.csv", _csv(
        "probe_id,rho,partial_integral,truncation_flagged",
        [(r.probe_id, r.rho, r.partial_integral, int(r.truncation_flagged))
         for r in report.divergence_rows]))
    rep.record("compact-panel pairings converge to 0",
               report.compact_converging and report.compact_final_sup < 1e-8,
               f"final sup {report.compact_final_sup:.2e}")
    rep.record("schwartz-panel truncated pairings diverge (>=10x per step)",
               report.schwartz_diverging,
               "factors " + ",".join(f"{f:.1e}" for f in report.schwartz_growth_factors))


def _pipeline_acceptance(cfg: ExperimentConfig, rep: _Reporter) -> None:
    from . import acceptance

    results = acceptance.run_all(out_dir=str(rep.out_dir), echo=lambda *_: None)
    for r in results:
        rep.record(f"criterion {r.index}: {r.name}", r.passed, f"{r.elapsed:.1f}s")
        rep.lines.extend(r.details)


_PIPELINE_IMPL = {
    "evolve": _pipeline_evolve,
    "tent-norm": _pipeline_tent_norm,
    "growth-fit": _pipeline_growth_fit,
    "homotopy": _pipeline_homotopy,
    "recover": _pipeline_recover,
    "counterexample": _pipeline_counterexample,
    "acceptance": _pipeline_acceptance,
}


def _require(ok: bool, field: str, invariant: str, value) -> None:
    """ValueError naming the config field and its invariant unless *ok*."""
    if not ok:
        raise ValueError(f"{field} must {invariant}, got {value!r}")


def _positive(values: tuple[float, ...]) -> bool:
    return bool(values) and all(v > 0 for v in values)


def _increasing(values: tuple[float, ...]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _validate_config(cfg: ExperimentConfig) -> None:
    """Eagerly construct everything the pipeline will need.

    Invalid configurations surface here as ValueError (exit code 2, with the
    violated invariant in the message) before any computation starts; so do
    configurations under which a verdict would judge nothing, such as an
    empty probe panel or a single homotopy grid level.
    """
    cfg.grid()
    cfg.operator()
    if cfg.pipeline in ("growth-fit", "homotopy", "counterexample"):
        sol = solution_from_id(cfg.solution_id)
        if sol.dim != cfg.grid_dim:
            raise ValueError(f"{cfg.pipeline} needs a solution of the grid's dimension: "
                             f"{sol.label} is {sol.dim}-D, grid_dim is {cfg.grid_dim}")
    if cfg.pipeline in ("evolve", "tent-norm", "recover"):
        datum_from_id(cfg.datum_id)
        if cfg.grid_dim != 1:
            raise ValueError(f"{cfg.pipeline} evolves a 1-D initial datum, so grid_dim must be 1, "
                             f"got {cfg.grid_dim}")
    if cfg.pipeline == "evolve":
        _require(_positive(cfg.evolve_times) and _increasing(cfg.evolve_times), "evolve_times",
                 "be non-empty, positive and strictly increasing", cfg.evolve_times)
    if cfg.pipeline == "tent-norm":
        _require(_positive(cfg.tent_radii), "tent_radii", "be non-empty and positive",
                 cfg.tent_radii)
        BallFamily(((0.0,) * cfg.grid_dim,), cfg.tent_radii)
    if cfg.pipeline == "growth-fit":
        cfg.strip()
        if len(cfg.radii) < 5:
            raise ValueError("growth fit needs at least 5 radii")
        _require(_positive(cfg.radii), "radii", "be positive", cfg.radii)
        _require(_increasing(cfg.radii), "radii", "be strictly increasing", cfg.radii)
    if cfg.pipeline == "recover":
        cfg.ladder().validate_floor(cfg.grid())
    if cfg.pipeline == "counterexample":
        cfg.ladder()
        _require(_positive(cfg.compact_radii), "compact_radii", "be non-empty and positive",
                 cfg.compact_radii)
        _require(len(cfg.rho_values) >= 2 and _increasing(cfg.rho_values), "rho_values",
                 "be at least two strictly increasing radii", cfg.rho_values)
    if cfg.pipeline == "homotopy":
        if not 0 < cfg.homotopy_s < cfg.homotopy_t:
            raise ValueError("homotopy needs 0 < s < t")
        _require(cfg.h_radius > 0, "h_radius", "be positive", cfg.h_radius)
        _require(cfg.grid_levels >= 2, "grid_levels",
                 "be at least 2 (a decrease needs two residuals)", cfg.grid_levels)
        TestFunction((cfg.h_center,) * cfg.grid_dim, cfg.h_radius)


@track("run_experiment")
def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute the named pipeline; returns exit status and report files."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rep = _Reporter(out_dir)
    try:
        _validate_config(cfg)
    except ValueError as exc:
        rep.record(f"config error: {exc}", False)
        return rep.finish(2)
    try:
        _PIPELINE_IMPL[cfg.pipeline](cfg, rep)
    except (CaloricError, ValueError) as exc:
        # domain errors at run time are invariant violations (exit 1);
        # DomainTooSmall on a counterexample input is a documented outcome
        rep.record(f"pipeline {cfg.pipeline} aborted: {exc}", False)
        return rep.finish()
    if rep.csvs:
        rep.write("plots.gp", emit_plots(rep.csvs))
    return rep.finish()


def _gnuplot_row(row: str) -> str:
    """A CSV row as whitespace-separated gnuplot columns.

    Only top-level commas break columns: a bracketed label such as
    ``bump(c=1,r=1)`` stays one column.
    """
    cols: list[str] = []
    depth = 0
    for piece in row.split(","):
        if depth > 0:
            cols[-1] += "," + piece
        else:
            cols.append(piece)
        depth += (piece.count("(") + piece.count("[")
                  - piece.count(")") - piece.count("]"))
    return " ".join(cols)


def _plot_block(name: str, text: str, index: int) -> str:
    """One gnuplot panel per recognized CSV type, data inlined."""
    header, _, data = text.strip().partition("\n")
    lines = [f"# panel {index}: {name}", f"$data{index} << EOD"]
    if "(" in data or "[" in data:
        lines.extend(_gnuplot_row(r) for r in data.split("\n"))
    else:  # a numeric block: every comma is a column break
        lines.append(data.replace(",", " "))
    lines.append("EOD")
    if header.startswith("solution,s,t,h_id,grid_level"):
        lines.append("set title 'homotopy residual vs grid level'")
        lines.append("set logscale y")
        lines.append(f"plot $data{index} using 5:8 with linespoints title 'residual'")
    elif header.startswith("radius,z,l2"):
        lines.append("set title 'strip L2 growth: log l2 vs R^2/(b-a)'")
        lines.append(f"plot $data{index} using 2:4 with points title 'data', \\")
        lines.append(f"     $data{index} using 2:5 with lines title 'fit', \\")
        lines.append(f"     $data{index} using 2:(0.25*$2) with lines title 'slope 1/4'")
    elif header.startswith("solution,probe_id,t_k"):
        lines.append("set title 'recovery pairings vs t_k'")
        lines.append("set logscale x")
        lines.append(f"plot $data{index} using 3:4 with points title 'pairings'")
    else:
        lines.append(f"# no dedicated panel for columns: {header}")
        lines.append(f"set title '{name}'")
        lines.append(f"plot $data{index} using 0:2 with points notitle")
    return "\n".join(lines)


@track("emit_plots")
def emit_plots(csvs) -> str:
    """Gnuplot-compatible script text for report CSVs given as (name, text) pairs.

    Panels are ordered by filename.
    """
    blocks = [_plot_block(name, text, i) for i, (name, text) in enumerate(sorted(csvs))]
    head = ["# caloric report plots (gnuplot)", "set grid"]
    if len(blocks) > 1:
        head.append(f"set multiplot layout {len(blocks)},1")
        tail = ["unset multiplot"]
    else:
        tail = []
    return "\n".join(head + blocks + tail) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caloric",
        description="Desk-scale verification experiments for heat-semigroup "
                    "representation of caloric functions.")
    sub = parser.add_subparsers(dest="pipeline", required=True, metavar="|".join(PIPELINES))
    for name in PIPELINES:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--grid-levels", type=int, default=None, dest="grid_levels")
        p.add_argument("--method", choices=["kernel", "spectral"], default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = config_from_ini(Path(args.config).read_text())
            cfg = replace(cfg, pipeline=args.pipeline)
        else:
            cfg = ExperimentConfig(pipeline=args.pipeline)
        overrides = {}
        if args.out:
            overrides["out_dir"] = args.out
        if args.grid_levels is not None:
            overrides["grid_levels"] = args.grid_levels
        if args.method is not None:
            overrides["method"] = ("kernel_quadrature" if args.method == "kernel"
                                   else "spectral_multiplier")
        if overrides:
            cfg = replace(cfg, **overrides)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(cfg)
    for line in result.summary_lines:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

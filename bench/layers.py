"""The caloric layers the tracer wraps, and the per-layer metrics they yield.

Every public function of each caloric module is traced, plus the two probe
``value`` methods and the flat-series evaluator.  ``util.fmt_float`` is
left out: it is called once per CSV cell, so a span around it would cost
more than the work it measures and would inflate ``field_to_csv``.
``optrack`` is the package's own instrumentation and is left out too.

``PER_LAYER`` names the metrics the traced run prints; ``metrics`` turns one
pass's tracer aggregates into them.  Work counts are computed from the
arguments (they do not come from the program):

* ``heat_evolve`` spans are split by method and dimension; a kernel call
  does points x taps x dim multiply-adds (``mpoint_taps``, millions), a
  spectral call transforms ``mpoints`` million points;
* ``dense_evolve_at`` evaluates targets x source cells kernel pairs
  (``mpairs``, millions);
* ``det_sum`` reduces ``melements`` million elements;
* ``field_to_csv`` writes ``mbytes`` MB; the flat series is evaluated at
  ``mpoints`` million points;
* ``run_experiment`` counts runs with a non-zero exit (``failed``) and the
  bytes of every file a run reports (``cli.bytes_written``).
"""

from __future__ import annotations

import inspect
import os
from math import ceil, sqrt

import numpy as np

from tracer import Layer

MODULES = ("semigroup", "util", "grid", "norms", "representation", "zoo", "probes",
           "cli", "acceptance")
_SKIP = {"util.fmt_float"}

_HEAT_VARIANTS = ("kernel_1d", "kernel_2d", "spectral_1d", "spectral_2d")


def _calls_s(*names: str) -> list[tuple[str, str]]:
    out = []
    for name in names:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    return out


def _per_layer() -> list[tuple[str, str]]:
    m = []
    for v in _HEAT_VARIANTS:
        m += _calls_s(f"semigroup.heat_evolve.{v}")
        m.append((f"semigroup.heat_evolve.{v}.mpoint_taps", "Mpoint-taps")
                 if v.startswith("kernel") else (f"semigroup.heat_evolve.{v}.mpoints", "Mpoints"))
    m += _calls_s("semigroup.heat_evolve_gradient", "semigroup.dense_evolve_at")
    m.append(("semigroup.dense_evolve_at.mpairs", "Mpairs"))
    m += _calls_s("semigroup.annulus_decay_check")
    m += _calls_s("util.det_sum") + [("util.det_sum.melements", "Melements")]
    m += _calls_s(*(f"grid.{f}" for f in ("integrate_strip_L2", "integrate_ball",
                                           "time_trapezoid", "gradient", "extent_audit",
                                           "field_to_csv")))
    m.append(("grid.field_to_csv.mbytes", "MB"))
    m += _calls_s(*(f"norms.{f}" for f in ("strip_growth_fit", "tent_norm",
                                            "carleson_box_value", "bmo_inv_norm",
                                            "caccioppoli_ratio", "schwartz_seminorm",
                                            "tent_to_strip_bound")))
    m += _calls_s(*(f"representation.{f}" for f in (
        "homotopy_residual", "flux_functional", "recover_initial_data", "grid_pairing",
        "convergence_mode_probe", "uniqueness_probe", "snapshot_boundedness_probe",
        "pairing_bound_check")))
    m += _calls_s(*(f"zoo.{f}" for f in ("exact_pairing", "sample_solution",
                                          "evolve_datum_exact", "heat_residual",
                                          "flat_series")))
    m += [("zoo.flat_series.mpoints", "Mpoints"), ("zoo.contour_means.hit_ratio", "ratio")]
    m += [("probes.SchwartzProbe.value.calls", "count"),
          ("probes.TestFunction.value.calls", "count")]
    m += _calls_s("cli.emit_plots", "cli.run_experiment")
    m += [("cli.run_experiment.failed", "count"), ("cli.bytes_written", "bytes")]
    m += [(f"acceptance.criterion_{i}.s", "s") for i in range(1, 11)]
    m += [(f"{mod}.self_s", "s") for mod in MODULES]
    m.append(("trace.overhead_s", "s"))
    return m


PER_LAYER: list[tuple[str, str]] = _per_layer()

_RENAMED = {"cli.run_experiment.bytes_written": "cli.bytes_written"}


def metrics(aggregates: dict[str, float], contour_hits: int,
            contour_misses: int) -> dict[str, float]:
    """One pass's per-layer metrics; layers that did not run read 0."""
    got = {_RENAMED.get(k, k): v for k, v in aggregates.items()}
    lookups = contour_hits + contour_misses
    got["zoo.contour_means.hit_ratio"] = contour_hits / lookups if lookups else 0.0
    return {name: float(got.get(name, 0.0)) for name, _ in PER_LAYER if name != "trace.overhead_s"}


# -- work counters -----------------------------------------------------------


def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


def layers() -> list[Layer]:
    """Every traced function of the loaded caloric package."""
    import importlib

    mods = {name: importlib.import_module(f"caloric.{name}") for name in MODULES}
    semigroup, zoo, probes, cli, acceptance = (mods[n] for n in
                                               ("semigroup", "zoo", "probes", "cli",
                                                "acceptance"))
    heat_args = _bind(semigroup.heat_evolve)
    dense_args = _bind(semigroup.dense_evolve_at)

    def heat_variant(args, kwargs):
        a = heat_args(args, kwargs)
        method = "kernel" if a["cfg"].method == "kernel_quadrature" else "spectral"
        return f"{method}_{a['grid'].dim}d"

    def heat_work(args, kwargs, result):
        a = heat_args(args, kwargs)
        grid, cfg = a["grid"], a["cfg"]
        if cfg.method == "spectral_multiplier":
            return {"mpoints": grid.n_points / 1e6}
        taps = 2 * int(ceil(cfg.truncation_radius_factor * sqrt(a["t"]) / grid.spacing)) + 1
        return {"mpoint_taps": grid.n_points * taps * grid.dim / 1e6}

    def dense_work(args, kwargs, result):
        a = dense_args(args, kwargs)
        sources = np.count_nonzero(np.asarray(a["values"]))
        return {"mpairs": np.size(result) * sources / 1e6}

    def run_work(args, kwargs, result):
        written = sum(os.path.getsize(f) for f in result.files if os.path.exists(f))
        return {"failed": int(result.exit_code != 0), "bytes_written": written}

    special = {
        "semigroup.heat_evolve": dict(variant=heat_variant, work=heat_work),
        "semigroup.dense_evolve_at": dict(work=dense_work),
        "util.det_sum": dict(work=lambda a, k, r: {"melements": np.size(a[0]) / 1e6}),
        "grid.field_to_csv": dict(work=lambda a, k, r: {"mbytes": len(r) / 1e6}),
        "cli.run_experiment": dict(work=run_work),
    }
    renamed = {f"acceptance.{fn.__name__}": f"acceptance.criterion_{i}"
               for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1)}
    renamed["acceptance.coverage_check"] = f"acceptance.criterion_{len(renamed) + 1}"

    out = []
    for mod_name, mod in mods.items():
        for attr, fn in vars(mod).items():
            name = f"{mod_name}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in _SKIP):
                continue
            out.append(Layer(renamed.get(name, name), mod_name, mod, attr,
                             **special.get(name, {})))
    for cls in (probes.SchwartzProbe, probes.TestFunction):
        out.append(Layer(f"probes.{cls.__name__}.value", "probes", cls, "value"))
    flat_work = dict(work=lambda a, k, r: {"mpoints": np.size(a[2]) / 1e6})
    for attr in ("value_with_flag", "gradient"):
        out.append(Layer("zoo.flat_series", "zoo", zoo.TychonoffSolution, attr, **flat_work))
    return out

#!/usr/bin/env python3
"""Benchmark of the caloric toolkit, run in-process against its public API.

    python3 bench/run.py --workload gate|heat-ladder|measure-sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``
of that tree and nowhere else (the run fails if it is missing).  The
workloads and their menus are described in ``workloads.py``.

A run pins the environment (``CALORIC_THREADS`` = the usable cores, BLAS and
OpenMP pools at 1 thread, one malloc arena), makes one warm-up pass, then
repeats passes over the seeded operation list for ``--seconds``.  Every operation of every pass is checked against
``reference.json`` and CSVs must be byte-identical across passes.

``--trace 0`` reports the end-to-end metrics, with set-up measured in fresh
interpreters; ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones plus the tracing overhead, and writes the spans under ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

MIN_PASSES = 3
SETUP_SAMPLES = 7
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
# glibc's mallopt parameter for the number of malloc arenas.  With one
# arena per thread, which arena keeps which freed block depends on thread
# timing, and the heat-ladder peak RSS swung between 215 and 258 MB across
# identical runs; with a single arena it stays within about 1 %, and the
# pass times do not change.
_M_ARENA_MAX = -8

# Set-up as a user pays it: a fresh interpreter imports the package and the
# modules the pipelines need, and finishes the lazy scipy imports.
_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import workloads
workloads.finish_lazy_imports()
print(repr(time.perf_counter() - t0))
"""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Pin thread pools and import caloric from this tree's ``src/`` only.

    Must run before numpy is imported and before any thread starts.
    Exits with status 1 when the tree has no caloric sources.
    """
    if not (SRC / "caloric" / "__init__.py").is_file():
        sys.exit(f"error: no caloric sources under {SRC}")
    if ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1) != 1:
        sys.exit("error: could not limit malloc to one arena")
    os.environ["CALORIC_THREADS"] = str(usable_cores())
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import caloric

    if Path(caloric.__file__).resolve().parent != (SRC / "caloric").resolve():
        sys.exit(f"error: imported caloric from {caloric.__file__}, not from {SRC}")


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}-{kind}"] = _read(f"{index}/size")
    return {"cpu": model, "caches": caches, "nproc": usable_cores(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "caloric_threads": os.environ["CALORIC_THREADS"]}


def _median(values) -> float:
    return float(statistics.median(values))


def run_untraced(runner, seconds: float) -> tuple[list, list]:
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        stats = runner.run_pass()
        walls.append(stats.wall_s)
        cpus.append(stats.cpu_s)
    return walls, cpus


def run_traced(runner, seconds: float, spans_path: Path) -> tuple[dict, int]:
    """Alternate untraced and traced passes; per-layer medians plus overhead."""
    import layers
    from tracer import Tracer

    tracer = Tracer("caloric")
    traced_layers = layers.layers()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass().wall_s)
        tracer.install(traced_layers)
        try:
            stats = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(stats.wall_s)
        per_pass.append(layers.metrics(tracer.take_pass(), stats.contour_hits,
                                       stats.contour_misses))
    tracer.write_spans(spans_path)
    out = {name: _median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = _median(traced) - _median(plain)
    return out, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gate", "heat-ladder", "measure-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import layers
    import workloads

    reference = json.loads(REFERENCE.read_text())
    workloads.finish_lazy_imports()

    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    runner = workloads.Runner(args.workload, args.seed, out_root, reference)
    runner.run_pass()  # warm-up: fills the CSV digests, not timed

    if args.trace:
        metrics, samples = run_traced(runner, args.seconds,
                                      OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = dict(layers.PER_LAYER)
    else:
        setup = measure_setup()
        walls, cpus = run_untraced(runner, args.seconds)
        samples = len(walls)
        metrics = {
            "wall_s": _median(walls),
            "cpu_s": _median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median(setup),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {runner.ops_per_pass} ops per pass, "
          f"{samples} measured passes")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"  {'ops_failed_ratio':40s} {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

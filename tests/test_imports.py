"""Which scipy subpackages each kind of run loads, one fresh interpreter per row.

scipy is imported where it is called, so a run pays only for what it uses:
``scipy.special`` for erf, ``scipy.ndimage`` for the kernel convolution.
``scipy.integrate`` (and the linalg, optimize, sparse and spatial stack it
pulls in) and ``scipy.signal`` are never loaded at run time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import caloric

_SRC = str(Path(caloric.__file__).resolve().parents[1])

_LIST_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

# Runs one experiment at a small config in the directory given as argv[1],
# checks its exit code and prints the scipy modules the process has loaded.
_PIPELINE = """
import json, sys
from caloric.cli import ExperimentConfig, run_experiment
code = run_experiment(ExperimentConfig(**{config}, out_dir=sys.argv[1])).exit_code
assert code == 0, f"exit {{code}}"
""" + _LIST_SCIPY

KERNEL_SCIPY = {"scipy.ndimage", "scipy.special"}

# (code run in a fresh interpreter, public scipy subpackages it may load)
ROWS = {
    "import caloric.cli": (f"import json, sys, caloric.cli\n{_LIST_SCIPY}", set()),
    "growth-fit, analytic solution": (
        _PIPELINE.format(config={"pipeline": "growth-fit", "grid_points": 256}), set()),
    "homotopy, kernel quadrature": (
        _PIPELINE.format(config={"pipeline": "homotopy", "grid_points": 256}), KERNEL_SCIPY),
    "homotopy, spectral multiplier": (
        _PIPELINE.format(config={"pipeline": "homotopy", "grid_points": 256,
                                 "method": "spectral_multiplier"}), set()),
    "evolve, sign datum": (
        _PIPELINE.format(config={"pipeline": "evolve", "grid_points": 256}), {"scipy.special"}),
    "tent-norm, sign datum": (
        _PIPELINE.format(config={"pipeline": "tent-norm", "grid_points": 256}), KERNEL_SCIPY),
    "recover, point mass": (
        _PIPELINE.format(config={"pipeline": "recover", "datum_id": "dirac:x0=0",
                                 "grid_points": 2048}), set()),
    "counterexample": (
        _PIPELINE.format(config={"pipeline": "counterexample", "solution_id": "tychonoff:K=40",
                                 "grid_half_extent": 8.0, "grid_points": 1024, "ladder_t0": 0.1,
                                 "ladder_ratio": 0.7, "ladder_floor": 2e-3}), set()),
    "acceptance.run_all": (
        "import json, sys\n"
        "from caloric import acceptance\n"
        "results = acceptance.run_all(out_dir=sys.argv[1], echo=lambda *_: None)\n"
        "assert all(r.passed for r in results)\n" + _LIST_SCIPY, KERNEL_SCIPY),
}


def _subpackages(modules: list[str]) -> set[str]:
    """Public scipy subpackages among *modules*; the package core is not one."""
    names = {".".join(m.split(".")[:2]) for m in modules if "." in m}
    return {n for n in names if not n.split(".")[1].startswith("_")} - {"scipy.version"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every row's finished process; two at a time, as most of each is start-up."""
    def start(row):
        out = tmp_path_factory.mktemp("run")
        return subprocess.Popen([sys.executable, "-c", ROWS[row][0], str(out)], cwd=_SRC,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    rows, done = list(ROWS), {}
    for pair in (rows[i:i + 2] for i in range(0, len(rows), 2)):
        procs = {row: start(row) for row in pair}
        try:
            for row, proc in procs.items():
                stdout, stderr = proc.communicate(timeout=120)
                done[row] = subprocess.CompletedProcess(proc.args, proc.returncode,
                                                        stdout, stderr)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return done


@pytest.mark.parametrize("row", list(ROWS))
def test_run_loads_only_its_scipy(row, runs):
    done, allowed = runs[row], ROWS[row][1]
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    if not allowed:
        assert loaded == [], f"{row} loaded scipy: {loaded}"
    got = _subpackages(loaded)
    assert "scipy.integrate" not in got and "scipy.signal" not in got
    assert got <= allowed, f"{row} loaded {sorted(got - allowed)}"

"""Acceptance gate: every criterion at its stated tolerance, one line each.

The suite is executed once per session; each test asserts one criterion and
prints its pass/fail line.  Criterion 10 is the suite's own coverage
assertion (every tracked operation exercised at least once).
"""

import dataclasses
import importlib.util
import json
import math
import platform
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy

from caloric import acceptance, cli


@pytest.fixture(scope="session")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    return {r.index: r for r in acceptance.run_all(out_dir=str(out), echo=lambda *_: None)}


def _assert_criterion(results, index):
    r = results[index]
    print()
    print(r.status_line)
    for line in r.details:
        print(line)
    assert r.passed, f"criterion {index} failed:\n" + "\n".join(r.details)
    assert r.elapsed < r.runtime_budget


def test_criterion_1_semigroup_laws(results):
    _assert_criterion(results, 1)


def test_criterion_2_homotopy_identity(results):
    _assert_criterion(results, 2)


def test_criterion_2_makes_one_homotopy_call_per_method_and_level(monkeypatch):
    batches = []
    homotopy_residual = acceptance.homotopy_residual

    def counted(solutions, *args, **kwargs):
        batches.append(len(solutions))
        return homotopy_residual(solutions, *args, **kwargs)

    monkeypatch.setattr(acceptance, "homotopy_residual", counted)
    assert acceptance.criterion_2_homotopy().passed
    assert batches == [len(acceptance._HOMOTOPY_ZOO)] * 6


def test_criterion_3_size_condition(results):
    _assert_criterion(results, 3)


def test_criterion_4_representation_closure(results):
    _assert_criterion(results, 4)


def test_criterion_5_counterexample(results):
    _assert_criterion(results, 5)


def test_criterion_6_annulus_decay(results):
    _assert_criterion(results, 6)


def test_criterion_7_flux_boundedness(results):
    _assert_criterion(results, 7)


def test_criterion_8_tent_and_bmo(results):
    _assert_criterion(results, 8)


def test_tent_oracle_closed_form_matches_quadrature():
    # I = int_0^1 2 erf(1/(sqrt(2) s)) ds at 40 digits, split where the
    # integrand bends; the closed form must agree to 2 ulp
    with mpmath.workdps(40):
        integral = mpmath.quad(lambda s: 2 * mpmath.erf(1 / (mpmath.sqrt(2) * s)), [0, 0.25, 1])
        want = float(mpmath.sqrt(integral / (2 * mpmath.sqrt(8 * mpmath.pi))))
    got = acceptance._tent_oracle_value()
    assert abs(got - want) <= 2 * math.ulp(want)


def test_criterion_8_computes_one_seminorm(monkeypatch):
    from caloric import representation

    orders = []
    schwartz_seminorm = representation.schwartz_seminorm

    def counted(phi, order):
        orders.append(order)
        return schwartz_seminorm(phi, order)

    monkeypatch.setattr(representation, "schwartz_seminorm", counted)
    assert acceptance.criterion_8_tent_and_bmo().passed
    assert orders == [4]


def test_criterion_8_oracle_line_unchanged(results):
    assert ("  ok: tent norm of the heat kernel matches the erf oracle "
            "(0.4243 vs 0.4251 (0.20%))") in results[8].details


def test_criterion_8_reads_condition_ii_from_the_recovery(monkeypatch):
    # one recovery serves both composite checks: the snapshots are bounded
    # when every probe is recoverable and every ladder pairing is finite
    recoveries = []
    recover_initial_data = acceptance.recover_initial_data

    def recorded(*args, **kwargs):
        recoveries.append(recover_initial_data(*args, **kwargs))
        return recoveries[-1]

    monkeypatch.setattr(acceptance, "recover_initial_data", recorded)
    result = acceptance.criterion_8_tent_and_bmo()
    (rec,) = recoveries
    sup = max(float(np.abs(p.pairings).max()) for p in rec.per_probe)
    bounded = rec.all_recoverable and all(np.isfinite(p.pairings).all() for p in rec.per_probe)
    (check,) = [c for c in result.checks if c.name.startswith("composite: snapshots bounded")]
    assert check == cli.Check("composite: snapshots bounded (condition ii)", bounded,
                              f"sup {sup:.3f}")
    assert check.passed and check.info == "sup 5.424"


def test_criterion_9_caccioppoli(results):
    _assert_criterion(results, 9)


def test_criterion_10_operation_coverage(results):
    _assert_criterion(results, 10)


def test_criterion_10_checks_its_runtime_budget(results):
    checks = results[10].checks
    assert [c.name for c in checks].count("runtime budget") == 1
    last = checks[-1]
    assert last.name == "runtime budget" and last.passed
    assert last.info.endswith("s < 60s")


def test_gate_meets_the_benchmark_reference(results, monkeypatch):
    # the benchmark fails a gate pass whose criteria fail or whose detail
    # lines leave the recorded ones at printed precision; bench/ is only read
    bench = Path(__file__).resolve().parents[1] / "bench"
    reference = json.loads((bench / "reference.json").read_text())
    running = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}
    if reference["recorded_with"] != running:
        pytest.skip(f"reference recorded with {reference['recorded_with']}, running {running}")
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert sorted(results) == list(range(1, 11))
    assert [p for r in results.values() for p in workloads.check_criterion(r, reference)] == []


def test_raising_criterion_fails_alone(monkeypatch, tmp_path):
    # a zero residual divides by zero in criterion 2's refinement ratio; the
    # gate must report that as criterion 2's FAIL and still run the others
    homotopy_residual = acceptance.homotopy_residual

    def exact(*args, **kwargs):
        return tuple(dataclasses.replace(r, rhs=r.lhs)
                     for r in homotopy_residual(*args, **kwargs))

    monkeypatch.setattr(acceptance, "homotopy_residual", exact)
    source = Path(acceptance.__file__).read_text().splitlines()
    line = next(i for i, text in enumerate(source, 1) if "resids[i] / resids[i + 1]" in text)
    echoed = []
    results = acceptance.run_all(out_dir=str(tmp_path / "gate"), echo=echoed.append)
    assert [r.index for r in results] == list(range(1, 11))
    assert [r.passed for r in results] == [True, False] + [True] * 8
    raised = [c for c in results[1].checks if not c.passed]
    assert raised == [cli.Check("raised ZeroDivisionError", False,
                                f"acceptance.py:{line}: float division by zero")]
    assert results[1].checks[-1].name == "runtime budget"
    assert (f"  FAIL: raised ZeroDivisionError (acceptance.py:{line}: float division by zero)"
            in echoed)

    out = tmp_path / "cli"
    assert cli.main(["acceptance", "--out", str(out)]) == 1
    summary = (out / "summary.txt").read_text().splitlines()
    statuses = [ln for ln in summary if re.match(r"\[(PASS|FAIL)\] criterion \d+: ", ln)]
    assert len(statuses) == 10
    assert [ln.startswith("[FAIL]") for ln in statuses] == [False, True] + [False] * 8


def test_total_runtime_under_ten_minutes(results):
    total = sum(r.elapsed for r in results.values())
    print(f"\ntotal acceptance runtime: {total:.1f}s")
    assert total < 600.0

"""Acceptance gate: every criterion at its stated tolerance, one line each.

The suite is executed once per session; each test asserts one criterion and
prints its pass/fail line.  Criterion 10 is the suite's own coverage
assertion (every tracked operation exercised at least once).
"""

import math

import mpmath
import pytest

from caloric import acceptance


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


def test_criterion_9_caccioppoli(results):
    _assert_criterion(results, 9)


def test_criterion_10_operation_coverage(results):
    _assert_criterion(results, 10)


def test_criterion_10_checks_its_runtime_budget(results):
    details = results[10].details
    assert sum("runtime budget" in line for line in details) == 1
    assert details[-1].startswith("  ok: runtime budget (")


def test_total_runtime_under_ten_minutes(results):
    total = sum(r.elapsed for r in results.values())
    print(f"\ntotal acceptance runtime: {total:.1f}s")
    assert total < 600.0

"""tools/output_diff.py: equal trees give equal records, a one-ulp change
is listed number by number, and each record carries the benchmark's verdict
against the tree's recorded reference."""

import importlib.util
import shutil
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_diff", _REPO / "tools" / "output_diff.py")
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

# A gate pass, one kernel-method homotopy operation of the menu and one
# default pipeline.
_FEW = r"^(gate/|menu/000 |default/growth-fit$)"


def test_identical_trees_give_equal_records(capsys):
    assert output_diff.main([str(_REPO), str(_REPO), "--only", _FEW]) == 0
    out = capsys.readouterr().out
    assert "DIFF" not in out
    # the default growth fit has no recorded reference
    assert out.endswith("bench reference: 11 of 11 recorded records ok (1 not recorded)\n"
                        "12 of 12 records equal, 0 differ\n")


def _tree_with_kernel_mass(tmp_path, mass):
    """A copy of the tree whose heat kernel is normalized to *mass*, an
    expression in the computed mass s."""
    for part in ("src", "bench"):
        shutil.copytree(_REPO / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    semigroup = tmp_path / "src" / "caloric" / "semigroup.py"
    text = semigroup.read_text()
    assert text.count("return w / det_sum(w)") == 1
    semigroup.write_text(text.replace("return w / det_sum(w)",
                                      f"s = det_sum(w)\n    return w / ({mass})"))
    return tmp_path


_KERNEL_OP = r"^(menu/000 |default/growth-fit$)"


def test_one_ulp_kernel_change_is_listed(tmp_path, capsys):
    # the heat kernel's normalization one ulp off: the homotopy residuals
    # move, within the benchmark's tolerance; the growth fit (spectral) does
    # not move
    tree = _tree_with_kernel_mass(tmp_path, "np.nextafter(s, np.inf)")
    assert output_diff.main([str(_REPO), str(tree), "--only", _KERNEL_OP]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFF menu/000 kernel_1d/gaussian_kernel\n")
    assert "  homotopy.csv: SHA-256 differs\n" in out
    moved = [ln for ln in out.splitlines() if ln.startswith("  homotopy.csv:")
             and "(rel " in ln]
    assert moved and all(" -> " in ln for ln in moved)
    assert "DIFF default/growth-fit" not in out
    assert "  bench reference: ok\n" in out
    assert out.endswith("bench reference: 1 of 1 recorded records ok (1 not recorded)\n"
                        "1 of 2 records equal, 1 differ\n")


def test_change_beyond_the_bench_tolerance_names_its_record(tmp_path, capsys):
    # a heat kernel with 1e-9 too much mass moves the homotopy residuals
    # far beyond the benchmark's RTOL of 1e-6
    tree = _tree_with_kernel_mass(tmp_path, "s * (1.0 - 1e-9)")
    assert output_diff.main([str(_REPO), str(tree), "--only", _KERNEL_OP]) == 1
    out = capsys.readouterr().out
    record = out.split("DIFF menu/000 kernel_1d/gaussian_kernel\n", 1)[1]
    verdict = next(ln for ln in record.splitlines() if ln.startswith("  bench reference: "))
    assert "homotopy.csv:residual differs from the recorded values" in verdict
    assert out.endswith("bench reference: 0 of 1 recorded records ok (1 not recorded); "
                        "not ok: menu/000 kernel_1d/gaussian_kernel\n"
                        "1 of 2 records equal, 1 differ\n")


def test_line_changes():
    assert output_diff.line_changes("s:1", "[PASS] x: 1.5e-3 at t=1",
                                    "[FAIL] x: 2.5e-3 at t=1") == [
        "s:1: verdict [PASS] -> [FAIL]: [FAIL] x: 2.5e-3 at t=1",
        "s:1 #0: 1.5e-3 -> 2.5e-3 (rel 6.67e-01)"]
    assert output_diff.line_changes("f:2", "a,0.1,b", "a,0.1,c") == [
        "f:2: text 'a,0.1,b' -> 'a,0.1,c'"]
    assert output_diff.line_changes("f:3", "  ok: n (0, 0)", "  ok: n (0.0, 1e-300)") == [
        "f:3 #0: 0 -> 0.0 (rel 0.00e+00)", "f:3 #1: 0 -> 1e-300 (rel inf)"]

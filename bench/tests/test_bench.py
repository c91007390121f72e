"""Tests of the benchmark itself: generator, menus, tracer and output format.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import threading

import pytest

import layers
import run
import workloads
from tracer import Tracer, _covered

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())
CLI_WORKLOADS = (workloads.HEAT_LADDER, workloads.MEASURE_SWEEP)


@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)
    lists = [workloads.build_ops(workload, seed) for seed in range(20)]
    assert len({tuple(op.key for op in ops) for ops in lists}) > 1
    # the seed changes inputs, never the shape of a pass
    assert len({tuple(op.slot for op in ops) for ops in lists}) == 1


def test_gate_is_pinned():
    assert workloads.build_ops(workloads.GATE, 1) == workloads.build_ops(workloads.GATE, 2) == []


def test_every_menu_entry_has_a_reference():
    keys = {op.key for op in workloads.menu_entries()}
    assert keys == set(REFERENCE["ops"])
    assert all(rec["exit_code"] == 0 for rec in REFERENCE["ops"].values())
    assert sorted(REFERENCE["gate"], key=int) == [str(i) for i in range(1, 11)]


def test_every_menu_entry_gives_its_expected_verdict(tmp_path):
    problems = []
    for i, op in enumerate(workloads.menu_entries()):
        out_dir = tmp_path / f"op{i:03d}"
        result = workloads.run_op(op, out_dir)
        problems += workloads.check_op(op, result, out_dir, REFERENCE)
    assert problems == []


def test_check_op_flags_a_changed_value(tmp_path):
    op = workloads.build_ops(workloads.MEASURE_SWEEP, 0)[0]
    result = workloads.run_op(op, tmp_path)
    assert workloads.check_op(op, result, tmp_path, REFERENCE) == []
    ref = json.loads(json.dumps(REFERENCE))
    name = next(iter(ref["ops"][op.key]["values"]))
    ref["ops"][op.key]["values"][name][0] *= 1 + 1e-4
    assert workloads.check_op(op, result, tmp_path, ref) != []


def test_printed_precision_comparison():
    same = workloads.same_at_printed_precision
    assert same("  ok: x (1.2e-06 <= 1e-5)", "  ok: x (1.3e-06 <= 1e-5)")
    assert not same("  ok: x (1.4e-06 <= 1e-5)", "  ok: x (1.2e-06 <= 1e-5)")
    # the tolerance is the recorded number's printed precision
    assert not same("  ok: c (0.00e+00)", "  ok: c (4.4e-16)")
    assert same("  ok: c (4.40e-16)", "  ok: c (0.00e+00)")
    assert not same("  FAIL: x (1.2e-06)", "  ok: x (1.2e-06)")


def test_covered_merges_overlapping_intervals():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([]) == 0.0


def _traced_pass(workload, out_root, tracer, traced_layers):
    runner = workloads.Runner(workload, 0, out_root, REFERENCE)
    tracer.install(traced_layers)
    try:
        stats = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.problems
    return layers.metrics(tracer.take_pass(), stats.contour_hits, stats.contour_misses)


def test_tracer_sees_every_named_layer(tmp_path):
    from caloric import cli, representation, semigroup

    original = semigroup.heat_evolve
    tracer = Tracer("caloric")
    traced_layers = layers.layers()
    seen = {}
    for workload in workloads.WORKLOADS:
        per = _traced_pass(workload, tmp_path / workload, tracer, traced_layers)
        for name, value in per.items():
            seen[name] = seen.get(name, 0.0) + value
    named = [n for n, _ in layers.PER_LAYER if n.endswith((".calls", ".s", ".self_s"))]
    assert [n for n in named if not seen.get(n)] == []
    # every namespace got its original back
    assert representation.heat_evolve is original and semigroup.heat_evolve is original
    assert cli.ThreadPoolExecutor.__module__ == "concurrent.futures.thread"


def test_tracer_follows_work_onto_the_homotopy_pool(tmp_path):
    tracer = Tracer("caloric")
    _traced_pass(workloads.HEAT_LADDER, tmp_path, tracer, layers.layers())
    by_id = {s[0]: s for s in tracer.spans}
    main = threading.get_ident()
    pooled = [s for s in tracer.spans
              if s[3] == "representation.homotopy_residual" and s[6] != main]
    assert pooled, "no homotopy span recorded on a worker thread"
    for span in pooled:
        assert by_id[span[1]][3] == "cli.run_experiment"
        assert span[2] == by_id[span[1]][2]  # same operation id


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_bench(run.ROOT, "--workload", "measure-sweep", "--seed", "3",
                      "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "gate", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_csv_labels_with_commas_stay_one_field(tmp_path):
    csv = tmp_path / "homotopy.csv"
    csv.write_text("solution,s,t,h_id,grid_level,lhs,rhs,residual\n"
                   "e^(tL)oscillator(omega=1,amp=1),0.5,1,bump(c=1,1,r=1),0,0.25,0.5,0.25\n")
    assert workloads.key_values("homotopy", tmp_path) == {"homotopy.csv:residual": [0.25]}

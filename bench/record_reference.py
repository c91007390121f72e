#!/usr/bin/env python3
"""Record ``reference.json``: the checked outcome of every menu entry.

    python3 bench/record_reference.py

Runs every operation any seed can choose, once, plus the acceptance suite,
and stores each operation's exit code, verdict lines and key values and
each criterion's detail lines.  The benchmark then counts an operation as
failed when its outcome differs.  Re-record only on purpose, when a change
is meant to alter reported numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import OUT, REFERENCE, machine, prepare


def main() -> int:
    prepare()
    import workloads
    from caloric import acceptance, optrack, zoo

    workloads.finish_lazy_imports()
    out_root = OUT / "record"
    shutil.rmtree(out_root, ignore_errors=True)
    ops = {}
    for i, op in enumerate(workloads.menu_entries()):
        out_dir = out_root / f"op{i:03d}"
        zoo._contour_means.cache_clear()
        start = time.perf_counter()
        result = workloads.run_op(op, out_dir)
        elapsed = time.perf_counter() - start
        ops[op.key] = {
            "exit_code": result.exit_code,
            "verdict": workloads.verdict_lines(result.summary_lines),
            "values": workloads.key_values(op.pipeline, out_dir),
        }
        print(f"{elapsed:7.3f}s exit {result.exit_code} {op.slot} {op.key}", file=sys.stderr)
    failing = [key for key, rec in ops.items() if rec["exit_code"] != 0]
    if failing:
        sys.exit("error: menu entries that exit non-zero:\n" + "\n".join(failing))
    zoo._contour_means.cache_clear()
    optrack.reset_counts()
    results = acceptance.run_all(out_dir=str(out_root / "acceptance"), echo=lambda *_: None)
    if not all(r.passed for r in results):
        sys.exit("error: the acceptance suite fails; nothing recorded")
    gate = {str(r.index): workloads.gate_details(r) for r in results}
    env = {k: v for k, v in machine().items() if k in ("python", "numpy", "scipy")}
    REFERENCE.write_text(json.dumps({"recorded_with": env, "gate": gate, "ops": ops},
                                    indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare what two source trees of caloric output, record by record.

    python tools/output_diff.py PARENT TREE [--only REGEX]

Each tree runs in its own fresh interpreter, with its ``src`` first on the
path, over three sets of records:

* ``gate/<index>``: the status and detail lines of each criterion of one
  ``acceptance.run_all`` pass, with the elapsed seconds masked.  The files
  the gate writes go with the last criterion, whose growth-fit run writes
  them.
* ``menu/<NNN> <slot>``: every operation of the tree's
  ``bench/workloads.menu_entries()``, in order.  ``bench/`` is only read; no
  bytecode is written there.
* ``default/<pipeline>``: each pipeline other than ``acceptance`` at its
  default configuration.

A record holds the exit code, the summary lines and the SHA-256 of every
file written.  ``--only`` keeps the records whose name the regular
expression matches.  For each record that differs the tool lists each
flipped verdict and each moved number with its relative change (at most
``SHOWN`` per file or summary, then a count of the rest), reading the
files of both runs from a temporary directory.  It exits 1 when any record
differs or exists in one tree only, 0 when every record is equal, and 2
when a tree cannot be run at all.  An operation that raises records the
exception as its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SHOWN = 20
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
_VERDICT = re.compile(r"^\s*(\[PASS\]|\[FAIL\]|ok:|FAIL:)")
_ELAPSED = re.compile(r"\d+\.\d+s\b")


def _digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _dir_name(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def collect(tree: Path, out: Path, only: str) -> dict[str, dict]:
    """Run every selected record of *tree*, writing its files under *out*."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from caloric import acceptance, cli

    if not Path(cli.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"caloric was imported from {cli.__file__}, not from {tree}")
    wanted = re.compile(only).search
    records: dict[str, dict] = {}
    gate = [f"gate/{i}" for i in range(1, len(acceptance.ALL_CRITERIA) + 2)]
    if any(map(wanted, gate)):
        gate_dir = out / "gate"
        results = acceptance.run_all(out_dir=str(gate_dir), echo=lambda *_: None)
        for r in results:
            lines = [_ELAPSED.sub("#s", r.status_line)] + [
                _ELAPSED.sub("#s", ln) if "runtime budget" in ln else ln for ln in r.details]
            records[f"gate/{r.index}"] = {"exit": None, "lines": lines, "files": {},
                                          "dir": None}
        records[f"gate/{results[-1].index}"].update(files=_digests(gate_dir),
                                                    dir=str(gate_dir))
    runs = [(f"menu/{i:03d} {op.slot}", op.key, lambda d, op=op: workloads.run_op(op, d))
            for i, op in enumerate(workloads.menu_entries())]
    runs += [(f"default/{p}", p, lambda d, p=p: cli.run_experiment(
        cli.ExperimentConfig(pipeline=p, out_dir=str(d)))) for p in cli.PIPELINES
        if p != "acceptance"]
    for name, config, run in runs:
        if not wanted(name):
            continue
        out_dir = out / _dir_name(name)
        out_dir.mkdir(parents=True)
        try:
            result = run(out_dir)
            outcome = {"exit": result.exit_code, "lines": result.summary_lines}
        except Exception as exc:  # a crash is this record's outcome, not the tool's
            outcome = {"exit": f"raised {type(exc).__name__}: {exc}", "lines": []}
        records[name] = {"config": config, **outcome, "files": _digests(out_dir),
                         "dir": str(out_dir)}
    return {k: v for k, v in records.items() if wanted(k)}


def _start(tree: Path, out: Path, only: str) -> subprocess.Popen:
    """:func:`collect` in a fresh interpreter, writing out/records.json."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, __file__, "--collect", str(tree), str(out),
                             "--only", only], env=env, cwd=out)


def line_changes(where: str, old: str, new: str) -> list[str]:
    """The flipped verdict and the moved numbers of one line, or its text change."""
    changes = []
    v_old, v_new = _VERDICT.match(old), _VERDICT.match(new)
    if v_old and v_new and v_old.group(1) != v_new.group(1):
        changes.append(f"{where}: verdict {v_old.group(1)} -> {v_new.group(1)}: {new.strip()}")
    old, new = _VERDICT.sub("", old), _VERDICT.sub("", new)
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return changes + [f"{where}: text {old.strip()!r} -> {new.strip()!r}"]
    for k, (a, b) in enumerate(zip(_NUMBER.findall(old), _NUMBER.findall(new))):
        if a != b:
            x, y = float(a), float(b)
            rel = abs(y - x) / abs(x) if x else (0.0 if y == x else float("inf"))
            changes.append(f"{where} #{k}: {a} -> {b} (rel {rel:.2e})")
    return changes


def _text_changes(where: str, old: list[str], new: list[str]) -> list[str]:
    changes = [] if len(old) == len(new) else [f"{where}: {len(old)} -> {len(new)} lines"]
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            changes += line_changes(f"{where}:{i + 1}", a, b)
    if len(changes) > SHOWN:
        changes = changes[:SHOWN] + [f"{where}: ... and {len(changes) - SHOWN} more"]
    return changes


def record_changes(old: dict, new: dict) -> list[str]:
    """Every difference between two runs of one record, one line each."""
    changes = []
    if old.get("config") != new.get("config"):
        changes.append(f"config {old.get('config')} -> {new.get('config')}")
    if old["exit"] != new["exit"]:
        changes.append(f"exit code {old['exit']} -> {new['exit']}")
    changes += _text_changes("summary", old["lines"], new["lines"])
    for name in sorted(set(old["files"]) | set(new["files"])):
        if name not in old["files"] or name not in new["files"]:
            changes.append(f"{name}: only in the {'tree' if name in new['files'] else 'parent'}")
        elif old["files"][name] != new["files"][name]:
            texts = [(Path(r["dir"]) / name).read_text(errors="replace").splitlines()
                     for r in (old, new)]
            changes += [f"{name}: SHA-256 differs"] + _text_changes(name, *texts)
    return changes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("tree", type=Path)
    parser.add_argument("--only", default="", help="regular expression on record names")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:  # the child process: args.parent is the tree, args.tree the output
        records = collect(args.parent, args.tree, args.only)
        (args.tree / "records.json").write_text(json.dumps(records))
        return 0
    for tree in (args.parent, args.tree):
        if not (tree / "src" / "caloric").is_dir() or not (tree / "bench" / "workloads.py").is_file():
            parser.error(f"{tree} is not a caloric source tree (src/caloric, bench/workloads.py)")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": args.parent.resolve(), "tree": args.tree.resolve()}
        procs = {side: _start(tree, Path(tmp) / side, args.only) for side, tree in trees.items()}
        failed = [side for side, proc in procs.items() if proc.wait() != 0]
        if failed:
            print(f"collecting the records of {', '.join(map(str, map(trees.get, failed)))} "
                  "failed", file=sys.stderr)
            return 2
        old, new = (json.loads((Path(tmp) / side / "records.json").read_text())
                    for side in trees)
        differing = 0
        for name in sorted(set(old) | set(new)):
            if name not in old or name not in new:
                changes = [f"only in the {'tree' if name in new else 'parent'}"]
            else:
                changes = record_changes(old[name], new[name])
            if changes:
                differing += 1
                print(f"DIFF {name}")
                print("\n".join(f"  {c}" for c in changes))
        print(f"{len(set(old) | set(new)) - differing} of {len(set(old) | set(new))} records "
              f"equal, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

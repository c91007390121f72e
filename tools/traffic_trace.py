"""List the public functions and methods of ``caloric`` that real traffic never enters.

The traffic is one gate pass (``acceptance.run_all``), every operation of
``bench/workloads.menu_entries()`` and each pipeline other than
``acceptance`` at its default configuration, all traced with
``sys.settrace`` (the package starts no thread, so that one trace sees every
call).  Every public top-level function of ``src/caloric/*.py`` and every
public method of a public class that no call entered is printed, one
``module.name`` or ``module.Class.name`` per line.  ``bench/`` is only
read; outputs go to a temporary directory.  ``never_entered`` returns the
list (the test
``tests/test_public_surface.py::test_traffic_leaves_only_these_uncalled``
pins it); run by hand from anywhere to print it:

    python tools/traffic_trace.py
"""

from __future__ import annotations

import ast
import importlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "caloric"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def public_definitions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name, for every public def.

    The package's own decorators (``optrack.track``) are left out: they run
    when a module is imported, and imports are not traffic.
    """
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    decorators = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            for d in getattr(node, "decorator_list", ()):
                d = d.func if isinstance(d, ast.Call) else d
                if isinstance(d, ast.Name):
                    decorators.add(d.id)
    defs = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            elif (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in decorators):
                members = [(node.name, node)]
            else:
                continue
            for name, fn in members:
                # a decorated function's code object starts at its first decorator
                first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                defs[(str(path), first)] = f"{path.stem}.{name}"
    return defs


def run_traffic(out: Path) -> None:
    import workloads
    from caloric import acceptance, cli

    acceptance.run_all(out_dir=str(out / "gate"), echo=lambda *_: None)
    for i, op in enumerate(workloads.menu_entries()):
        workloads.run_op(op, out / f"op{i:03d}")
    for name in cli.PIPELINES:
        if name != "acceptance":
            cli.run_experiment(cli.ExperimentConfig(pipeline=name, out_dir=str(out / name)))


def never_entered() -> list[str]:
    """The sorted qualified names of the public definitions the traffic never enters."""
    # imports are not traffic: every module is loaded before the trace starts
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        importlib.import_module(f"caloric.{path.stem}")
    import workloads  # noqa: F401

    entered = set()

    def on_call(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_traffic(Path(tmp))
    finally:
        sys.settrace(previous)
    return sorted(name for key, name in public_definitions().items() if key not in entered)


def main() -> None:
    never = never_entered()
    print(f"{len(never)} of {len(public_definitions())} public functions and methods "
          "never entered:")
    for name in never:
        print(f"  {name}")


if __name__ == "__main__":
    main()

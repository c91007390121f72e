"""Every public function and class of the package has a caller, and the
benchmark's hooks into the package exist.

A top-level public name of ``src/caloric/*.py`` must be referenced somewhere
in the package (``__init__.py`` does not count: re-exporting is not calling)
or in ``bench/*.py``, outside its own definition.  Tests do not count either:
a helper only the tests call is dead weight in the package.
"""

import ast
from pathlib import Path

import caloric

_PACKAGE = Path(caloric.__file__).resolve().parent
_REPO = _PACKAGE.parents[1]

# The documented inverses of the CSV and INI formats: the package only ever
# writes these formats, and the parsers exist for readers of its outputs.
_ALLOWED = {"field_from_csv", "config_to_ini"}


def _modules() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(_PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a tree loads or imports, outside the subtree *skip*."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller():
    modules = _modules()
    bench_files = sorted((_REPO / "bench").glob("*.py"))
    assert bench_files, f"no bench/*.py under {_REPO}: run the tests from a source tree"
    bench = [ast.parse(p.read_text(), str(p)) for p in bench_files]
    elsewhere = {path: set().union(*(_references(t) for p, t in modules.items() if p != path),
                                   *(_references(t) for t in bench))
                 for path in modules}
    uncalled = []
    for path, tree in modules.items():
        for node in _public_definitions(tree):
            if node.name in _ALLOWED:
                continue
            if node.name not in elsewhere[path] | _references(tree, skip=node):
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, "public names without a caller: " + ", ".join(uncalled)


def test_allow_list_names_exist():
    defined = {node.name for tree in _modules().values() for node in _public_definitions(tree)}
    assert _ALLOWED <= defined


def test_benchmark_hooks_exist():
    # bench/workloads.py and bench/record_reference.py start every pass from
    # cold caches and counts through these; a refactor must keep them
    from caloric import optrack, zoo

    assert callable(zoo._contour_means.cache_clear)
    assert zoo._contour_means.cache_info().maxsize > 0
    assert callable(optrack.reset_counts)
    bench_text = "".join(p.read_text() for p in sorted((_REPO / "bench").glob("*.py")))
    for hook in ("zoo._contour_means.cache_clear", "zoo._contour_means.cache_info",
                 "optrack.reset_counts"):
        assert hook in bench_text, f"bench/ no longer calls {hook}; update this test"

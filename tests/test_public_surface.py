"""Every public function, class, method and parameter of the package has a
caller, and the benchmark's hooks into the package exist.

A top-level public name of ``src/caloric/*.py`` must be referenced somewhere
in the package (``__init__.py`` does not count: re-exporting is not calling)
or in ``bench/*.py``, outside its own definition.  Tests do not count either:
a helper only the tests call is dead weight in the package.  The same holds
for the public methods of public classes, and for every parameter with a
default: some call in the package or in ``bench/*.py`` must pass it, or its
single value in use is a constant, not a setting; and some call there must
omit it, or the default value serves the tests at most and the parameter
should be required.  A defaulted field of a dataclass is a defaulted
parameter of its constructor, and a call of the class counts like a call of
a function.  A public class attribute (a plain assignment in the body of a
public class) must be read in the package or in ``bench/*.py``, as
``.name`` or through ``getattr``/``hasattr`` with the name as a string.

Blind spot: methods are matched by name alone, so one call of ``.gradient``
counts for the ``gradient`` of every class, called or not.  That traffic is
checked by a trace instead: ``tools/traffic_trace.py`` runs one gate pass,
every operation of ``bench/workloads.menu_entries()`` and each non-gate
pipeline at its defaults under ``sys.settrace`` and lists the public
functions and methods never entered; the last test below pins that list.
"""

import ast
import importlib.util
from pathlib import Path

import caloric

_PACKAGE = Path(caloric.__file__).resolve().parent
_REPO = _PACKAGE.parents[1]

# The documented inverses of the CSV and INI formats: the package only ever
# writes these formats, and the parsers exist for readers of its outputs.
_ALLOWED = {"field_from_csv", "config_to_ini"}
# The oracle the tests compare against: the closed-form evolution of a
# Gaussian-polynomial probe.
_ALLOWED_METHODS = {"evolved"}
# cli.main takes argv so that tests can pass arguments.
_ALLOWED_PARAMETERS = {"main(argv)"}


def _modules() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(_PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _bench() -> list[ast.Module]:
    bench_files = sorted((_REPO / "bench").glob("*.py"))
    assert bench_files, f"no bench/*.py under {_REPO}: run the tests from a source tree"
    return [ast.parse(p.read_text(), str(p)) for p in bench_files]


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_functions(tree: ast.Module):
    """(qualified name, def node, leading parameters a call does not pass)
    for each public function and each public method of a public class."""
    for node in _public_definitions(tree):
        if not isinstance(node, ast.ClassDef):
            yield node.name, node, 0
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                yield f"{node.name}.{item.name}", item, 0 if static else 1


def _defaulted_parameters(fn: ast.FunctionDef, skip: int):
    """(name, call position or None if keyword-only) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaulted_parameters() -> list[tuple[str, str, int | None]]:
    """(qualified function name, parameter, call position) of every defaulted
    public parameter."""
    return [(qualname, name, pos) for tree in _modules().values()
            for qualname, fn, skip in _public_functions(tree)
            for name, pos in _defaulted_parameters(fn, skip)]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def defaulted_fields() -> list[tuple[str, str, int]]:
    """(class name, field, call position) of every defaulted dataclass field."""
    found = []
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                found += [(node.name, f.target.id, pos) for pos, f in enumerate(fields)
                          if f.value is not None]
    return found


def _calls(trees) -> dict[str, list[tuple[int, set[str]]]]:
    """Per called name: (positional arguments passed, keywords passed) of each call.

    A ``*args`` counts as every position and a ``**kwargs`` as every keyword.
    """
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            if None in keywords:
                keywords = {"*"}
            calls.setdefault(name, []).append(
                (1 << 30 if starred else len(node.args), keywords))
    return calls


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
    bench = _bench()
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


def test_every_public_method_has_a_caller():
    # a method is called through an attribute: count attribute references only
    modules = _modules()
    attributes = {node.attr for tree in [*modules.values(), *_bench()]
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = []
    for path, tree in modules.items():
        for qualname, fn, _ in _public_functions(tree):
            if "." in qualname and fn.name not in _ALLOWED_METHODS | attributes:
                uncalled.append(f"{path.name}:{fn.lineno} {qualname}")
    assert not uncalled, "public methods without a caller outside tests: " + ", ".join(uncalled)


def public_class_attributes() -> list[tuple[str, str, int]]:
    """(class name, attribute, line) of every plain assignment in the body of
    a public class."""
    found = []
    for tree in _modules().values():
        for node in _public_definitions(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            found += [(node.name, target.id, item.lineno) for item in node.body
                      if isinstance(item, ast.Assign) for target in item.targets
                      if isinstance(target, ast.Name) and not target.id.startswith("_")]
    return found


def _attribute_reads(trees) -> set[str]:
    """Attribute names loaded as ``.name`` or named to getattr/hasattr."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return reads


def test_every_public_class_attribute_is_read():
    reads = _attribute_reads([*_modules().values(), *_bench()])
    unread = [f"{cls}.{name} (line {line})" for cls, name, line in public_class_attributes()
              if name not in reads]
    assert not unread, ("public class attributes nothing in the package or bench/ reads: "
                        + ", ".join(unread))


def test_every_defaulted_parameter_is_passed():
    calls = _calls([*_modules().values(), *_bench()])
    unpassed = []
    for qualname, name, pos in defaulted_parameters() + defaulted_fields():
        if f"{qualname}({name})" in _ALLOWED_PARAMETERS:
            continue
        if not any(name in keywords or "*" in keywords or (pos is not None and n_pos > pos)
                   for n_pos, keywords in calls.get(qualname.rsplit(".", 1)[-1], [])):
            unpassed.append(f"{qualname}({name})")
    assert not unpassed, ("defaulted parameters and fields no call in the package or bench/ "
                          "passes (make each a constant): " + ", ".join(unpassed))


def test_every_default_is_relied_on():
    calls = _calls([*_modules().values(), *_bench()])
    overridden = []
    for qualname, name, pos in defaulted_parameters() + defaulted_fields():
        if f"{qualname}({name})" in _ALLOWED_PARAMETERS:
            continue
        if not any(name not in keywords and "*" not in keywords and (pos is None or n_pos <= pos)
                   for n_pos, keywords in calls.get(qualname.rsplit(".", 1)[-1], [])):
            overridden.append(f"{qualname}({name})")
    assert not overridden, ("defaults every call in the package or bench/ overrides "
                            "(make each parameter or field required): " + ", ".join(overridden))


def test_allow_list_names_exist():
    modules = _modules()
    defined = {node.name for tree in modules.values() for node in _public_definitions(tree)}
    assert _ALLOWED <= defined
    methods = {qualname.split(".")[1] for tree in modules.values()
               for qualname, _, _ in _public_functions(tree) if "." in qualname}
    assert _ALLOWED_METHODS <= methods
    assert _ALLOWED_PARAMETERS <= {f"{fn}({name})" for fn, name, _ in defaulted_parameters()}


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



def test_package_starts_no_thread_and_reads_no_environment():
    # every run is computed on the calling thread, and no environment
    # variable changes what a run does
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {module} | {f"{module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            else:
                continue
            for name in names:
                where = f"{path.name}:{node.lineno} uses {name}"
                assert name.split(".")[0] not in ("threading", "concurrent"), where
                assert name not in ("os.environ", "os.getenv"), where


def test_bench_facing_shapes():
    # bench/ drives the gate and the CLI through these names and attributes,
    # and names its acceptance layers after the criteria's function names
    import dataclasses
    import inspect

    from caloric import acceptance, cli, optrack, probes, zoo

    assert list(inspect.signature(acceptance.run_all).parameters) == ["out_dir", "echo"]
    result = acceptance.CriterionResult(3, "name", 60.0, 1.5,
                                        [cli.Check("a", True, "x"), cli.Check("b", False, "")])
    assert (result.index, result.name, result.runtime_budget, result.elapsed) == (
        3, "name", 60.0, 1.5)
    assert not result.passed
    assert result.details == ["  ok: a (x)", "  FAIL: b"]
    assert result.status_line == "[FAIL] criterion 3: name (1.5s)"
    assert [f.name for f in dataclasses.fields(cli.RunResult)] == [
        "exit_code", "files", "summary_lines"]
    # bench/layers.py traces these methods; its tracer looks each one up in
    # the defining class's own namespace
    for cls, names in ((zoo.TychonoffSolution, ("value_with_flag", "gradient")),
                       (probes.SchwartzProbe, ("value",)), (probes.TestFunction, ("value",))):
        for name in names:
            assert inspect.isfunction(vars(cls).get(name)), f"{cls.__name__}.{name}"
    criteria = [*acceptance.ALL_CRITERIA, acceptance.coverage_check]
    assert [fn.__name__ for fn in criteria] == [
        "criterion_1_semigroup_laws", "criterion_2_homotopy", "criterion_3_size_condition",
        "criterion_4_representation_closure", "criterion_5_counterexample",
        "criterion_6_annulus_decay", "criterion_7_flux_boundedness",
        "criterion_8_tent_and_bmo", "criterion_9_caccioppoli", "coverage_check"]
    for fn in criteria:
        assert inspect.isfunction(fn) and fn.__module__ == "caloric.acceptance"
        assert getattr(acceptance, fn.__name__) is fn
    assert sorted(optrack.registered_ops()) == [
        "annulus_decay_check", "bmo_inv_norm", "caccioppoli_ratio", "convergence_mode_probe",
        "emit_plots", "eval_solution", "flux_functional", "gradient", "heat_evolve",
        "heat_evolve_gradient", "heat_residual", "homotopy_residual", "integrate_ball",
        "integrate_strip_L2", "pairing_bound_check", "recover_initial_data", "run_experiment",
        "schwartz_seminorm", "strip_growth_fit", "tent_norm", "tent_to_strip_bound",
        "tychonoff_eval", "uniqueness_probe"]


# What real traffic never enters, each with the reason it stays.
_NEVER_ENTERED = {
    "cli.main": "the command-line entry point; the traffic calls run_experiment",
    "cli.config_from_ini": "INI input of the command line",
    "cli.config_to_ini": "INI output, the inverse of config_from_ini",
    "grid.field_from_csv": "the documented reader of the field CSVs the package writes",
    "probes.SchwartzProbe.evolved": "the closed-form evolution the tests compare against",
    "grid.SpatialGrid.n_points": "bench/layers.py counts the heat operator's work with it",
    "optrack.reset_counts": "bench/ clears the operation counts before every pass",
    "zoo.TychonoffSolution.gradient": "bench/layers.py traces it; no package code calls it "
                                      "(an open FOUND note in CHANGES.md)",
}


def test_traffic_leaves_only_these_uncalled():
    spec = importlib.util.spec_from_file_location("traffic_trace",
                                                  _REPO / "tools" / "traffic_trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.never_entered() == sorted(_NEVER_ENTERED)

"""Import hygiene of the library modules, checked on their syntax trees."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import rbn

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rbn"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_from_a_sibling(path):
    private = [
        f"{alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rbn"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_sit_at_module_level(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _cache_decorators(tree):
    """(function name, decorator) of each ``lru_cache`` or ``cache`` decorator."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                    yield node.name, dec


def _maxsize(dec):
    """The positive integer a cache decorator passes as its maxsize, else None.

    Integer constant expressions such as ``1 << 13`` count; a bare
    decorator, None or a computed value does not.
    """
    if not isinstance(dec, ast.Call):
        return None
    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if len(sizes) != 1 or not all(isinstance(node, allowed) for node in ast.walk(sizes[0])):
        return None
    value = eval(compile(ast.Expression(sizes[0]), "<maxsize>", "eval"))
    return value if type(value) is int and value > 0 else None


def test_every_cache_is_bounded():
    # a module-level cache lives as long as the process, so each one states
    # an integer bound
    caches = [
        (path.name, name, _maxsize(dec)) for path in MODULES for name, dec in _cache_decorators(_tree(path))
    ]
    assert caches and [cache for cache in caches if cache[2] is None] == []


_CONTAINERS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")


def _module_containers(tree):
    """(name, weak) of each module-level name bound to a container: a dict,
    list or set display or comprehension, or a container call, which is
    weak for a ``Weak*`` class."""
    literal = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        called = getattr(value.func, "attr", getattr(value.func, "id", "")) if isinstance(value, ast.Call) else ""
        if isinstance(value, literal) or called in _CONTAINERS or called.startswith("Weak"):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((ast.unparse(target), called.startswith("Weak")) for target in targets)


def test_no_module_level_container_but_a_weak_one():
    # a module-level container lives as long as the process and grows
    # without a bound; a weak one (the model table) keeps nothing alive
    containers = [(path.name, name, weak) for path in MODULES for name, weak in _module_containers(_tree(path))]
    assert containers and [entry for entry in containers if not entry[2]] == []


def _callers(node, name, owner="<module>"):
    """The innermost enclosing function (or ``<module>``) of each call to ``name``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
        yield owner
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    for child in ast.iter_child_nodes(node):
        yield from _callers(child, name, owner)


def test_only_the_intern_table_builds_a_model():
    # the builders return one model per surface through ``_model``; a model
    # built anywhere else is a second, unequal model of its surface
    builders = [f"{path.name}:{owner}" for path in MODULES for owner in _callers(_tree(path), "SurfaceModel")]
    assert builders == ["lattice.py:_model"]


def _imported_modules(tree):
    """Top-level package of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)


def test_no_module_imports_numpy():
    # the oracle's matrices are lists of Python ints, so the library runs
    # without numpy
    imports = [(path.name, module) for path in MODULES for module in _imported_modules(_tree(path))]
    assert imports and [name for name, module in imports if module == "numpy"] == []


def test_cli_runs_leave_numpy_unloaded():
    # a Hirzebruch query, and an oracle query that eliminates at least one
    # matrix (streamed into the rank kernel), in a fresh interpreter
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from rbn import cli, cohomology
        calls, rank = [], cohomology.modp_stream_rank
        cohomology.modp_stream_rank = lambda vectors, n, p: calls.append(n) or rank(vectors, n, p)
        for argv in (["cohom", "--surface", "F2", "--divisor", "2E+F"],
                     ["oracle", "cohom", "--surface", "blp2:k=5", "--divisor", "5L-2E1-2E2-E3-E4-E5"]):
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(code, len(calls), "numpy" in sys.modules)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}
    )
    code, matrices, numpy = zip(*(line.split() for line in out.stdout.splitlines()))
    assert code == ("0", "0") and matrices[0] == "0" and int(matrices[1]) > 0, out.stderr
    assert numpy == ("False", "False")


def _references(path, *, own_bodies):
    """Identifiers a module references: names, attributes, imported names,
    keyword arguments and identifier strings (as in ``monkeypatch.setattr``).

    With ``own_bodies``, a reference inside a module-level definition of
    the same name (a recursive call) is left out.
    """
    for top in _tree(path).body:
        owner = getattr(top, "name", None) if own_bodies else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.keyword):
                name = node.arg
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != owner:
                yield name


def test_every_definition_is_referenced():
    tests = sorted(SRC.parent.parent.joinpath("tests").glob("*.py"))
    used = {name for path in MODULES for name in _references(path, own_bodies=True)}
    used.update(name for path in tests for name in _references(path, own_bodies=False))
    defined = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert [name for name in defined if name.split(":")[1] not in used] == []


# the slope hypotheses are integer inequalities and ch2 is carried as the
# integer 2 ch2, so the lattice core, the cohomology kernels and the command
# line work on integers alone (Fractions are built in chern, resolutions,
# decide and goodsums, and only where a public value or a message has one)
@pytest.mark.parametrize("name", ["lattice.py", "cohomology.py", "_modp.py", "cli.py", "__init__.py"])
def test_integer_modules_import_no_fractions(name):
    modules = [
        module
        for node in ast.walk(_tree(SRC / name))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
    ]
    assert "fractions" not in modules


def test_only_cohomology_picks_a_line_bundle_route():
    # the oracle is asked through cohomology's entry points; the command line
    # calls it directly for `rbn oracle`, and the package root re-exports it
    oracle = {"blowup_cohomology_oracle", "interpolation_h0"}
    reaching = [path.name for path in MODULES if oracle & set(_references(path, own_bodies=False))]
    assert reaching == ["__init__.py", "cli.py", "cohomology.py"]


def test_no_module_reads_the_environment():
    # every input shows in the call or the argument vector, so identical
    # invocations give identical output
    reads = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if getattr(node, "id", getattr(node, "attr", None)) in ("environ", "environb", "getenv", "getenvb")
    ]
    imports = [path.name for path in MODULES if "os" in _imported_modules(_tree(path))]
    assert (imports, reads) == ([], [])


def test_wbn_is_the_only_verdict_entry_point():
    # wbn checks chi(v) = 0 and dispatches; the family verdicts sit behind it
    public = sorted(
        node.name
        for node in _tree(SRC / "decide.py").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    )
    assert public == ["obstruction_certificate", "rank_one_wbn", "wbn"]


def test_two_term_resolution_is_the_only_closed_form_entry_point():
    # it checks rank and chi once and picks the closed form from the surface;
    # the family closed forms sit behind it
    public = sorted(
        node.name
        for node in _tree(SRC / "resolutions.py").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    )
    assert public == [
        "builtin_collection",
        "prioritary_hypotheses_check",
        "two_term_resolution",
        "verify_report",
        "verify_strong_exceptional",
    ]


# definitions that no library code names yet, each with its reason
NO_LIBRARY_CALLER = {
    "riemann_roch_chi": "a public value the README names",
    "euler_pairing": "a public value the README names; the library pairs on twice_euler_pairing's ints",
    "obstruction_certificate": "a public certificate the README names; wbn passes the pairing it has to its core",
    "verify_strong_exceptional": "a hypothesis check of the closed forms, not yet run by two_term_resolution",
    "prioritary_hypotheses_check": "a hypothesis check of the closed forms, not yet run by two_term_resolution",
}


def _named(node, kind):
    """How often ``node`` names each identifier as an ``ast.Name`` or, for
    ``kind`` ``ast.Attribute``, as an attribute."""
    if kind is ast.Name:
        return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_library_function_has_a_library_caller():
    # a function, class, method or property that only the tests name belongs
    # in the tests (tests/references.py holds the independent references); a
    # name counts when library code outside its own body names it, a
    # module-level one as a name and a method or property as an attribute.
    # Methods are matched by name alone, so a name two classes share (such
    # as CohomologyVector.chi and GoodSum.chi) counts once for both
    trees = [_tree(path) for path in MODULES if path.name != "__init__.py"]
    defined = [(top, ast.Name) for tree in trees for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
    defined += [
        (node, ast.Attribute)
        for top, _ in defined
        if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    library = {kind: sum((_named(tree, kind) for tree in trees), Counter()) for kind in (ast.Name, ast.Attribute)}
    uncalled = [top.name for top, kind in defined if library[kind][top.name] == _named(top, kind)[top.name]]
    assert [name for name in uncalled if name not in NO_LIBRARY_CALLER] == []
    # an entry that gains a library caller leaves the list
    assert sorted(name for name in uncalled if name in NO_LIBRARY_CALLER) == sorted(NO_LIBRARY_CALLER)


def test_no_assert_statements():
    # python -O drops asserts, so every check in the library raises instead
    asserts = [
        f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)
    ]
    assert asserts == []


# the value types the README lists store only values independent of each
# other; a stored duplicate of a derived value would show here as a field
VALUE_TYPE_FIELDS = {
    "ChernCharacter": ("r", "c1", "twice_ch2"),
    "PointConfig": ("collinear",),
    "CohomologyAnswer": ("vector", "route", "derivation"),
    "GoodSum": ("N", "summands"),
    "ExceptionalCollection": ("bundles", "split_index"),
    "ResolutionReport": ("collection", "exponents", "target"),
    "WBNWitness": ("good_sum", "target"),
}


@pytest.mark.parametrize("name", VALUE_TYPE_FIELDS)
def test_value_types_store_independent_values(name):
    assert tuple(f.name for f in dataclasses.fields(getattr(rbn, name))) == VALUE_TYPE_FIELDS[name]

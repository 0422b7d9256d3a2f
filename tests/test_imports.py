"""Import hygiene of the library modules, checked on their syntax trees."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

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
    # matrix, in a fresh interpreter
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from rbn import cli, cohomology
        calls, nullity = [], cohomology.modp_nullity
        cohomology.modp_nullity = lambda rows, p: calls.append(len(rows)) or nullity(rows, p)
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
        "hom_dimension",
        "prioritary_hypotheses_check",
        "solve_exponents",
        "two_term_resolution",
        "verify_report",
        "verify_strong_exceptional",
    ]


def test_no_assert_statements():
    # python -O drops asserts, so every check in the library raises instead
    asserts = [
        f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)
    ]
    assert asserts == []

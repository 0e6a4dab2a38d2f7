"""Guards on the public surface: every public function, class and method of
``einext`` has a caller outside the tests, and the package exports exactly
the names of the README's library sketch and the errors they raise.  Every
module of the package but ``__init__`` uses each name it imports, and no
name that ``tests/oracles.py`` or ``tests/util.py`` defines is defined in
the package too, so a cross-check is never kept in the library.  The
command line has one writer: only ``main`` calls ``_emit``, and no command
handler picks an exit code; and one reader and one float-error scope, both
entered by ``main`` alone.  ``cli`` and ``__init__`` import neither numpy
nor the package's numeric modules when they load.  No module reads the
environment, and the tolerance has one default, ``algebra.DEFAULT_TOL``.
Each index set has one numbering: only ``ratlinalg`` numbers the upper
triangle, and nothing ranks the triples i < j < k.  One module reaches
LAPACK's dense solve: ``solver`` calls the gufunc behind ``np.linalg.solve``
itself, and no module calls the wrapper.

The caller scan matches bare names, not bindings: any name or attribute
spelled the same counts as a caller.  A method that shares its name with
another object's attribute, as a ``get`` would with ``dict.get`` or a
``canonical`` with the benchmark's ``ref.canonical``, passes unseen, so such
names need a look by hand."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import einext

from test_readme import readme_block

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "einext"

# Public names that stay without a caller outside the tests, each for a reason.
ALLOWED_UNREACHED = {
    # The certificate's own check by substitution, the way to trust a verdict.
    "spectral.ConeCertificate.verify",
}
# The exceptions the sketch's names raise, exported beside them.
EXPORTED_ERRORS = {"StructureError", "DimensionError", "DimensionCapError", "TypeMismatchError"}


def sketch() -> ast.Module:
    """The README's library sketch, parsed."""
    return ast.parse(readme_block("Library sketch", "python"))


def public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public function, class and method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
                found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef) and public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and public(item.name):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def references() -> set[str]:
    """Names used in the package outside ``__init__``, in the benchmark and in the sketch."""
    trees = [sketch()] + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
        if path.name != "__init__.py"
    ]
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    used = references()
    unreached = {qualified for qualified, name in definitions().items() if name not in used}
    assert unreached == ALLOWED_UNREACHED


def test_package_exports_the_sketch_names_and_their_errors():
    # The exports resolve on first access, so they are read through
    # ``__all__``, ``dir`` and ``getattr`` rather than the module's dict.
    imported = {
        alias.name
        for node in ast.walk(sketch())
        if isinstance(node, ast.ImportFrom) and node.module == "einext"
        for alias in node.names
    }
    expected = imported | EXPORTED_ERRORS
    assert set(einext.__all__) == expected
    listed = {name for name in dir(einext) if public(name) and not inspect.ismodule(getattr(einext, name))}
    assert listed == expected
    for name in expected:
        value = getattr(einext, name)
        assert not inspect.ismodule(value)
        assert value.__module__.startswith("einext.")
        assert vars(sys.modules[value.__module__])[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        einext.no_such_name


def walk(node: ast.AST, into_functions: bool):
    """Every node under ``node``, like ``ast.walk``, entering function bodies only when asked."""
    yield node
    for child in ast.iter_child_nodes(node):
        if into_functions or not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from walk(child, into_functions)


def imports(path: Path, module_level: bool = False) -> list[tuple[str, str]]:
    """(module, bound name) of every import in a module, or with
    ``module_level`` of every import that runs when it loads, outside every
    function body; the package's own modules are named without it:
    ``verifier`` for ``.verifier``."""
    found = []
    for node in walk(ast.parse(path.read_text(encoding="utf-8")), not module_level):
        if isinstance(node, ast.Import):
            found += [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                module = node.module or alias.name  # ``from . import x`` imports module x
                found.append((module.removeprefix("einext."), alias.asname or alias.name))
    return found


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for _, name in imports(path) if name not in used]
    assert unused == []


def defined(tree: ast.Module, nested: bool) -> set[str]:
    """Names of the functions and classes of a module, nested ones too when
    asked, and of its module-level assignments."""
    nodes = ast.walk(tree) if nested else tree.body
    names = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_no_test_oracle_or_helper_is_defined_in_the_package():
    package = set()
    for path in PACKAGE.glob("*.py"):
        package |= defined(ast.parse(path.read_text(encoding="utf-8")), nested=True)
    for name in ("oracles.py", "util.py"):
        tree = ast.parse((ROOT / "tests" / name).read_text(encoding="utf-8"))
        assert defined(tree, nested=False) & package == set(), name


def test_the_command_line_and_the_package_import_no_numerics_up_front():
    # A cold command loads only the modules it runs: ``cli`` and ``__init__``
    # import numpy and the package's modules inside the code that uses them.
    package = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "scalars"}
    for name in ("cli.py", "__init__.py"):
        eager = [
            module
            for module, _ in imports(PACKAGE / name, module_level=True)
            if module.split(".")[0] in ("numpy", "einext") or module in package
        ]
        assert eager == [], name


def test_main_alone_writes_stdout_and_picks_the_exit_code():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    emitters = [
        f.name
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_emit"
    ]
    assert emitters == ["main"]
    verdicts = {
        f.name
        for f in functions
        if f.name.startswith("_cmd_")
        for node in ast.walk(f)
        if isinstance(node, ast.Name) and node.id in ("EXIT_OK", "EXIT_FAIL")
    }
    assert verdicts == set()


def test_main_alone_reads_the_input_and_enters_the_float_error_scope():
    # Each command is a compute step (args, data) -> (payload, passed): main
    # reads the input, then runs the step in the one np.errstate scope.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = {
        f.name: {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
    }

    def reached(name: str) -> set:
        """The names a function calls, directly or through the module's functions."""
        seen, todo = set(), [name]
        while todo:
            new = calls[todo.pop()] - seen
            seen |= new
            todo += sorted(new & calls.keys())
        return seen

    assert {name for name in calls if "_read_json_input" in reached(name)} == {"_read", "main"}
    assert {name for name in calls if "errstate" in reached(name)} == {"main"}


def test_no_module_reads_the_environment():
    # A verdict follows from the input and the flags alone.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        spelled |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        spelled |= {module.split(".")[0] for module, _ in imports(path)}
        assert spelled & {"os", "environ", "getenv"} == set(), path.stem


def test_no_module_uses_numpy_random():
    # search's start points come from solver._PCG64, not from numpy.random.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        spelled |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        spelled |= {module for module, _ in imports(path)} | {f"{module}.{name}" for module, name in imports(path)}
        found = [name for name in spelled if name.startswith(("np.random", "numpy.random")) or "default_rng" in name]
        assert sorted(found) == [], path.stem


def test_the_tolerance_has_one_default():
    # Assigned once, and every other module reaches it under its own name.
    assigned, imported = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            assigned += [f"{path.stem}.{name}" for name in names if name.endswith("_TOL")]
        imported |= {name for _, name in imports(path) if name.endswith("_TOL")}
    assert assigned == ["algebra.DEFAULT_TOL"]
    assert imported <= {"DEFAULT_TOL"}


def test_each_index_set_has_one_numbering():
    # The upper triangle's slots come from ratlinalg._triangle alone, and a
    # Jacobi sum's slot is its sorted triple and l, so no module counts triples.
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name in ("triu_indices", "comb"):
                    callers.setdefault(name, set()).add(path.stem)
    assert callers == {"triu_indices": {"ratlinalg"}}


def test_only_the_solver_reaches_the_lapack_solve():
    # The damped step calls numpy's dgesv gufunc directly, with the float-error
    # settings np.linalg.solve would use; nothing calls the wrapper.
    naming, wrapper = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                spelled = (node.module or "").split(".")
            elif isinstance(node, ast.alias):
                spelled = node.name.split(".")
            else:
                spelled = [getattr(node, "id", None), getattr(node, "attr", None)]
            if "_umath_linalg" in spelled:
                naming.add(path.stem)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.solve"):
                wrapper.add(path.stem)
    assert (naming, wrapper) == ({"solver"}, set())

"""Guards on the public surface: every public function, class and method of
``einext`` has a caller outside the tests, and the package exports exactly
the names of the README's library sketch and the errors they raise.

The caller scan matches bare names, not bindings: any name or attribute
spelled the same counts as a caller.  A method that shares its name with
another object's attribute, as a ``get`` would with ``dict.get`` or a
``canonical`` with the benchmark's ``ref.canonical``, passes unseen, so such
names need a look by hand."""

import ast
import inspect
from pathlib import Path

import einext

from test_readme import readme_block

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "einext"

# Public names that stay without a caller outside the tests, each for a reason.
ALLOWED_UNREACHED = {
    # The twist of the paper's Lie-group statement; the flat almost-Kaehler
    # lifts are to give it a library caller.
    "algebra.standard_modification",
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
    imported = {
        alias.name
        for node in ast.walk(sketch())
        if isinstance(node, ast.ImportFrom) and node.module == "einext"
        for alias in node.names
    }
    exported = {
        name for name, value in vars(einext).items() if public(name) and not inspect.ismodule(value)
    }
    assert exported == imported | EXPORTED_ERRORS

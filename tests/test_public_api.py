"""Every public function and class of ``zslada`` has a caller.

A public module-level name that no code in ``src/`` or ``bench/``
references is test-only API: it grows the package without serving the
pipeline.  The scan reads the sources with ``ast``, so a name's own
definition, docstrings and comments never count as a reference, and
neither do the re-exports in the package ``__init__`` files.  Identifier
strings count, because ``bench/`` traces functions by name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zslada"

# Kept without a caller, each for the tests it anchors.
ALLOWED = {
    "augment_label": "per-row reference that augment_batch is compared against",
    "param_grads": "materialised gradient, the finite-difference oracle's subject",
    "grad_check": "the finite-difference gradient oracle",
    "ablation_run": "the only code that runs the paper's ablation-ordering acceptance test",
}


def _docstrings(tree: ast.AST) -> set[int]:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, nodes) and ast.get_docstring(node, clean=False) is not None}


def _references(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    skip = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            names.add(node.value)
    return names


def _public_definitions() -> dict[str, str]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[node.name] = str(path.relative_to(ROOT))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    referenced = set().union(*(_references(path) for path in sources))
    unused = {name: where for name, where in _public_definitions().items()
              if name not in referenced and name not in ALLOWED}
    assert not unused, f"public names only tests call: {unused}"


def test_every_allowed_name_is_still_defined():
    assert set(ALLOWED) <= set(_public_definitions())

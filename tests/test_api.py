"""The package ships only what the program itself uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hkdvlab"


def _referenced_names(path: Path) -> set[str]:
    """Names read as an AST ``Name`` or ``Attribute``; strings and comments
    do not count, and neither do import statements or definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined_names(path: Path) -> list[str]:
    """``module.name`` of every module-level function and class, and
    ``module.Class.method`` of every public method or property."""
    mod = path.stem
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(f"{mod}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{mod}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def test_every_definition_has_a_caller():
    # The rule matches names, not bindings: a definition counts as called when
    # any caller reads the same identifier, e.g. a method named ``stack``
    # would pass through ``np.stack``, or one named ``scale`` through a local
    # variable of that name.  It catches code that no identifier reaches.
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [p for p in modules if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    used = set().union(*(_referenced_names(p) for p in callers))
    defined = [name for p in modules for name in _defined_names(p)]
    uncalled = sorted(name for name in defined if name.rsplit(".", 1)[1] not in used)
    assert not uncalled, (
        f"defined but referenced nowhere in src/hkdvlab, tests/test_acceptance.py "
        f"or bench/: {', '.join(uncalled)}")

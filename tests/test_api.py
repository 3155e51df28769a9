"""The package exports only what the program itself uses."""

import ast
import inspect
from pathlib import Path

import hkdvlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hkdvlab"


def _referenced_names(path: Path) -> set[str]:
    """Names read as an AST ``Name`` or ``Attribute``; strings and comments
    do not count, and neither do import statements."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    exported = [name for name in exported
                if inspect.isfunction(getattr(hkdvlab, name))
                or inspect.isclass(getattr(hkdvlab, name))]
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    used = set().union(*(_referenced_names(p) for p in callers))
    uncalled = sorted(set(exported) - used)
    assert not uncalled, (
        f"exported but referenced nowhere in src/hkdvlab, tests/test_acceptance.py "
        f"or bench/: {', '.join(uncalled)}")

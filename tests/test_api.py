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



def _has_default(value) -> bool:
    """Whether a dataclass field's value gives it a default: any value but a
    ``field(...)`` without ``default`` or ``default_factory``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _defaulted_params(path: Path) -> list[tuple[str, str, int | None]]:
    """``(callee, parameter, position)`` of every parameter with a default.

    ``callee`` is the name a call spells: the function or method name, or the
    class name for an ``__init__`` and for a dataclass's generated one, whose
    parameters are the annotated fields.  ``position`` counts from the first
    parameter after ``self`` and is ``None`` for keyword-only parameters.
    """
    tree = ast.parse(path.read_text())
    owner = {id(m): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for m in c.body if isinstance(m, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out += [(node.name, s.target.id, i) for i, s in enumerate(fields)
                    if _has_default(s.value)]
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            pos = args.posonlyargs + args.args
            if id(node) in owner and "staticmethod" not in map(ast.unparse, node.decorator_list):
                pos = pos[1:]
            callee = owner[id(node)] if node.name == "__init__" else node.name
            first = len(pos) - len(args.defaults)
            out += [(callee, a.arg, i) for i, a in enumerate(pos) if i >= first]
            out += [(callee, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _reached(path: Path) -> set[tuple]:
    """What the calls in ``path`` pass: ``(callee, keyword)``,
    ``(callee, position)``, ``(callee, "*", position)`` for a ``*args``
    starting there and ``(callee, "**")`` for a ``**kwargs``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        for i, a in enumerate(node.args):
            out.add((callee, "*", i) if isinstance(a, ast.Starred) else (callee, i))
        out |= {(callee, k.arg) if k.arg else (callee, "**") for k in node.keywords}
    return out


def test_every_default_is_set_by_a_caller():
    # Same callers and the same name rule as the guard above: a call counts
    # for every definition whose name it spells, so ``run(cfg)`` sets the
    # first parameter of every ``run``.  A ``*args`` counts as setting every
    # position from its own on and a ``**kwargs`` every keyword, whatever
    # they hold at run time; a call through the class object
    # (``Cls.method(obj, x)``) is read one position off.  It catches defaults
    # that no call reaches, such as a parameter only the unit tests set.
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [p for p in modules if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    reached = set().union(*(_reached(p) for p in callers))
    unset = []
    for p in modules:
        for callee, param, i in _defaulted_params(p):
            if (p.stem, callee, param) == ("cli", "main", "argv"):
                continue    # the tests pass their arguments through it
            by_position = i is not None and (
                (callee, i) in reached or any((callee, "*", s) in reached for s in range(i + 1)))
            if not (by_position or (callee, param) in reached or (callee, "**") in reached):
                unset.append(f"{p.stem}.{callee}({param})")
    assert not unset, (
        f"defaults that no call in src/hkdvlab, tests/test_acceptance.py or "
        f"bench/ sets: {', '.join(sorted(unset))}")

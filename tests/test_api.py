"""The package ships only what the program itself uses, runs no reduction
on BLAS, binds the real FFT in one module, turns no dealias cutoff into a
frequency by hand, and keeps the hooks the benchmark's traced runs install."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def _dataclass_fields(path: Path) -> dict[str, list[str]]:
    """The annotated fields of every dataclass, by class name."""
    return {node.name: [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)}


def _attributes_read(path: Path, records: set[str]) -> set[str]:
    """Names read as an attribute, ``obj.name`` in a load context, except
    where the value only goes into a new record: an argument of a call to a
    class in ``records``."""
    tree = ast.parse(path.read_text())
    copied = {id(a) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in records
              for a in [*node.args, *(k.value for k in node.keywords)]}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in copied}


def test_every_dataclass_field_is_read():
    # Same callers and the same name rule as the guards above: a field counts
    # as read when any caller reads an attribute of its name, on any object.
    # Passing ``traj.dt`` straight into a new ``Trajectory`` does not count:
    # a field only copied from record to record is read by nobody.
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [p for p in modules if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    fields = {f"{p.stem}.{cls}": names for p in modules
              for cls, names in _dataclass_fields(p).items()}
    records = {name.split(".")[1] for name in fields}
    read = set().union(*(_attributes_read(p, records) for p in callers))
    unread = sorted(f"{cls}.{f}" for cls, names in fields.items() for f in names
                    if f not in read)
    assert not unread, (
        f"dataclass fields that no attribute read in src/hkdvlab, "
        f"tests/test_acceptance.py or bench/ reaches: {', '.join(unread)}")


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


#: attributes that reach BLAS or LAPACK: the dot products, matrix products and
#: the linear-algebra modules of numpy and scipy
_BLAS_ATTRS = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _blas_uses(source: str) -> list[str]:
    """Each use in ``source`` of an attribute in ``_BLAS_ATTRS``, of the ``@``
    operator, of an import from a ``linalg`` module, or of ``einsum`` with
    ``optimize`` (which may dispatch to ``tensordot``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _BLAS_ATTRS:
            out.append(ast.unparse(node))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in name.split(".")
                for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]):
            out.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            out.append(ast.unparse(node))
    return out


def test_no_reduction_runs_on_blas():
    # A threaded BLAS splits a dot product across its worker threads, so the
    # summation order, and the last bits of every CSV, would follow the core
    # count.  np.polyfit stays: its least-squares fits take at most 7 points.
    uses = {p.name: _blas_uses(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {k: v for k, v in uses.items() if v}


@pytest.mark.parametrize("source", [
    "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)", "np.inner(a, b)", "np.matmul(a, b)",
    "a @ b", "a @= b", "np.linalg.norm(a)", "from numpy.linalg import norm",
    "from scipy import linalg", "import scipy.linalg", "np.einsum('i,i->', a, b, optimize=True)",
])
def test_blas_guard_flags(source):
    assert _blas_uses(source)


def test_blas_guard_passes_thread_local_reductions():
    assert not _blas_uses("np.einsum('i,i->', a, a); np.sum(a * a); np.polyfit(x, y, 1)")


def _real_fft_bindings(source: str) -> list[str]:
    """Each import of ``rfft`` or ``irfft`` from ``scipy.fft``, each
    ``.rfft``/``.irfft`` attribute, and each import, attribute, name or
    string constant that names scipy's private pocketfft module in
    ``source``: a module that reaches the kernel through any of them can
    call its entry points (``r2c``, ``c2r``, ``r2r_fftpack``) directly.

    Strings count because a loader names the extension only in strings
    (``PathFinder.find_spec("pypocketfft", [p])``); docstrings, which bind
    nothing, do not."""
    tree = ast.parse(source)
    docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [a.name for a in node.names]
            if (any("pocketfft" in name for name in [module, *names])
                    or (module.startswith("scipy.fft") and {"rfft", "irfft"} & set(names))):
                out.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and (
                node.attr in ("rfft", "irfft") or "pocketfft" in node.attr):
            out.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and "pocketfft" in node.id:
            out.append(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "pocketfft" in node.value and id(node) not in docs):
            out.append(ast.unparse(node))
    return out


def test_only_spectral_binds_the_real_fft():
    # spectral._rfft/_irfft call the kernel without scipy.fft's per-call
    # dispatch; a second binding would bring the dispatch back and leave
    # TestTransformBinding guarding only half the calls
    uses = {p.name: _real_fft_bindings(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("spectral.py")
    assert not {k: v for k, v in uses.items() if v}


@pytest.mark.parametrize("source", [
    "from scipy.fft import rfft", "from scipy.fft import ifft, irfft as inv",
    "scipy.fft.rfft(x)", "np.fft.irfft(X, n)", "sf.rfft(x)",
    "from scipy.fft._pocketfft import pypocketfft",
    "import scipy.fft._pocketfft.pypocketfft as p", "scipy.fft._pocketfft.pypocketfft.r2c(x)",
    'PathFinder.find_spec("pypocketfft", [p])',
    'importlib.import_module("scipy.fft._pocketfft.pypocketfft")',
    "pypocketfft.r2r_fftpack(a, (-1,), True, True, 0, a, 1)",
    "spectral.pypocketfft.r2r_fftpack(a, (-1,), False, False, 2, a, 1)",
])
def test_real_fft_guard_flags(source):
    assert _real_fft_bindings(source)


def test_real_fft_guard_passes_the_helpers_and_complex_transforms():
    assert not _real_fft_bindings(
        '"""Transforms through spectral\'s binding of the pocketfft kernel."""\n'
        "from scipy.fft import ifft, next_fast_len\n"
        "from .spectral import _fast_len, _irfft, _rfft\n_irfft(_rfft(x), n); ifft(y)")


def _is_cutoff_call(node) -> bool:
    return isinstance(node, ast.Call) and "dealias_cutoff" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _cutoff_arithmetic(source: str) -> list[str]:
    """Each arithmetic operation in ``source`` on the result of a
    ``dealias_cutoff(...)`` call: the call itself as an operand, or a name
    that an assignment anywhere in ``source`` binds to such a call."""
    tree = ast.parse(source)
    bound = {t.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and _is_cutoff_call(node.value)
             for t in node.targets if isinstance(t, ast.Name)}

    def cutoff(node) -> bool:
        return _is_cutoff_call(node) or (isinstance(node, ast.Name) and node.id in bound)

    return [ast.unparse(node) for node in ast.walk(tree)
            if (isinstance(node, ast.BinOp) and (cutoff(node.left) or cutoff(node.right)))
            or (isinstance(node, ast.AugAssign) and (cutoff(node.target) or cutoff(node.value)))]


def test_no_module_does_arithmetic_on_the_dealias_cutoff():
    # Every band is a mode index: a module that needs the cutoff's frequency
    # reads grid.xi at it, and a pinned band is compared with the index, so
    # no rounding of 2 pi c / L decides whether mode c is kept
    uses = {p.name: _cutoff_arithmetic(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {k: v for k, v in uses.items() if v}


@pytest.mark.parametrize("source", [
    "xi_cut = 2 * math.pi * dealias_cutoff(n, k) / L",
    "cut = spectral.dealias_cutoff(g.n, 2) + 1",
    "c = dealias_cutoff(n, k)\nxi = c * dxi",
    "c = dealias_cutoff(n, k)\nc //= 2",
])
def test_cutoff_guard_flags(source):
    assert _cutoff_arithmetic(source)


def test_cutoff_guard_passes_index_uses():
    assert not _cutoff_arithmetic(
        "top = dealias_cutoff(n, k)\ntop = min(band, top)\n"
        "keep = np.arange(n // 2 + 1) <= top\ncut = g.xi[dealias_cutoff(g.n, k)]")


_IMPORT_WEIGHT = """
import sys
sys.path.insert(0, sys.argv[1])
import hkdvlab
from hkdvlab.experiments import SUITES, default_config
assert len(SUITES) == 6, SUITES
for name in SUITES:
    default_config(name)
import hkdvlab.cli
heavy = {"scipy.fft", "scipy.special"} & set(sys.modules)
assert not heavy, sorted(m for m in sys.modules if m.startswith("scipy"))
assert "numpy.polynomial" not in sys.modules, sorted(m for m in sys.modules
                                                     if m.startswith("numpy.polynomial"))
"""


def test_import_loads_neither_scipy_fft_nor_scipy_special():
    # each costs about 0.3 s of every cold start; spectral loads only the
    # pocketfft extension and ports the one zeta it needs, so a new top-level
    # scipy import fails here; numpy.polynomial (several ms) waits for the
    # decay contour's first Gauss-Legendre rule; a subprocess starts from a
    # clean sys.modules
    proc = subprocess.run([sys.executable, "-c", _IMPORT_WEIGHT, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_BENCH_HOOKS = """
import sys
sys.path[:0] = sys.argv[1:3]
import spans
from hkdvlab import experiments, spectral
runners = dict(experiments._RUNNERS)
tracer = spans.Tracer()
spans.install(tracer)
grid = spectral.make_grid(64, 10.0)
grid.xi, grid.xi
assert tracer.counts["grid.freq_index"] == 1, dict(tracer.counts)
assert tracer.calls["spectral.make_grid"] == 1, dict(tracer.calls)
for name, runner in runners.items():
    assert experiments._RUNNERS[name].__wrapped__ is runner, name
"""


def test_bench_spans_install_on_the_package():
    # bench/spans.py patches Grid.freq_index, wraps the layers' public
    # functions and every suite runner; a subprocess keeps those wrappers out
    # of the other tests
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_HOOKS, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""Static checks on the package sources: no dead imports, no dead private code,
no default that no call overrides, numpy cos/sin and threads only in the
brute-force oracle, the half-angle kernel only in the shared traversal, one
rounding step for every sum, and float sums in summation only where they are
exact."""

import ast
from pathlib import Path

import pytest

import zetagamma

PACKAGE = Path(zetagamma.__file__).parent
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}


def _names_used(tree: ast.AST) -> set[str]:
    # Every identifier a module reads, as a bare name or as an attribute.
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported(tree: ast.Module) -> dict[str, int]:
    # Name bound by each import statement -> its line number.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def test_sources_found():
    assert {"cli.py", "series.py", "summation.py", "tables.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_imports(module):
    tree = TREES[module]
    used = _names_used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


def test_no_unreferenced_private_functions_or_classes():
    # A private name counts as referenced when any module reads it or
    # imports it by name.
    referenced = set()
    for tree in TREES.values():
        referenced |= _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [f"{module}:{node.lineno} {node.name}"
            for module, tree in TREES.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"unreferenced private definitions: {dead}"


def _numpy_trig_outside_oracle(tree: ast.Module) -> list[int]:
    # Lines that reach numpy's cos or sin (np.cos, numpy.sin, or a name
    # imported from numpy) outside offdiag_naive.  Every other trig factor
    # comes from series._cos_msin, the one half-angle kernel.
    allowed = {id(node)
               for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "offdiag_naive"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in ("cos", "sin")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name in ("cos", "sin") for alias in node.names)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(TREES))
def test_numpy_cos_sin_only_in_the_oracle(module):
    lines = _numpy_trig_outside_oracle(TREES[module])
    assert not lines, f"{module}: np.cos/np.sin outside offdiag_naive at {lines}"


def test_numpy_trig_check_flags_calls_outside_the_oracle():
    source = (
        "import numpy as np\n"
        "from numpy import sin\n"
        "def offdiag_naive(x):\n"
        "    return np.cos(x) + np.sin(x)\n"
        "def other(x):\n"
        "    f = np.cos\n"
        "    return np.sin(x) + f(x) + np.tan(x)\n")
    assert _numpy_trig_outside_oracle(ast.parse(source)) == [2, 6, 7]


#: Modules that start threads or processes.  Every sum runs on the calling
#: thread; only the brute-force oracle splits its rows over the CPUs.
THREAD_MODULES = ("threading", "_thread", "concurrent", "multiprocessing")


def _threads_outside_oracle(tree: ast.Module) -> list[int]:
    # Lines that reach a thread or process module outside offdiag_naive: a
    # read of its name, or a from-import from it (whose names cannot be
    # followed), and any import of one but a plain ``import threading``.
    # That one starts nothing and costs nothing, since numpy has already
    # loaded it; ``concurrent.futures`` alone adds about 10 ms (it loads
    # ``logging``) to every start-up.
    allowed = {id(node)
               for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "offdiag_naive"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in THREAD_MODULES:
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] in THREAD_MODULES):
            found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] in THREAD_MODULES
                and (alias.name, alias.asname) != ("threading", None)
                for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(TREES))
def test_threads_only_in_the_oracle(module):
    lines = _threads_outside_oracle(TREES[module])
    assert not lines, f"{module}: threads or processes outside offdiag_naive at {lines}"


def test_thread_check_flags_threads_outside_the_oracle():
    source = (
        "import threading\n"
        "import concurrent.futures\n"
        "import threading as th\n"
        "from multiprocessing import Pool\n"
        "def offdiag_naive(x):\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    threading.Thread(target=x).start()\n"
        "def _chunked_sum(x):\n"
        "    worker = threading.Thread(target=x)\n"
        "    return concurrent.futures.ThreadPoolExecutor(2), th.Lock()\n")
    assert _threads_outside_oracle(ast.parse(source)) == [2, 3, 4, 9, 10]


#: The half-angle kernel's functions, the Euler-Maclaurin route, and the
#: only functions that may reach them.  Every Dirichlet term is computed by
#: one traversal, series._partial_zeta_direct, so no second term callback
#: grows back, and the traversal alone picks a sum's route, so no caller
#: decides it a second time.
KERNEL_CALLERS = {
    "_half_angle": {("series.py", "_partial_zeta_direct"),
                    ("series.py", "_cos_msin")},
    "_cos_msin": {("series.py", "_partial_zeta_direct")},
    "_partial_zeta_em": {("series.py", "_partial_zeta_direct")},
}


def _kernel_uses_outside(module: str, tree: ast.Module) -> list[tuple[int, str]]:
    # (line, name) for every read or import of a kernel function outside
    # the functions (and the functions nested in them) KERNEL_CALLERS allows.
    found = []
    for name, callers in KERNEL_CALLERS.items():
        allowed = {id(node)
                   for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (module, fn.name) in callers
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.ImportFrom)
                        and any(alias.name == name for alias in node.names))):
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(TREES))
def test_half_angle_kernel_only_in_the_shared_traversal(module):
    uses = _kernel_uses_outside(module, TREES[module])
    assert not uses, f"{module}: kernel reached outside _partial_zeta_direct at {uses}"


def test_kernel_check_flags_a_second_term_callback():
    source = (
        "from .series import _half_angle\n"
        "def _cos_msin(t, x, rows):\n"
        "    return _half_angle(t, x, *rows)\n"
        "def _partial_zeta_direct(parts):\n"
        "    def columns(idx):\n"
        "        _cos_msin(1.0, idx, rows)\n"
        "        _half_angle(1.0, idx, *rows)\n"
        "def g_of_t(t, k):\n"
        "    kernel = series._cos_msin\n"
        "    return _half_angle(t, k, *rows)\n"
        "def partial_zeta(sigma, k):\n"
        "    return _partial_zeta_em(sigma, k)\n"
        "def _partial_zeta_direct(sigma, k):\n"
        "    return _partial_zeta_em(sigma, k)\n")
    tree = ast.parse(source)
    assert _kernel_uses_outside("series.py", tree) == [
        (1, "_half_angle"), (9, "_cos_msin"), (10, "_half_angle"),
        (12, "_partial_zeta_em")]
    assert _kernel_uses_outside("fixedpoint.py", tree) == [
        (1, "_half_angle"), (3, "_half_angle"), (6, "_cos_msin"),
        (7, "_half_angle"), (9, "_cos_msin"), (10, "_half_angle"),
        (12, "_partial_zeta_em"), (14, "_partial_zeta_em")]


#: Parameters with a default that no call inside the package passes, each
#: with the reason it stays a parameter.
UNPASSED_DEFAULTS_ALLOWED = {
    ("summation.py", "chunked_parallel_sum", "workers"):
        "acceptance criterion 08 and the benchmark pass it",
    ("summation.py", "chunked_parallel_pair_sum", "workers"):
        "acceptance criterion 08 and the benchmark pass it",
    ("series.py", "zeta_em", "order"): "acceptance criterion 09 passes it",
    ("series.py", "gamma_type1", "q"): "the CLI passes it through a local alias",
    ("series.py", "gamma_type2", "q"): "the CLI passes it through a local alias",
    ("cli.py", "main", "argv"): "entry point, called with the command line",
}


def _unpassed_defaults(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    # (module, function, parameter) for every parameter with a default that
    # no call of a function of that name passes, by keyword or by position.
    keywords, positional = set(), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.update((name, kw.arg) for kw in node.keywords)
            positional[name] = max(positional.get(name, 0), len(node.args))
    unpassed = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            with_default = [(i, a.arg) for i, a in enumerate(params) if i >= first]
            with_default += [(None, a.arg) for a, d in
                             zip(args.kwonlyargs, args.kw_defaults) if d]
            unpassed.update(
                (module, fn.name, arg) for i, arg in with_default
                if (fn.name, arg) not in keywords
                and (i is None or positional.get(fn.name, 0) <= i))
    return unpassed


def test_every_default_is_passed_by_some_call_or_allowed():
    unpassed = _unpassed_defaults(TREES)
    allowed = set(UNPASSED_DEFAULTS_ALLOWED)
    assert not unpassed - allowed, f"defaults no call passes: {unpassed - allowed}"
    assert not allowed - unpassed, f"stale allow-list entries: {allowed - unpassed}"


def test_default_check_flags_a_dead_default():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def g(x=0):\n"
        "    return f(1, 2, e=5) + obj.g(x=1)\n")
    assert _unpassed_defaults({"m.py": ast.parse(source)}) == {
        ("m.py", "f", "c"), ("m.py", "f", "d")}


#: The only functions a process-wide cache may decorate, each with the
#: reason.  A cached sum would be timed warm by a benchmark that repeats an
#: op in one process, though a fresh command never is, so sharing work
#: between sums stays within one call.
CACHED_ALLOWED = {
    "_bernoulli_even_rationals": "exact constants, computed once at import",
    "_em_plan": "head and order depend on sigma alone, no sum is cached",
}


def _caches_outside(tree: ast.Module, allowed) -> list[int]:
    # Lines that reach functools.cache or functools.lru_cache (as an
    # attribute or a name imported from functools), except as a decorator
    # of a function named in ``allowed``.
    names = ("cache", "lru_cache")
    exempt = {id(node)
              for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for decorator in fn.decorator_list
              for node in ast.walk(decorator)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
              and any(alias.name in names for alias in node.names)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(TREES))
def test_caches_only_on_allowed_functions(module):
    lines = _caches_outside(TREES[module], CACHED_ALLOWED)
    assert not lines, f"{module}: functools cache outside {sorted(CACHED_ALLOWED)} at {lines}"


def test_cache_check_flags_a_cached_sum():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.cache\n"
        "def _em_plan(sigma):\n"
        "    return sigma\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached_harmonic(k):\n"
        "    return partial_zeta(1.0, 0.0, k)\n"
        "cached_zeta = functools.cache(partial_zeta)\n")
    assert _caches_outside(ast.parse(source), CACHED_ALLOWED) == [2, 6, 9]


def _second_rounding_steps(module: str, tree: ast.Module) -> list[int]:
    # Lines that reach math.fsum (as an attribute or a name imported from
    # math) in any module, or import fractions in summation.py.  Every sum
    # is rounded once, by summation's int division, and Fraction was the
    # overflow fallback of an fsum there.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "fsum" for alias in node.names)):
            found.append(node.lineno)
        elif module == "summation.py" and (
                isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.Import)
                and any(alias.name == "fractions" for alias in node.names)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(TREES))
def test_one_rounding_step_for_every_sum(module):
    lines = _second_rounding_steps(module, TREES[module])
    assert not lines, f"{module}: math.fsum or fractions at {lines}"


def test_rounding_check_flags_fsum_and_fractions():
    source = (
        "import math\n"
        "import fractions\n"
        "from fractions import Fraction\n"
        "from math import fsum, log\n"
        "def total(xs):\n"
        "    return math.fsum(xs) + fsum(xs) + math.log(2.0)\n")
    tree = ast.parse(source)
    assert _second_rounding_steps("summation.py", tree) == [2, 3, 4, 6]
    assert _second_rounding_steps("series.py", tree) == [4, 6]


#: numpy's float summing reductions: each rounds unless its terms are known
#: to add up exactly.  The methods of the ufunc ``add`` that sum are flagged
#: on it alone (``np.add.reduce``, ``add.accumulate``), not on other ufuncs.
FLOAT_SUMS = ("sum", "nansum", "cumsum")
ADD_SUMS = ("reduce", "reduceat", "accumulate")


def _is_add(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "add"
            or isinstance(node, ast.Attribute) and node.attr == "add")


def _float_sums_outside_extraction(tree: ast.Module) -> list[int]:
    # Lines that reach a numpy float sum (an array's .sum(), np.sum, a name
    # imported from numpy, or add.reduce and its kin) outside
    # summation._exact_units.  There the extraction lemma and the
    # exponent-spread bound prove every such sum exact; anywhere else a
    # float sum would round before the one int division.  The builtin sum
    # of ints is exact and not flagged.
    allowed = {id(node)
               for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "_exact_units"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and (
                node.attr in FLOAT_SUMS
                or node.attr in ADD_SUMS and _is_add(node.value)):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name in FLOAT_SUMS for alias in node.names)):
            found.append(node.lineno)
    return sorted(found)


def test_float_sums_in_summation_only_inside_the_extraction():
    lines = _float_sums_outside_extraction(TREES["summation.py"])
    assert not lines, f"summation.py: float sum outside _exact_units at {lines}"


def test_float_sum_check_flags_sums_outside_the_extraction():
    source = (
        "import numpy as np\n"
        "from numpy import sum as npsum\n"
        "from numpy import add, maximum\n"
        "def _exact_units(x, work):\n"
        "    return int(x.sum()) + int(np.sum(x)) + sum([1, 2])\n"
        "def _chunked_sum(x):\n"
        "    total = x.sum() + np.sum(x)\n"
        "    return total + np.cumsum(x)[-1] + sum(map(int, x))\n"
        "def _exact_units_too(x):\n"
        "    first = np.add.reduce(x) + add.reduceat(x, [0])[0]\n"
        "    last = np.add.accumulate(x)[-1] + np.maximum.reduce(x)\n"
        "    return first + last + maximum.accumulate(x)[-1] + np.add(x, x)\n"
        "def _exact_units(x):\n"
        "    return np.add.reduce(x) + add.accumulate(x)[-1]\n")
    assert _float_sums_outside_extraction(ast.parse(source)) == \
        [2, 7, 7, 8, 10, 10, 11]

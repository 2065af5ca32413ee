"""Every name a package module imports is used in that module, no
package module reaches another's private (``_``-prefixed) names, every
name the package exports is the object its module defines, every
defaulted parameter is set by some caller in the package or the
benchmark, and importing the package loads no SciPy subpackage but
``scipy.linalg``.

Read from the source with the standard library's ``ast``: a name bound
by an import counts as used when it appears as a name anywhere else in
the module, annotations included.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import regretsynth as rs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regretsynth"

# (module, name) pairs kept on purpose: cli.hinf_norm is a module-level
# binding that the benchmark's tracer replaces and checks
KEPT = {("cli", "hinf_norm")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _private(name: str) -> bool:
    """``_``-prefixed and not a dunder name such as ``__version__``."""
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str, modules=frozenset()) -> list[str]:
    """``_``-prefixed names imported from sibling package modules (relative
    imports), and read as attributes of a sibling module that a relative
    import binds (``from . import io as rio`` then ``rio._x``).
    ``modules`` names the package's modules."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [alias.name for alias in node.names if _private(alias.name)]
            if node.module is None:
                bound |= {alias.asname or alias.name for alias in node.names
                          if alias.name in modules}
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and _private(node.attr)]
    return sorted(found)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.linalg\nimport os\n"
              "from .a import b, c\n"
              "def f(x: c) -> None:\n    return np.zeros(x) + scipy.linalg.norm(x)\n")
    assert unused_imports(source) == ["b", "os"]


def test_package_modules_use_every_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public API
            continue
        for name in unused_imports(path.read_text()):
            if (path.stem, name) not in KEPT:
                found.append(f"{path.stem}: {name}")
    assert not found, "unused imports: " + ", ".join(found)


def test_detector_finds_private_names():
    source = ("from .a import b, _c\nfrom . import __version__, _d\n"
              "from numpy import _e\nimport _f\n"
              "from . import io as rio, errors\nimport numpy as np\n"
              "rio._g(np._h, errors._i, errors.__name__, rio.j)\n")
    assert private_imports(source, {"io", "errors"}) == [
        "_c", "_d", "errors._i", "rio._g"]


def test_package_modules_import_no_private_names():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(), modules)]
    assert not found, "private names imported across modules: " + ", ".join(found)


def test_package_exports_the_objects_its_modules_define():
    # import every module first: importing a submodule binds its name on
    # the package, over any export of the same name
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    for name in modules:
        importlib.import_module(f"regretsynth.{name}")
    wrong = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if node.module is None:
                want = importlib.import_module(f"regretsynth.{alias.name}")
            else:
                want = getattr(importlib.import_module(f"regretsynth.{node.module}"),
                               alias.name)
            if getattr(rs, alias.asname or alias.name) is not want:
                wrong.append(alias.asname or alias.name)
    assert not wrong, "exports rebound on the package: " + ", ".join(wrong)


# defaulted parameters kept on purpose: the command line's entry point
# reads sys.argv unless a caller passes argv
KEPT_DEFAULTS = {"cli.main(argv)"}


def _defaulted(tree):
    """(class or None, function, parameter, positional index or None) of
    every defaulted parameter, nested functions included.  The index
    counts the arguments a call passes, so a method's ``self`` or
    ``cls`` is not counted."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                first = len(positional) - len(args.defaults)
                out.extend((cls, node.name, positional[i].arg, i - skip)
                           for i in range(first, len(positional)))
                out.extend((cls, node.name, arg.arg, None)
                           for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return out


def _sets(call: ast.Call, name: str, index) -> bool:
    """Whether a call sets the parameter ``name`` at positional ``index``:
    by keyword, by ``**``, by a positional argument at the index, or by
    a starred one at or before it."""
    for k, arg in enumerate(call.args):
        if index is not None and (k == index or isinstance(arg, ast.Starred)
                                  and k <= index):
            return True
    return any(kw.arg is None or kw.arg == name for kw in call.keywords)


def unset_defaults(package: dict, callers) -> list[str]:
    """``module.[Class.]function(parameter)`` for every defaulted parameter
    of the ``package`` sources (module name -> source) that no call in
    the ``callers`` sources sets.  Calls match by the called name, so
    ``f(...)`` and ``obj.f(...)`` both count for every function ``f``,
    a call of a class counts for its ``__init__``, and a call whose first
    argument names a function counts as a call of it with the rest of
    the arguments, as a wrapper that forwards them makes."""
    calls = {}

    def add(func, call):
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        calls.setdefault(name, []).append(call)

    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                add(node.func, node)
                if node.args and isinstance(node.args[0], (ast.Name, ast.Attribute)):
                    # ops(f, *args, **kwargs) forwards the rest of its call to f
                    add(node.args[0], ast.Call(node.args[0], node.args[1:],
                                               node.keywords))
    found = []
    for module, source in package.items():
        for cls, func, param, index in _defaulted(ast.parse(source)):
            called = cls if func == "__init__" else func
            if not any(_sets(call, param, index) for call in calls.get(called, ())):
                found.append(f"{module}.{cls + '.' if cls else ''}{func}({param})")
    return sorted(found)


def test_detector_finds_unset_defaults():
    package = {"m": "def f(a, b=1, *, c=2):\n    pass\n"
                    "class K:\n"
                    "    def __init__(self, x=0):\n        pass\n"
                    "    def g(self, y=0, z=0):\n        pass\n"
                    "    @staticmethod\n    def s(w=0):\n        pass\n"
                    "def h(p, q=0, r=0):\n"
                    "    def inner(t=0):\n        pass\n"
                    "def k(u=0):\n    pass\n"}
    callers = ["f(1, c=3)\nK()\nobj.g(1)\nK.s(5)\nrun(h, 0, *rest)\nk(**opts)\n"]
    assert unset_defaults(package, callers) == [
        "m.K.__init__(x)", "m.K.g(z)", "m.f(b)", "m.inner(t)"]


def test_every_default_is_set_by_a_caller():
    """A setting that no call in the package or the benchmark varies is a
    module constant, not a parameter; tests do not count as callers."""
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))
             if not path.name.startswith("test_")]
    found = [name for name in unset_defaults(package, [*package.values(), *bench])
             if name not in KEPT_DEFAULTS]
    assert not found, "defaults no caller sets: " + ", ".join(found)


# what a package module may import at module scope, besides the standard
# library and the package itself: the rest of SciPy costs memory and
# start-up time in every run, and is imported by the function that uses it
MODULE_SCOPE = {"numpy", "scipy.linalg", "scipy.linalg.lapack"}


def disallowed_imports(source: str) -> list[str]:
    """The absolute modules a source imports when it is imported (at
    module scope and in class bodies, not inside functions) that are
    neither in the standard library, nor the package, nor in
    ``MODULE_SCOPE``."""
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return sorted(name for name in found
                  if name.split(".")[0] not in {*sys.stdlib_module_names, "regretsynth"}
                  and name not in MODULE_SCOPE)


def test_detector_finds_module_scope_imports():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nimport scipy.linalg\nimport scipy.optimize\n"
              "from scipy.linalg.lapack import ztrtrs\nfrom scipy import sparse\n"
              "from . import io\nfrom .a import b\nfrom regretsynth import c\n"
              "try:\n    import yaml\nexcept ImportError:\n    pass\n"
              "class K:\n    import scipy.special\n"
              "    def f(self):\n        import scipy.spatial\n"
              "def g():\n    import scipy.fft\n")
    assert disallowed_imports(source) == ["scipy", "scipy.optimize", "scipy.special",
                                          "yaml"]


def test_package_modules_import_only_numpy_and_scipy_linalg_at_module_scope():
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in disallowed_imports(path.read_text())]
    assert not found, "module-scope imports beyond numpy and scipy.linalg: " + \
        ", ".join(found)


# checked in a fresh interpreter: other tests load scipy.optimize in this one
_HEAVY_IN_CHILD = """
import sys
import regretsynth as rs
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special")
unc = rs.build_example("siso")
P = unc.nominal()
K0 = rs.build_noncausal(P)
gamma, res = rs.optimize_special(P, "hinf", 1e-1, 1e-1, K0=K0)
level = rs.RegretLevel.hinf(2.0 * gamma)
rs.verify_regret(res.controller, P, level, n_trials=4, K0=K0)
rs.verify_robust_regret(res.controller, unc, level, n_delta=2, n_dist=2, K0=K0)
print(sorted(name for name in HEAVY if name in sys.modules))
rs.fit_dscale([(0.5, 1.0), (1.0, 2.0)])
print("scipy.optimize" in sys.modules)
"""


def test_scipy_optimize_is_loaded_only_by_a_dscale_fit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _HEAVY_IN_CHILD], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "True"]

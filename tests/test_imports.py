"""Every name a package module imports is used in that module, and no
package module imports another's private (``_``-prefixed) names.

Read from the source with the standard library's ``ast``: a name bound
by an import counts as used when it appears as a name anywhere else in
the module, annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regretsynth"

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


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from sibling package modules (relative
    imports); dunder names such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
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
              "from numpy import _e\nimport _f\n")
    assert private_imports(source) == ["_c", "_d"]


def test_package_modules_import_no_private_names():
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text())]
    assert not found, "private names imported across modules: " + ", ".join(found)

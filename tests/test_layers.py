"""The package's layers import only downward: each module's module-level
`from .x import` set is pinned, so a layer that grows an upward import fails here.

Imports made inside a function (`ff` reaches `factor` and `polyring` that way
to search a default modulus) are not module-level and are not pinned.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpfq"

LAYERS = {
    "intarith": set(),
    "errors": set(),
    "numeric": {"errors"},
    "ff": {"errors", "intarith"},
    "polyring": {"errors", "ff"},
    "factor": {"errors", "ff", "intarith", "polyring"},
    "progfree": {"errors", "factor", "polyring"},
    "density": {"errors", "intarith", "numeric"},
    "tables": {"density", "numeric"},
}


def _package_imports(name):
    """Modules of this package that `name` imports at module level."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .x import y` names module x; `from . import x, y` names x and y
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_every_layer_is_pinned():
    # a new module gets a row here; only the front end and the package root import freely
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"cli", "__init__"}
    assert modules == set(LAYERS)


def test_layer_imports_are_pinned():
    assert {name: _package_imports(name) for name in LAYERS} == LAYERS

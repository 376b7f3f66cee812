"""The benchmark harness under perfbench/ imports names from the package; each must resolve."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gpfq_imports():
    """(file, module, name) for every `from gpfq... import name` (name None for `import gpfq...`)."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "gpfq":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "gpfq"]
    return found


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # `from gpfq import ff` names a submodule
    except ImportError:
        return False
    return True


def test_perfbench_gpfq_imports_resolve():
    # deleting or renaming a name the harness times breaks every traced or per-layer run
    imports = _gpfq_imports()
    assert {"layers.py", "traced_cli.py"} <= {file for file, _, _ in imports}
    missing = [(file, module, name) for file, module, name in imports if not _resolves(module, name)]
    assert missing == []

"""Every confidec module imports on its own, whatever was imported before it,
and reads every name it imports.

A package's `__init__` imports nothing, so no import order is fixed for a
caller; a cycle between two modules shows up here as the module whose import
fails.
"""

import ast
import subprocess
import sys
from pathlib import Path

import confidec
from conftest import child_env

_IMPORT_EACH = """
import importlib, pkgutil, sys
import confidec

names = [info.name for info in pkgutil.walk_packages(confidec.__path__, "confidec.")]
for name in names:
    for loaded in [m for m in sys.modules if m == "confidec" or m.startswith("confidec.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        sys.exit(f"importing {name} alone failed: {type(exc).__name__}: {exc}")
print("\\n".join(names))
"""


def test_each_module_imports_alone():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH], capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0, out.stderr[-2000:]
    # every source file but the top package's own `__init__` was imported
    assert len(out.stdout.split()) == len(list(Path(confidec.__file__).parent.rglob("*.py"))) - 1


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; an import on a `# noqa` line is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa" not in lines[alias.lineno - 1]
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    """Over the package and its tests."""
    roots = (Path(confidec.__file__).parent, Path(__file__).parent)
    unused = [
        f"{path.name}: {name}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for name in _unused_imports(path)
    ]
    assert unused == []

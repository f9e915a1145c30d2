"""Every confidec module imports on its own, whatever was imported before it.

A package's `__init__` imports nothing, so no import order is fixed for a
caller; a cycle between two modules shows up here as the module whose import
fails.
"""

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

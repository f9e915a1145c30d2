"""The benchmark's span tracer finds every function it wraps.

`perfbench/tracer.py` patches module and class attributes by name, so a
rename under src/ breaks `perfbench/run.py --trace 1` without failing any
other test.
"""

import importlib.util
from pathlib import Path

from confidec.enclave.ccu import Ccu

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracer()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in targets
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_the_root_span_wraps_ccu_handle():
    assert callable(getattr(Ccu, "handle", None))

"""The benchmark's tracer wraps germlab functions by name; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads the file; defines names only
    assert tracing.TRACED
    missing = [(mod, fn) for mod, fn in tracing.TRACED
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert not missing, missing

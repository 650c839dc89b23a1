"""The benchmark's tracer wraps germlab functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from germlab import _kernel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads the file; defines names only
    assert tracing.TRACED
    missing = [(mod, fn) for mod, fn in tracing.TRACED
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert not missing, missing


def test_kernel_boundary_keeps_its_signature():
    # the tracer wraps _kernel.std_basis by attribute, outside TRACED, and
    # calls it as fn(gens, local, trunc); it counts the terms of the dicts
    params = inspect.signature(_kernel.std_basis).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("gens", inspect.Parameter.empty), ("local", inspect.Parameter.empty), ("trunc", 0)]
    gens = [{(2, 0): 1, (0, 3): -1}, {(1, 1): 1}]
    for args in ((gens, True), (gens, True, 8), (gens, False)):
        out = _kernel.std_basis(*args)
        assert type(out) is list and out
        assert all(type(g) is dict and all(type(e) is tuple for e in g) for g in out)

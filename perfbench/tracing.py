"""Per-layer spans around germlab's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
germlab module namespace that bound it at import time (``from .ideals import
colength`` in germs and milnor, for instance), so calls made inside the
program are seen too; nothing under src/ is edited.  The kernel is wrapped
only on `germlab._kernel`, the attribute `ideals` calls through, so the
kernel's internal calls stay inside its span.

Layer names are module names.  The kernel's layer is reported as `kernel`
rather than `_kernel` because metric names must start with a letter.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs whose calls become spans.
TRACED = [
    ("germlab.ideals", "standard_basis"),
    ("germlab.ideals", "colength"),
    ("germlab.ideals", "local_dimension"),
    ("germlab.ideals", "minors"),
    ("germlab.ideals", "contains_one"),
    ("germlab.ideals", "affine_is_smooth"),
    ("germlab.poly", "divided_differences"),
    ("germlab.poly", "eliminate_linear"),
    ("germlab.germs", "build_Dk"),
    ("germlab.germs", "marar_mond_check"),
    ("germlab.milnor", "milnor_icis"),
    ("germlab.realtopo", "classify_real_space"),
    ("germlab.analyzer", "analyze"),
    ("germlab.analyzer", "witness_check"),
    ("germlab.simplicial", "validate_or_subdivide"),
    ("germlab.homology", "homology"),
    ("germlab.homology", "alternating_homology"),
    ("germlab.homology", "chi_alt_fixed_point_formula"),
    ("germlab.linalg", "rank_q"),
    ("germlab.linalg", "smith_normal_form"),
    ("germlab.linalg", "rank_mod"),
    ("germlab.smith", "verify_floyd"),
    ("germlab.smith", "verify_equivariant_smith"),
    ("germlab.smith", "smith_special_ranks"),
]

# The kernel implementations keep their own names, so that calls inside the
# kernel are not split into spans.
KERNEL_MODULES = {"germlab._kernel", "germlab._purekernel", "germlab._speedups"}

KERNEL = "kernel.std_basis"


def _entries(mat) -> int:
    return len(mat) * len(mat[0]) if mat else 0


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, request, name, start, end)
        self.request = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # open spans: [id, start, child time, kernel calls]
        self._opened = 0

    # -- spans -----------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        sid = self._opened
        self._opened += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, perf_counter(), 0.0, 0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs), frame
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((sid, parent, self.request, name, frame[1], end))

    def _wrap(self, layer: str, fn):
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            out, frame = self._span(layer, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, out, frame)
            return out

        return traced

    def _wrap_kernel(self, fn):
        def traced(gens, local, trunc=0):
            for frame in self._stack:
                frame[3] += 1
            name = f"{KERNEL}.{'local' if local else 'global'}"
            out, _ = self._span(name, fn, (gens, local, trunc), {})
            if trunc:
                self.counts[f"{KERNEL}.trunc_calls"] += 1
            self.counts[f"{KERNEL}.basis_terms"] += sum(len(g) for g in out)
            return out

        return traced

    # -- counts measured at the boundaries ------------------------------------

    def _observe_ideals_standard_basis(self, args, kwargs, out, frame):
        if frame[3] == 0:
            self.counts["ideals.standard_basis.hits"] += 1

    def _observe_ideals_colength(self, args, kwargs, out, frame):
        self.counts["ideals.colength.kernel_calls"] += frame[3]

    def _observe_linalg_rank_q(self, args, kwargs, out, frame):
        self.counts["linalg.rank_q.entries"] += _entries(args[0])

    def _observe_linalg_smith_normal_form(self, args, kwargs, out, frame):
        self.counts["linalg.smith_normal_form.entries"] += _entries(args[0])

    def _observe_simplicial_validate_or_subdivide(self, args, kwargs, out, frame):
        self.counts["simplicial.cells"] += sum(len(s) for s in out.simplices().values())

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        kernel = importlib.import_module("germlab._kernel")
        kernel.std_basis = self._wrap_kernel(kernel.std_basis)
        for mod_name, _ in TRACED:
            importlib.import_module(mod_name)
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("germlab.") and name not in KERNEL_MODULES]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            layer = f"{mod_name.split('.')[-1]}.{fn_name}"
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- results -------------------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same requests."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: calls, self time, counts and ratios."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        sb = self.calls["ideals.standard_basis"]
        out["ideals.standard_basis.hit_ratio"] = (
            self.counts["ideals.standard_basis.hits"] / sb if sb else 0.0)
        cl = self.calls["ideals.colength"]
        out["ideals.colength.kernel_calls_per_call"] = (
            self.counts["ideals.colength.kernel_calls"] / cl if cl else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": start, "end": end}) + "\n")

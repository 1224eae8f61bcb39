"""Per-layer tracing of cupone from outside the package.

The tracer wraps public functions of the cupone modules after import.
Coarse entry points get spans; a span's metric `<name>.s` is its self
time, the span's duration minus the time covered by spans opened inside
it, so the `.s` metrics of one task add up to the traced part of that
task and recursive calls are not counted twice.  Hot inner functions get
a call count `<name>.calls` only.

The modules import names directly (`from .algebra import word_multiply`),
so each wrapper replaces the original in every cupone module that holds
it; methods are replaced on their class.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric prefix, span?, count calls?)
FUNCTIONS = (
    ("cupone.cli", "parse_input", "cli.parse_input", True, False),
    ("cupone.cli", "run_command", "cli.run_command", True, False),
    ("cupone.cli", "render_machine", "cli.render", True, False),
    ("cupone.cli", "render_text", "cli.render", True, False),
    ("cupone.permutohedron", "enumerate_faces", "permutohedron.enumerate_faces", True, False),
    ("cupone.permutohedron", "face_boundary", "permutohedron.face_boundary", True, True),
    ("cupone.permutohedron", "boundary_matrices", "permutohedron.boundary_matrices", True, False),
    ("cupone.permutohedron", "complex_description", "permutohedron.complex_description", True, False),
    ("cupone.algebra", "extend_derivation", "algebra.extend_derivation", True, True),
    ("cupone.algebra", "word_multiply", "algebra.word_multiply", False, True),
    ("cupone.cup1", "cup1_boundary", "cup1.cup1_boundary", True, True),
    ("cupone.linalg", "homology", "linalg.homology", True, False),
    ("cupone.linalg", "homology_at", "linalg.homology_at", True, True),
    ("cupone.linalg", "invariant_factors", "linalg.invariant_factors", True, True),
    ("cupone.linalg", "smith_normal_form", "linalg.smith_normal_form", True, True),
    ("cupone.resolution", "build_resolution", "resolution.build_resolution", True, False),
    ("cupone.resolution", "certify_resolution", "resolution.certify_resolution", True, False),
    ("cupone.dga", "tensor_dga", "dga.tensor_dga", True, False),
    ("cupone.dga", "free_truncated_dga", "dga.free_truncated_dga", True, False),
    ("cupone.twisting", "build_DX", "twisting.build_DX", True, False),
    ("cupone.twisting", "is_twisting", "twisting.is_twisting", True, False),
    ("cupone.twisting", "gauge_act", "twisting.gauge_act", True, False),
    ("cupone.twisting", "gauge_equivalent", "twisting.gauge_equivalent", True, False),
)

# (module, class, method, metric prefix, span?, count calls?)
METHODS = (
    ("cupone.linalg", "IntMatrix", "mul", "linalg.IntMatrix.mul", True, False),
    ("cupone.dga", "BigradedDGA", "__init__", "dga.BigradedDGA", True, False),
    ("cupone.dga", "DgaElement", "__mul__", "dga.DgaElement.mul", False, True),
)

# Metrics taken from arguments and results rather than from the clock.
DATA_METRICS = (
    "linalg.matrix_entries",
    "linalg.matrix_nnz",
    "dga.basis_size",
    "dga.structure_constants",
    "twisting.orbit_nodes",
)


def metric_names():
    """Every metric a traced task can report, in a stable order."""
    names = []
    for *_, prefix, span, count in FUNCTIONS + METHODS:
        for suffix, on in ((".s", span), (".calls", count)):
            if on and prefix + suffix not in names:
                names.append(prefix + suffix)
    return names + list(DATA_METRICS)


class Tracer:
    """Self times, call counts and data counts of one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # time covered by child spans, one slot per open span

    def span(self, name, fn, count):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if count:
                self.counts[calls] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name + ".s"] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed

        return wrapper

    def counter(self, name, fn):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observe(self, fn, before=None, after=None):
        """Wrap `fn` so `before(args)` and `after(args, result)` record data.

        The hooks' own time counts as covered time of the enclosing span,
        so it is left out of every self time."""
        def hook(record, *hook_args):
            start = time.perf_counter()
            record(*hook_args)
            if self._open:
                self._open[-1] += time.perf_counter() - start

        def wrapper(*args, **kwargs):
            if before:
                hook(before, args)
            result = fn(*args, **kwargs)
            if after:
                hook(after, args, result)
            return result

        return wrapper

    # -- data counts ----------------------------------------------------------

    def _matrix_shape(self, args):
        m = args[0]
        rows = m.entries if hasattr(m, "entries") else m
        width = m.cols if hasattr(m, "cols") else (len(rows[0]) if rows else 0)
        self.counts["linalg.matrix_entries"] += len(rows) * width
        self.counts["linalg.matrix_nnz"] += sum(1 for row in rows for v in row if v)

    def _dga_size(self, args, _result):
        dga = args[0]
        self.counts["dga.basis_size"] += len(dga.bidegrees)
        self.counts["dga.structure_constants"] += sum(len(t) for t in dga.products.values()) + sum(
            len(t) for t in dga.diff.values()
        )

    def _orbit_nodes(self, _args, verdict):
        self.counts["twisting.orbit_nodes"] += verdict.nodes_used

    # -- installation ---------------------------------------------------------

    def _wrap(self, prefix, fn, span, count):
        wrapped = self.span(prefix, fn, count) if span else self.counter(prefix, fn)
        if prefix in ("linalg.invariant_factors", "linalg.smith_normal_form"):
            wrapped = self.observe(wrapped, before=self._matrix_shape)
        elif prefix == "twisting.gauge_equivalent":
            wrapped = self.observe(wrapped, after=self._orbit_nodes)
        elif prefix == "dga.BigradedDGA":
            wrapped = self.observe(wrapped, after=self._dga_size)
        return wrapped

    def install(self):
        """Replace the traced functions in every loaded cupone module."""
        modules = [m for name, m in sys.modules.items() if name == "cupone" or name.startswith("cupone.")]
        for module_name, attr, prefix, span, count in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(prefix, original, span, count)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapped)
        for module_name, cls_name, attr, prefix, span, count in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, attr, self._wrap(prefix, cls.__dict__[attr], span, count))

    def metrics(self):
        """All metrics of `metric_names()`, zero for layers not reached."""
        values = {**self.self_s, **self.counts}
        return {name: values.get(name, 0) for name in metric_names()}

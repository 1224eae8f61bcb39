"""The benchmark's tracer (bench/tracer.py) wraps cupone functions and
methods by name from outside the package.  These tests check that every
name it wraps still exists where it looks, without installing the
tracer, which would patch cupone for the whole test process."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("cupone_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_traced_methods_are_in_their_own_class_dict():
    tracer = load_tracer()
    missing = [
        f"{module}.{cls}.{attr}"
        for module, cls, attr, *_ in tracer.METHODS
        if not callable(vars(getattr(importlib.import_module(module), cls)).get(attr))
    ]
    assert not missing


def test_matrix_counts_read_the_sparse_carrier():
    from cupone.linalg import IntMatrix

    tracer = load_tracer().Tracer()
    m = IntMatrix.from_columns(["x", "y", "z"], [[("x", 1), ("z", -2)], [], [("y", 3), ("y", -3)], [("z", 5)]])
    tracer._matrix_shape((m,))
    stored = sum(len(row) for row in m.sparse_rows.values())
    assert stored == 3
    assert tracer.counts["linalg.matrix_entries"] == 3 * 4
    assert tracer.counts["linalg.matrix_nnz"] == stored


def test_dga_size_counts_the_stored_tables():
    from cupone.dga import simplicial_cochain_dga

    dga = simplicial_cochain_dga([[0, 1, 2], [2, 3]])
    tracer = load_tracer().Tracer()
    tracer._dga_size((dga,), None)
    constants = sum(len(t) for row in dga.rows.values() for t in row.values()) + sum(map(len, dga.diff.values()))
    assert constants > 0
    assert tracer.counts["dga.structure_constants"] == constants
    assert tracer.counts["dga.basis_size"] == len(dga.bidegrees)

"""The benchmark's tracer (bench/tracer.py) wraps cupone functions and
methods by name from outside the package.  These tests check that every
name it wraps still exists where it looks, without installing the
tracer, which would patch cupone for the whole test process.  The last
one replays the benchmark's own correctness gate: every task of every
workload runs once in this process and must match bench/expected.json."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACER_PATH = BENCH / "tracer.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return _load(TRACER_PATH, "cupone_bench_tracer")


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
    from cupone.cli import parse_input
    from cupone.dga import simplicial_cochain_dga, tensor_dga, two_stage_hom_dga
    from cupone.linalg import FGAbelianGroup

    cochains = simplicial_cochain_dga([[0, 1, 2], [2, 3]])
    tensor = tensor_dga(cochains, two_stage_hom_dga([FGAbelianGroup(1), FGAbelianGroup.from_divisors([2])]))
    # the document lists x·x as zero, which the dga does not store
    document = {"dgas": {"E": {
        "basis": [["1", 0, 0], ["x", 1, -1], ["y", 2, -1]], "differential": {"x": [[2, "y"]], "y": []},
        "products": [["1", "1", [[1, "1"]]], ["1", "x", [[1, "x"]]], ["x", "1", [[1, "x"]]],
                     ["1", "y", [[1, "y"]]], ["y", "1", [[1, "y"]]], ["x", "x", []]],
        "unit": [[1, "1"]],
    }}}
    loaded = parse_input(json.dumps(document)).dgas["E"]
    for dga in (cochains, tensor, loaded):
        tracer = load_tracer().Tracer()
        tracer._dga_size((dga,), None)
        constants = sum(len(t) for row in dga.rows.values() for t in row.values()) + sum(map(len, dga.diff.values()))
        assert constants > 0
        assert tracer.counts["dga.structure_constants"] == constants
        assert tracer.counts["dga.basis_size"] == len(dga.bidegrees)


def _bench_gate():
    """bench/run.py and bench/task.py as modules; run.py puts bench/ on
    sys.path to import its tracer, and that is undone here."""
    path = list(sys.path)
    try:
        return _load(BENCH / "run.py", "cupone_bench_run"), _load(BENCH / "task.py", "cupone_bench_task")
    finally:
        sys.path[:] = path


@pytest.mark.parametrize("workload", ["pn6_certify", "dga_gauge"])
def test_every_bench_task_passes_the_bench_check(monkeypatch, capsys, workload):
    run, task = _bench_gate()
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(ROOT)  # the tasks name their documents from the repository root
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_cupone prepends src/
    cupone = task.load_cupone()
    failed = []
    for task_id, spec in run.task_list(workload, 1):
        call, summarize = task.prepare(cupone, spec)
        record = {"error": None, "result": summarize(call())}
        if not run.check(record, expected.get(task_id)):
            failed.append((task_id, record["result"]))
    capsys.readouterr()
    assert not failed

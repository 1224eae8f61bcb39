"""Self-tests of the benchmark; run with `python3 -m pytest bench/tests -q`.

They pin the exact-count layer metrics on small inputs and show that a
result check can fail.  Tier-1 (`pytest` at the root) does not collect
them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

CIRCLE_DX = ["--input", "bench/data/spaces.json", "--command", "d-x", "--space", "circle",
             "--homology", "Z,Z/2", "--format", "machine"]

# Every count metric of the tracer, pinned; layers a task does not reach are 0.
P4_COUNTS = {
    "permutohedron.face_boundary.calls": 51,
    "algebra.extend_derivation.calls": 51,
    "algebra.word_multiply.calls": 162,
    "cup1.cup1_boundary.calls": 191,
    "linalg.invariant_factors.calls": 3,
    "linalg.matrix_entries": 1382,
    "linalg.matrix_nnz": 158,
}
CERTIFY_3GEN_M6_COUNTS = {
    "algebra.extend_derivation.calls": 46,
    "algebra.word_multiply.calls": 96,
    "cup1.cup1_boundary.calls": 51,
    "linalg.homology_at.calls": 12,
    "linalg.invariant_factors.calls": 16,
    "linalg.matrix_entries": 180,
    "linalg.matrix_nnz": 86,
}
CIRCLE_DX_COUNTS = {
    "dga.DgaElement.mul.calls": 487498,
    "dga.basis_size": 69,
    "dga.structure_constants": 381,
}


def run_task(spec, trace=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "task.py"), "--spec", json.dumps(spec), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(reply):
    return {name: value for name, value in reply["layers"].items() if not name.endswith(".s")}


def expect_counts(pinned, reply):
    every = dict.fromkeys(counts(reply), 0)
    every.update(pinned)
    return every


@pytest.fixture
def small_certify_doc(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"cgas": {"g3": {"generators": {"a": 2, "b": 2, "c": 2}, "m": 6}}}))
    return str(path)


@pytest.mark.parametrize("case", ["p4", "certify", "circle"])
def test_exact_counts_are_pinned_and_repeat(case, small_certify_doc):
    spec, pinned = {
        "p4": ({"kind": "homology", "n": 4}, P4_COUNTS),
        "certify": ({"kind": "cli", "argv": ["--input", small_certify_doc, "--command", "certify",
                                             "--cga", "g3", "--format", "machine"]}, CERTIFY_3GEN_M6_COUNTS),
        "circle": ({"kind": "cli", "argv": CIRCLE_DX}, CIRCLE_DX_COUNTS),
    }[case]
    first, second = run_task(spec), run_task(spec)
    assert first["error"] is None
    assert counts(first) == expect_counts(pinned, first)
    assert counts(second) == counts(first)


def test_untraced_task_reports_no_layers():
    reply = run_task({"kind": "homology", "n": 3}, trace=0)
    assert reply["result"] == {"homology": ["Z", "0", "0"]}
    assert "layers" not in reply and reply["task_s"] > 0 and reply["peak_rss_kb"] > 0


def copy_bench(to):
    shutil.copytree(BENCH, to / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", to)


def run_bench(cwd, workload):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_wrong_expected_value_counts_as_failed(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    recorded = tmp_path / "bench" / "expected.json"
    expected = json.loads(recorded.read_text())
    expected["certify_cold/deg2426_m10"]["degrees_sha256"] = "0" * 64
    recorded.write_text(json.dumps(expected))
    proc = run_bench(tmp_path, "pn6_certify")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] % 7 == 0 and result["failed"] == result["attempted"] // 7
    assert "# FAILED certify_cold/deg2426_m10" in proc.stdout
    frac = [line for line in proc.stdout.splitlines() if line.startswith("# failed_frac")]
    assert frac and float(frac[0].split()[2]) == pytest.approx(1 / 7)


def test_refuses_to_run_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(tmp_path, "pn6_certify")
    assert proc.returncode != 0
    assert proc.stdout == ""

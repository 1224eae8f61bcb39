"""Run one benchmark task in this fresh interpreter and print one JSON line.

    python3 bench/task.py --spec '{"kind": "homology", "n": 6}' --trace 0

The parent (`bench/run.py`) starts one of these per task, the way a
`cupone` CLI call starts, so process-global caches start cold and the
process's peak RSS belongs to this task alone.  The line printed holds

- `first_call`: `time.monotonic()` when the task call starts; the parent
  subtracts its spawn time to get the set-up time;
- `task_s`: the task call's duration;
- `result`: a summary the parent checks against recorded values;
- `error`: the exception text if the task raised, else null;
- `peak_rss_kb`: this process's peak resident set (VmHWM);
- `layers`: with `--trace 1`, the tracer's per-layer metrics.

Task kinds:
- `homology` {n}: `cellular_homology(n)` of the permutohedron;
- `cli` {argv}: `cupone.cli.main(argv)` with its output captured;
- `gauge` {seed, queries}: builds the free truncated dga of the twisting
  tests and recovers planted gauge witnesses on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The 84-element dga of tests/test_twisting.py: diagonal_free_dga(max_r=5).
GAUGE_GENERATORS = [("u1", 1, -1), ("u2", 2, -2), ("x2", 2, -1), ("y2", 2, -1), ("x3", 3, -2)]
GAUGE_DIFFERENTIAL = {"u1": [(1, ("y2",))]}
GAUGE_MAX_R = 5
GAUGE_TRUNCATION = 4
GAUGE_BUDGET = 500


def load_cupone():
    """Import cupone from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import cupone  # noqa: F401
    import cupone.cli
    import cupone.dga
    import cupone.permutohedron
    import cupone.twisting

    where = Path(cupone.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"cupone was imported from {where}, not from {SRC}")
    return cupone


def peak_rss_kb():
    """VmHWM, the peak RSS of this process's own address space.

    getrusage's ru_maxrss would also carry the peak of the parent whose
    address space this process ran in before exec (vfork, posix_spawn),
    which hides tasks smaller than the parent."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def summarize_cli(code, out):
    summary = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    try:
        report = json.loads(out)
    except ValueError:
        return summary
    for key in ("verdict", "components", "zero_element_twisting"):
        if key in report:
            summary[key] = report[key]
    if "degrees" in report:
        table = json.dumps(report["degrees"], sort_keys=True)
        summary["degrees_sha256"] = hashlib.sha256(table.encode("utf-8")).hexdigest()
    return summary


def gauge_queries(cupone, rng, queries):
    """Plant p with b = a∗p and recover a witness for (a, b), `queries` times."""
    dga, twisting = cupone.dga, cupone.twisting
    F = dga.free_truncated_dga(GAUGE_GENERATORS, GAUGE_DIFFERENTIAL, GAUGE_MAX_R)
    N = GAUGE_TRUNCATION

    def draw():
        return twisting.GaugeElement(
            F, N, {r: {label: rng.choice((-2, -1, 1, 2)) for label in F.basis_of(r, -r)} for r in range(1, N)}
        )

    zero = twisting.TwistingElement.zero(F, N)
    verified = 0
    for _ in range(queries):
        a = twisting.gauge_act(zero, draw())
        b = twisting.gauge_act(a, draw())
        verdict = twisting.gauge_equivalent(a, b, budget=GAUGE_BUDGET)
        if (
            twisting.is_twisting(a).ok
            and twisting.is_twisting(b).ok
            and verdict.status == "witness"
            and twisting.gauge_act(a, verdict.witness) == b
        ):
            verified += 1
    return {"basis_size": len(F.bidegrees), "queries": queries, "verified": verified}


def prepare(cupone, spec):
    """Build the task's inputs; returns (call, summarize) for the timed part."""
    kind = spec["kind"]
    if kind == "homology":
        n = int(spec["n"])
        return (lambda: cupone.permutohedron.cellular_homology(n)), (
            lambda groups: {"homology": [str(g) for g in groups]}
        )
    if kind == "cli":
        argv = [str(a) for a in spec["argv"]]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cupone.cli.main(argv)
            return code, buf.getvalue()

        return call, (lambda outcome: summarize_cli(*outcome))
    if kind == "gauge":
        rng = random.Random(int(spec["seed"]))
        queries = int(spec["queries"])
        return (lambda: gauge_queries(cupone, rng, queries)), (lambda summary: summary)
    raise ValueError(f"unknown task kind {kind!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="task as a JSON object")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cupone = load_cupone()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    call, summarize = prepare(cupone, json.loads(args.spec))

    out = {"first_call": time.monotonic(), "task_s": None, "result": None, "error": None}
    start = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # the parent counts it as a failed task
        out["task_s"] = time.perf_counter() - start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        out["error"] = f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"
    else:
        out["task_s"] = time.perf_counter() - start
        out["result"] = summarize(value)
    out["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        out["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

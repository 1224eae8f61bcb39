"""Closed-loop benchmark of cupone: one client, one task at a time.

    python3 bench/run.py --workload pn6_certify --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each task runs in a fresh interpreter (`bench/task.py`), as a `cupone`
CLI call does.  The workload's task list runs in rounds, in an order the
seed shuffles: first the workload's fixed number of rounds
(`TIMED_ROUNDS`), then more while the next is expected to end within
`--seconds`.  The time metrics come from those first rounds only, so
their sample count does not depend on how fast the program is.
Every task's result is checked against `bench/expected.json`, recorded
from the seed implementation; a failed check or a raised exception makes
the task count as failed and the run goes on.

With `--trace 0` the last line of output holds the end-to-end metrics
(`bench/NOTES.md` defines them).  With `--trace 1` rounds alternate
between untraced and traced, and the last line holds the per-layer
metrics of the traced rounds plus `trace.wall_ratio`, the tracing
overhead.  The lines before it give the environment, every round, each
task's times, and `failed_frac`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run must end within 180 s; children still running then are killed

CERTIFY_DOC = "bench/data/certify.json"
SPACES_DOC = "bench/data/spaces.json"
CERTIFY_CGAS = ("deg2x4_m10", "deg2x5_m10", "deg22442_m10", "deg2426_m10", "deg2x6_m8")
GAUGE_QUERIES = 50

# Rounds whose times give the end-to-end metrics: about as many as the
# seed implementation completes in a 50 s run.  A faster program runs
# more rounds in `--seconds`, a slower one runs longer; either way the
# fastest-of-k statistics below see k samples of each task.
TIMED_ROUNDS = {"pn6_certify": 6, "dga_gauge": 3}

sys.path.insert(0, str(HERE))
from tracer import metric_names  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_s_p50", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def task_list(workload, seed):
    """The workload's fixed tasks as (task id, spec); the seed only picks
    the gauge elements here and the task order in `run`."""
    if workload == "pn6_certify":
        return [
            ("pn6/homology", {"kind": "homology", "n": 6}),
            ("pn6/report", {"kind": "cli", "argv": ["--command", "permutohedron", "--n", "6", "--format", "machine"]}),
        ] + [
            (f"certify_cold/{name}", {"kind": "cli", "argv": [
                "--input", CERTIFY_DOC, "--command", "certify", "--cga", name, "--format", "machine"]})
            for name in CERTIFY_CGAS
        ]
    if workload == "dga_gauge":
        return [
            (f"dga_gauge/dx_{space}", {"kind": "cli", "argv": [
                "--input", SPACES_DOC, "--command", "d-x", "--space", space,
                "--homology", "Z,Z/2", "--format", "machine"]})
            for space in ("circle", "sphere")
        ] + [
            (f"dga_gauge/gauge_queries_{part}", {"kind": "gauge", "seed": 2 * seed + i, "queries": GAUGE_QUERIES})
            for i, part in enumerate("ab")
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pn6_certify", "dga_gauge")


def run_task(spec, traced, timeout):
    """Run one task in a fresh interpreter; times and usage come from this
    process's clock and from the child's own rusage."""
    argv = [sys.executable, str(HERE / "task.py"), "--spec", json.dumps(spec), "--trace", str(int(traced))]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "wall_s": time.monotonic() - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # kilobytes on Linux; replaced by the child's VmHWM below
        "setup_s": None,
        "task_s": None,
        "result": None,
        "error": None,
    }
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        reply = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["error"] = f"no result line (exit status {proc.returncode})"
        return record
    record.update(
        setup_s=reply["first_call"] - spawned,
        task_s=reply["task_s"],
        result=reply["result"],
        error=reply["error"],
        layers=reply.get("layers"),
    )
    if reply.get("peak_rss_kb"):
        record["rss_mb"] = reply["peak_rss_kb"] / 1024
    if proc.returncode and not record["error"]:
        record["error"] = f"exit status {proc.returncode}"
    return record


def check(record, expected):
    """A task passes when it returned a result whose recorded fields all match."""
    if record["error"] or record["result"] is None or expected is None:
        return False
    return all(record["result"].get(key) == value for key, value in expected.items())


def run_round(tasks, traced, deadline, expected):
    """One pass over the task list."""
    records = []
    start = time.monotonic()
    for task_id, spec in tasks:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        record = run_task(spec, traced, remaining)
        record.update(id=task_id, traced=traced, ok=check(record, expected.get(task_id)))
        records.append(record)
    return {
        "traced": traced,
        "complete": len(records) == len(tasks),
        "wall_s": time.monotonic() - start,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "rss_mb": max((r["rss_mb"] for r in records), default=0.0),
        "records": records,
    }


def run(workload, seed, seconds, trace, expected):
    """Rounds of the task list: untraced, `TIMED_ROUNDS[workload]` of
    them, then more while the next one is expected, from the mean so far,
    to end within `seconds`.  In a traced run each untraced round is
    followed by a traced one, and the pair is the unit."""
    tasks = task_list(workload, seed)
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = (False, True) if trace else (False,)
    needed = 1 if trace else TIMED_ROUNDS[workload]
    rounds = []
    while True:
        for traced in modes:
            rounds.append(run_round(rng.sample(tasks, len(tasks)), traced, deadline, expected))
        if not rounds[-1]["complete"]:
            return rounds
        passes = len(rounds) // len(modes)
        if passes >= needed and (time.monotonic() - start) * (passes + 1) / passes > seconds:
            return rounds


def fastest(records, key="task_s", traced=False):
    """Each task's least `key` among its `records` run with the given
    tracing, by task id."""
    best = {}
    for t in records:
        if t[key] is not None and t["traced"] == traced:
            best[t["id"]] = min(best.get(t["id"], t[key]), t[key])
    return best


def timed_rounds(rounds, workload):
    """The untraced rounds the time metrics come from: the first
    `TIMED_ROUNDS[workload]` complete ones, or every untraced round if
    none completed."""
    plain = [r for r in rounds if not r["traced"]]
    return [r for r in plain if r["complete"]][:TIMED_ROUNDS[workload]] or plain


def end_to_end_metrics(rounds, workload):
    """Times come from each task's fastest run in the timed rounds, because
    interference from the host only slows work down (see NOTES.md): the
    task list's wall and CPU time are the sums of its tasks' least, and
    set-up time is the least over all task starts.  RSS is the median over
    the timed rounds.  Returns the metrics and, for each, the number of
    samples it was taken from."""
    timed = timed_rounds(rounds, workload)
    records = [t for r in timed for t in r["records"]]
    best = fastest(records)
    setups = [t["setup_s"] for t in records if t["setup_s"] is not None]
    if not best or not setups:
        return None, None
    values = {
        "setup_s": min(setups),
        "wall_s": sum(fastest(records, "wall_s").values()),
        "task_s_p50": median(best.values()),
        "cpu_s": sum(fastest(records, "cpu_s").values()),
        "peak_rss_mb": median(r["rss_mb"] for r in timed),
    }
    samples = dict.fromkeys(values, len(records))
    samples["setup_s"] = len(setups)
    samples["task_s_p50"] = sum(t["task_s"] is not None for t in records)
    samples["peak_rss_mb"] = len(timed)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, samples


def layer_unit(name):
    if name.endswith(".s"):
        return "s"
    return "ratio" if name in ("linalg.nnz_frac", "trace.wall_ratio") else "count"


def per_layer_metrics(rounds):
    """Per-task-list sums of the tracer's metrics, median over traced rounds;
    counts repeat exactly, so their median is taken among the values."""
    traced = [r for r in rounds if r["traced"] and r["complete"]]
    plain = [r for r in rounds if not r["traced"] and r["complete"]]
    if not traced or not plain:
        return None
    sums = []
    for r in traced:
        total = dict.fromkeys(metric_names(), 0)
        for t in r["records"]:
            for name, value in (t.get("layers") or {}).items():
                total[name] += value
        entries = total["linalg.matrix_entries"]
        total["linalg.nnz_frac"] = total["linalg.matrix_nnz"] / entries if entries else 0.0
        sums.append(total)
    values = {name: (median if layer_unit(name) == "s" else median_low)(s[name] for s in sums) for name in sums[0]}
    records = [t for r in traced + plain for t in r["records"]]
    values["trace.wall_ratio"] = (
        sum(fastest(records, "wall_s", traced=True).values()) / sum(fastest(records, "wall_s").values())
    )
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cupone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="closed-loop cupone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measure for this long; at least one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cupone" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cupone sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    try:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot read the expected results: {exc}\n")
        return 2

    # Compile once up front so no task pays for writing bytecode.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)

    rounds = run(args.workload, args.seed, args.seconds, args.trace, expected)
    records = [t for r in rounds for t in r["records"]]
    failed = [t for t in records if not t["ok"]]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"loop=closed clients=1 rounds={len(rounds)}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for i, r in enumerate(rounds):
        print(f"# round {i} traced={int(r['traced'])} complete={int(r['complete'])} "
              f"wall_s={r['wall_s']!r} cpu_s={r['cpu_s']!r} rss_mb={r['rss_mb']!r}")
    setups = [t["setup_s"] for t in records if t["setup_s"] is not None and not t["traced"]]
    if setups:
        print(f"# setup samples={len(setups)} median={median(setups)!r} min={min(setups)!r} max={max(setups)!r}")
    best = fastest(records)
    for task_id in sorted({t["id"] for t in records}):
        mine = [t for t in records if t["id"] == task_id]
        times = [t["task_s"] for t in mine if t["task_s"] is not None and not t["traced"]]
        print(f"# task {task_id}: runs={len(mine)} failed={sum(not t['ok'] for t in mine)} "
              f"untraced_task_s_median={median(times) if times else 'n/a'} "
              f"untraced_task_s_min={best.get(task_id, 'n/a')} "
              f"untraced_wall_s_min={min((t['wall_s'] for t in mine if not t['traced']), default='n/a')} "
              f"rss_mb_max={max(t['rss_mb'] for t in mine):.1f}")
    for t in failed:
        print(f"# FAILED {t['id']}: {t['error'] or 'result differs from the recorded one'} -> {json.dumps(t['result'])}")

    if args.trace:
        metrics, samples = per_layer_metrics(rounds), {}
    else:
        metrics, samples = end_to_end_metrics(rounds, args.workload)
    if metrics is None:
        sys.stderr.write("error: no round completed with a measured task\n")
        return 1
    rows = dict(metrics)
    rows["failed_frac"] = {"value": len(failed) / len(records), "unit": "ratio"}
    samples["failed_frac"] = len(records)
    for name, m in rows.items():
        n = f" samples={samples[name]}" if name in samples else ""
        print(f"# {name:40s} {m['value']!r:>24} {m['unit']}{n}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

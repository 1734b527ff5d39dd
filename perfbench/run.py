"""cubicode benchmark: end-to-end workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the code under test is the
checkout's src/, put on PYTHONPATH of every child interpreter.  Workloads
(see BENCHMARK.json for why each was chosen):

    verify-fast  `cubicode verify-paper --output json --threads 1`
    enum-m3      exhaustive m = 3 lprime distribution, 1 then 2 workers
    sss-m2       m = 2 access structures and 1452 share round trips

The loop is closed: one parent process starts one fresh interpreter per
iteration (child.py) and waits for it, because every CLI call pays for
cold caches.  Iterations repeat while the next one is expected to end
within --seconds, with at least MIN_ITERATIONS of them.  With --trace 0
the run also starts SETUP_PROBES interpreters that only import cubicode,
and reports the end-to-end metrics of BENCHMARK.json.  The host's speed
drifts by tens of percent, in bursts of seconds and in spells longer
than a run, so fixed reference jobs (reference.py: a mixed job and a
numpy streaming job) are timed in the same interpreter next to the work,
and a time t next to a reference time r counts as t * (the job's nominal
time) / r, a time at one fixed host speed:

    setup_s      interpreter start until `import cubicode` returns,
                 scaled by the mixed job run right after it (median
                 over the probes and iterations)
    task_s       wall time of the workload's work in one interpreter:
                 verify_fast_s, enum_t1_s + enum_t2_s or sss_m2_s
                 (median over the iterations).  Each iteration times its
                 work in parts (the sss-m2 round trips in parts of about
                 0.3 s) and the mixed job before and after each part,
                 and a part is scaled by the mean of those two.  The
                 enum-m3 parts (threads=1, threads=2) run 5-10 s of numpy
                 streaming each; the mixed job did not track them, so
                 they use the streaming job, five runs at each edge
    peak_rss_mb  peak resident set size of the interpreter or a worker
                 (median over the iterations)

With --trace 1 every iteration is traced, and the run reports the
per-layer metrics of BENCHMARK.json as medians over the iterations
(trace.overhead_s is the tracer's own time, measured by the tracer).

Every output is checked; a wrong one counts as failed (fail_ratio is
failed / attempted) and makes the exit status 1.  The line before the
result carries a report: each end-to-end figure with its median, the
highest percentile that has ten samples above it and its sample count
over the iterations (setup_s and task_s also unscaled, with the
reference times; task_s under its per-workload name), the workload's
further figures (enum_t1_s, enum_t2_s, enum_coords_per_s,
enum_scaling_eff, roundtrips_per_s, all from plain wall time), or with
--trace 1 the per-layer metrics, and the machine and provenance record.
The last line is the result object {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracer import COUNTS, SHOULD_MOVE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-fast", "enum-m3", "sss-m2")
SETUP_PROBES = 8
MIN_ITERATIONS = 2
STOP_STARTING_S = 100.0  # no new iteration past this once one has finished
DEADLINE_S = 170.0

# the per-workload name of task_s, and the units of the further figures
TASK_NAMES = {"verify-fast": "verify_fast_s", "enum-m3": "enum_t1_s + enum_t2_s", "sss-m2": "sss_m2_s"}
NAMED_UNITS = {
    "enum_t1_s": "s",
    "enum_t2_s": "s",
    "enum_coords_per_s": "1/s",
    "enum_scaling_eff": "ratio",
    "roundtrips_per_s": "1/s",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one child interpreter and return its result with setup_s added."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(trace))]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: iteration still running at the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}\n{err}")
    result = json.loads(out.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported cubicode from {result['package']}, not from {ROOT / 'src'}")
    result["setup_s"] = result["imported_at"] - started
    return result


def summary(values, unit: str) -> dict:
    """Median, the highest percentile with at least ten samples above it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    for pct in (99.9, 99, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            high = {"pct": pct, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "high": high, "n": n, "unit": unit}


def scaled_task_s(iteration: dict) -> float:
    """The iteration's task time, each part scaled by the reference job around it."""
    return sum(part["s"] * part["nominal"] / statistics.fmean(part["edges"]) for part in iteration["parts"])


def provenance(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(args) -> tuple[list[dict], list[dict]]:
    """The iterations and the set-up probes of one run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    probes = [] if args.trace else [spawn("setup", args.seed, False, deadline) for _ in range(SETUP_PROBES)]
    runs, durations = [], []
    while True:
        done = len(durations)
        elapsed = time.monotonic() - start
        if done >= MIN_ITERATIONS and elapsed + statistics.median(durations) > args.seconds:
            break
        if done and elapsed >= STOP_STARTING_S:
            break
        began = time.monotonic()
        runs.append(spawn(args.workload, args.seed, bool(args.trace), deadline))
        durations.append(time.monotonic() - began)
    return runs, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() still kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "cubicode" / "__init__.py").is_file():
        print(f"error: no cubicode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        runs, probes = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(it["attempted"] for it in runs)
    failed = sum(it["failed"] for it in runs)
    problems = sorted({p for it in runs for p in it["problems"]})
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "iterations": len(runs),
        "setup_probes": len(probes),
        "fail_ratio": {"value": failed / attempted, "attempted": attempted, "failed": failed, "unit": "ratio"},
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    if args.trace:
        layers = {name: statistics.median(it["layers"][name] for it in runs) for name in runs[0]["layers"]}
        report["per_layer"] = {
            name: {
                "value": value,
                "kind": "computed" if name.endswith("_computed") else "count" if name in COUNTS else "measured",
                "moves": SHOULD_MOVE[name],
            }
            for name, value in layers.items()
        }
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in benchmark["per_layer"]}
    else:
        figures = {
            "setup_s": {
                "unscaled": summary([it["setup_s"] for it in probes + runs], "s"),
                "reference_s": summary([it["setup_reference_s"] for it in probes + runs], "s"),
                **summary([it["setup_s"] * reference.REFERENCE_S / it["setup_reference_s"] for it in probes + runs], "s"),
            },
            "task_s": {
                "is": TASK_NAMES[args.workload],
                "parts": len(runs[0]["parts"]),
                "unscaled": summary([it["task_s"] for it in runs], "s"),
                "reference_s": summary([statistics.fmean(part["edges"]) for it in runs for part in it["parts"]], "s"),
                **summary([scaled_task_s(it) for it in runs], "s"),
            },
            "peak_rss_mb": summary([it["peak_rss_kb"] / 1024 for it in runs], "MB"),
        }
        for name in runs[0]["named"]:
            figures[name] = summary([it["named"][name] for it in runs], NAMED_UNITS[name])
        report["end_to_end"] = figures
        metrics = {m["name"]: {"value": figures[m["name"]]["median"], "unit": m["unit"]} for m in benchmark["end_to_end"]}
    correct = failed == 0 and not problems
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for pqcbound.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it benchmarks the sources under the
checkout's src/.  Every workload runs in fresh interpreters (perfbench/worker.py)
that call ``pqcbound.cli.main`` in-process.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 gives
the per-layer metrics from traced passes, which alternate with untraced ones,
and checks span coverage and that the exact counts repeat in a second
process.  The metric names and units come from BENCHMARK.json at the
checkout root.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it describes the machine and the run.  Full reports and span files go to
perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# setup_s samples taken before and again after the worker, so that they
# span the same stretch of time as its passes
SETUP_SAMPLES = 4
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 165
# counts that must repeat exactly across traced passes and processes
EXACT_COUNTS = ("entropy.calls", "entropy.misses", "entropy.rows_computed",
                "search.evaluations", "graphs.path_counts.calls")
SETUP_CODE = "import time; t = time.perf_counter(); import pqcbound.cli; print(time.perf_counter() - t)"


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PQC_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_python(args: list[str], deadline: float) -> str:
    """Run a fresh interpreter to completion and return its stdout.

    It gets its own session, so on a timeout or interrupt the whole group,
    pool workers included, is killed before this returns.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args[:2])} exited with code {proc.returncode}")
    return out


def run_worker(workload, seed, seconds, threads, deadline, spans=None, max_passes=None) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--threads", str(threads)]
    if spans:
        args += ["--spans", str(spans)]
    if max_passes:
        args += ["--max-passes", str(max_passes)]
    lines = run_python(args, deadline).strip().splitlines()
    if not lines:
        raise RunError(f"worker for {workload} printed no report")
    return json.loads(lines[-1])


def setup_samples(deadline: float) -> list[float]:
    """Times a fresh interpreter takes to import pqcbound.cli."""
    return [float(run_python(["-c", SETUP_CODE], deadline).split()[-1]) for _ in range(SETUP_SAMPLES)]


def machine(seed: int, threads: int) -> dict:
    model = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": seed,
        "threads": threads,
    }


def end_to_end(args, threads, deadline) -> tuple[dict, list[dict], list[str]]:
    setup = setup_samples(deadline)
    rep = run_worker(args.workload, args.seed, args.seconds, threads, deadline)
    setup += setup_samples(deadline)
    values = {"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"], "setup_s": statistics.median(setup),
              "peak_rss_mb": rep["peak_rss_mb"]}
    return values, [rep], []


def per_layer(args, threads, deadline) -> tuple[dict, list[dict], list[str]]:
    """Alternating traced and untraced passes, then one traced pass in a second process."""
    name = f"{args.workload}-seed{args.seed}"
    traced = run_worker(args.workload, args.seed, args.seconds * 2 / 3, threads, deadline,
                        spans=OUT / f"spans-{name}-a.csv")
    again = run_worker(args.workload, args.seed, 0, threads, deadline,
                       spans=OUT / f"spans-{name}-b.csv", max_passes=1)
    problems = traced["problems"] + again["problems"]
    passes = traced["layers"] + again["layers"]
    for key in EXACT_COUNTS:
        seen = [p["metrics"][key] for p in passes]
        if len(set(seen)) != 1:
            problems.append(f"count {key} differs between passes with the same seed: {seen}")
    values = {}
    for key in traced["layers"][0]["metrics"]:
        seen = [p["metrics"][key] for p in traced["layers"]]
        # counts repeat exactly, so their median is one of them
        values[key] = statistics.median_low(seen) if isinstance(seen[0], int) else statistics.median(seen)
    values["trace_overhead_s"] = traced["traced_wall_s"] - traced["wall_s"]
    return values, [traced, again], problems


def main() -> int:
    ap = argparse.ArgumentParser(description="pqcbound benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "pqcbound" / "cli.py").is_file():
        print(f"error: no pqcbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    threads = min(2, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    try:
        values, reports, problems = measure(args, threads, deadline)
    except (RunError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    for msg in failures + problems:
        print(f"check failed: {msg}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": {**machine(args.seed, threads), "numpy": reports[0]["numpy"]},
        "passes": [len(r["passes"]) for r in reports],
        "fail_frac": failed / attempted,
        "all_metrics": values,
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({"info": info, "workers": reports}, indent=1), encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

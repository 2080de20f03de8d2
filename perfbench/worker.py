"""One benchmark process: runs a workload's ops in passes and reports on them.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  Every op calls ``pqcbound.cli.main`` in this process; the
CLI starts its own pool workers.  A pass runs each op of the workload once.
Passes repeat while the next one would end less than half a pass after
--seconds, so the pass count is --seconds over the pass time, rounded (at
least one pass, at most --max-passes).  With --spans, passes alternate between traced
and untraced, in pairs, so that the tracing overhead is measured between
neighbouring passes.  The last line of stdout is a JSON report.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import sys
import time

import numpy

import pqcbound
from pqcbound import cli

import workloads
from spans import Tracer

WALL_TIME = re.compile(r'"wall_time_ms": \d+')


def cpu_seconds() -> float:
    """User+sys CPU time of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(op: workloads.Op) -> tuple[float, float, str, str | None]:
    """Wall time, CPU time, stdout and error (None on success) of one CLI call."""
    out = io.StringIO()
    error = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(op.argv))
        if rc != 0:
            error = f"exit code {rc}"
    except SystemExit as exc:  # argparse rejects the command line
        error = f"exit code {exc.code}"
    except Exception as exc:  # an op that raises is a counted failure, not the end of the run
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return wall, cpu, out.getvalue(), error


def per_op_median(passes: list[dict], key: str) -> float:
    """Time of one pass, as the sum over ops of each op's median across passes.

    Noise on a shared machine comes in bursts shorter than a pass; taking
    the median op by op keeps a burst that hit one op in one pass out of the
    result.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def coverage_problems(workload: str, threads: int, calls: dict) -> list[str]:
    """Spans a traced pass of `workload` must have run, and spans it must not have."""
    cov = workloads.COVERAGE[workload]
    expected = list(cov["nonzero"]) + (["search.pool"] if cov["pool"] and threads > 1 else [])
    problems = [f"span {name} never ran on {workload}" for name in expected if not calls.get(name)]
    problems += [f"span {name} ran {calls[name]} times on {workload}, expected none"
                 for name in cov["zero"] if calls.get(name)]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--max-passes", type=int, default=1000)
    ap.add_argument("--spans", default=None,
                    help="trace every other pass and write the spans to this CSV file")
    args = ap.parse_args()

    tracer = Tracer() if args.spans else None
    ops = workloads.ops(args.workload, args.seed, args.threads)

    passes, layers, failures, problems = [], [], [], []
    attempted = failed = 0
    # a check depends only on the output, and outputs repeat from pass to pass
    verdicts: dict[tuple, str | None] = {}
    # a traced run alternates traced and untraced passes, starting traced
    unit = 2 if tracer else 1
    span_file = open(args.spans, "w", encoding="utf-8") if tracer else contextlib.nullcontext()
    with span_file:
        if tracer:
            span_file.write("pass,id,parent,name,start_ns,end_ns\n")
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(passes) % 2 == 0
            if traced:
                tracer.install()
            started = time.perf_counter()
            walls, cpus = [], []
            for op in ops:
                op_wall, op_cpu, out, error = run_op(op)
                walls.append(op_wall)
                cpus.append(op_cpu)
                if error is None:
                    key = op.argv + (WALL_TIME.sub("", out),)
                    if key not in verdicts:
                        with tracer.paused() if traced else contextlib.nullcontext():
                            verdicts[key] = op.check(out)
                    error = verdicts[key]
                attempted += 1
                if error is not None:
                    failed += 1
                    failures.append(f"{' '.join(op.argv)}: {error}")
            passes.append({"traced": traced, "op_wall_s": walls, "op_cpu_s": cpus})
            if traced:
                tracer.uninstall()
                calls, _, _ = tracer.summary()
                layers.append({"metrics": tracer.layer_metrics(), "span_calls": dict(calls)})
                problems += coverage_problems(args.workload, args.threads, calls)
                tracer.write_spans(span_file, len(passes))
                tracer.reset()
            pass_s = time.perf_counter() - started
            if len(passes) >= args.max_passes:
                break
            # stop nearest --seconds: the next pass (or pair) would end over half of it late
            if len(passes) % unit == 0 and time.perf_counter() + unit * pass_s / 2 > deadline:
                break

    untraced = [p for p in passes if not p["traced"]]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "passes": passes,
        "wall_s": per_op_median(untraced, "op_wall_s") if untraced else None,
        "cpu_s": per_op_median(untraced, "op_cpu_s") if untraced else None,
        "traced_wall_s": per_op_median(passes[::2], "op_wall_s") if tracer else None,
        # ru_maxrss is in KiB on Linux: the largest of this process and any one pool worker
        "peak_rss_mb": max(own, kids) / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "problems": problems,
        "layers": layers,
        "numpy": numpy.__version__,
        "pqcbound_file": pqcbound.__file__,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

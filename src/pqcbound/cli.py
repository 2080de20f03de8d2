"""Command-line interface.

Subcommands:
  order    run one deterministic ordering method (ec, e-ec, ldf, ebg)
  search   run exhaustive or directed random search
  table    bounds for a range of f, one CSV row per f and column per method
  verify   run a self-check suite

Values are used as given: order, search and table take the same run
options (--seed, --budget, --fixed-colors, --threads).  order and search
pass them to search.run, the one gate that fills defaults and refuses
options a method does not read; table gives each column only the values it
reads and refuses one that no column reads.  search.WorkerPool alone checks
--threads.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guard
violation (search space too large, composite q).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .bound import BoundParams
from .entropy import EntropyCache
from .errors import GuardViolation, PqcboundError, ValidationError
from .search import (METHOD_OPTIONS, OPTION_NAMES, TIE_POLICIES, SearchResult, WorkerPool,
                     check_run, feasible_fixed_colors, option_readers, reads_option, run)
from .verify import DEFAULT_F, SUITES

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

ORDER_METHODS = ("ec", "e-ec", "ldf", "ebg")
SEARCH_METHODS = ("exhaustive", "random")
RANDOM_DEFAULTS = METHOD_OPTIONS["random"]


def order_wire(order) -> str:
    return ";".join(f"{k},{l}" for k, l in order)


def _record(args, result: SearchResult, wall_ms: int) -> dict:
    report = result.best
    # search records echo random search's defaults, whatever the method
    echo = RANDOM_DEFAULTS if args.command == "search" else {}
    rec = {
        "f": args.f,
        "q": args.q,
        "n": args.n,
        "method": args.method,
        "seed": echo.get("seed") if args.seed is None else args.seed,
        "fixed_colors": args.fixed_colors,
        "budget": echo.get("budget") if args.budget is None else args.budget,
        "order": [[k, l] for k, l in report.order],
        "bound": f"{report.bound:.13f}",
        "cond_entropies": list(report.cond_entropies),
        "wall_time_ms": wall_ms,
    }
    if args.raw:
        rec["bound_hex"] = report.bound.hex()
    return rec


def _emit(rec: dict, result: SearchResult, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        out.write("f,method,bound,evaluations,wall_time_ms\n")
        out.write(
            f"{rec['f']},{rec['method']},{rec['bound']},{result.evaluations},{rec['wall_time_ms']}\n"
        )
    else:
        out.write(f"method:       {rec['method']}\n")
        out.write(f"f, q, n:      {rec['f']}, {rec['q']}, {rec['n']}\n")
        out.write(f"bound:        {rec['bound']}\n")
        if "bound_hex" in rec:
            out.write(f"bound (hex):  {rec['bound_hex']}\n")
        out.write(f"order:        {order_wire(result.best.order)}\n")
        out.write(f"evaluations:  {result.evaluations}\n")
        out.write(f"wall_time_ms: {rec['wall_time_ms']}\n")


def cmd_run(args) -> int:
    """order and search: run one method and print its record."""
    if args.raw and args.format == "csv":
        raise ValidationError("--raw applies to the json and text formats only")
    params = BoundParams(n=args.n, f=args.f, q=args.q)
    with WorkerPool(args.threads) as pool:
        t0 = time.perf_counter()
        result = run(args.method, params, pool=pool, seed=args.seed, budget=args.budget,
                     fixed_colors=args.fixed_colors, tie_policy=args.tie)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    _emit(_record(args, result, wall_ms), result, args.format, sys.stdout)
    return EXIT_OK


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValidationError(f"--f-range must look like A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"--f-range must look like A..B with integers, got {text!r}") from None
    if a > b:
        raise ValidationError(f"--f-range is empty: {text!r}")
    return range(a, b + 1)


def cmd_table(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("--methods must name at least one method")
    for m in methods:
        if m not in METHOD_OPTIONS:
            raise ValidationError(f"unknown method {m!r} (choose from {', '.join(METHOD_OPTIONS)})")
    given = {"seed": args.seed, "budget": args.budget, "fixed_colors": args.fixed_colors}
    for name, value in given.items():
        # table breaks every tie lex
        if value is not None and not any(reads_option(m, name) for m in methods):
            flag, readers = OPTION_NAMES[name][1], " and ".join(option_readers(name))
            raise ValidationError(f"{flag} applies to {readers} only, not {args.methods!r}")
    if args.out == "":
        raise ValidationError("cannot write --out: the path is empty")
    if args.out and os.path.isdir(args.out):
        raise ValidationError(f"cannot write --out: {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ValidationError(f"cannot write --out: no directory {os.path.dirname(args.out)!r}")
    pool = WorkerPool(args.threads)
    rows = [BoundParams(n=args.n, f=f, q=args.q) for f in _parse_range(args.f_range)]
    # each cell gets only the values its column reads, and every cell is
    # refused or admitted before the first row runs
    cells = {}
    for params in rows:
        for m in methods:
            options = {name: v for name, v in given.items() if reads_option(m, name)}
            if m == "e-ec" and options["fixed_colors"] is None:
                options["fixed_colors"] = feasible_fixed_colors(params.f)
            check_run(m, params, **options)
            cells[params.f, m] = options
    lines = ["f," + ",".join(methods)]
    # one pool for the whole table, started by the first cell that needs it
    with pool:
        for params in rows:
            cache = EntropyCache(params.f, params.q)
            row = [str(params.f)]
            for m in methods:
                result = run(m, params, cache=cache, pool=pool, **cells[params.f, m])
                row.append(f"{result.best.bound:.13f}")
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    q = {} if args.q is None else {"q": args.q}
    if q and args.suite != "entropy":
        raise ValidationError("--q applies to the entropy suite only")
    f = args.f if args.f is not None else DEFAULT_F[args.suite]
    checks = SUITES[args.suite](f, **q)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", type=int, required=True, help="number of messages (vertices)")
    p.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
    p.add_argument("--n", type=int, default=2, help="number of databases (default 2)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--raw", action="store_true", help="include the bound as a hex float")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The options that order, search and table pass to search.run.  Every
    command takes all four: the gate refuses --seed, --budget or
    --fixed-colors where the method does not read it, and search.WorkerPool
    checks --threads."""
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of random search (default {RANDOM_DEFAULTS['seed']}) and of ebg's "
                   "random tie-breaking")
    p.add_argument("--budget", type=int, default=None,
                   help=f"random-search draws (default {RANDOM_DEFAULTS['budget']})")
    p.add_argument("--fixed-colors", dest="fixed_colors", type=int, default=None,
                   help="leading color classes held fixed (e-ec and random search)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for e-ec and exhaustive search, at least 1 (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqcbound",
        description="Capacity outer bounds for private quadratic monomial computation "
        "and searches over monomial orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="run one ordering method")
    p.add_argument("--method", choices=ORDER_METHODS, required=True)
    _add_common(p)
    _add_run_options(p)
    p.add_argument("--tie", choices=TIE_POLICIES, default="lex",
                   help="tie-breaking of ebg (default lex, which every method follows)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("search", help="exhaustive or directed random search")
    p.add_argument("--method", choices=SEARCH_METHODS, required=True)
    _add_common(p)
    _add_run_options(p)
    p.set_defaults(func=cmd_run, tie="lex")

    p = sub.add_parser("table", help="bounds for a range of f")
    p.add_argument("--f-range", dest="f_range", required=True, help="inclusive range A..B")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--methods", default="ec,e-ec,ldf,ebg",
                   help="comma-separated methods (default ec,e-ec,ldf,ebg)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    _add_run_options(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--q", type=int, default=None,
                   help="prime field size, entropy suite only (default 2)")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses.  A new parser per call leaves hundreds of
    argparse objects in reference cycles until a full collection; building
    it on first use keeps the cost out of the import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PqcboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

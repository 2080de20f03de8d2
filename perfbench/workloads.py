"""The benchmark's workloads: the CLI calls each one makes and the checks on
their outputs.

Every op is a ``pqcbound`` command line.  Its check receives the op's stdout
and returns None when the output is right, or a message saying what is wrong.
Reference bounds are 13-digit decimal strings, the precision the CLI prints.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from pqcbound import BoundParams, EntropyCache, all_edges, capacity_outer_bound

WORKLOADS = ("paper-table", "entropy-cold", "search-brute")

# Goldens of the acceptance suite (tests/test_acceptance.py), q=2, n=2.
EC_TABLE = {5: 0.5382035621102, 6: 0.5198943946817}
EEC_TABLE = {5: 0.5321513151313, 6: 0.5198121367672, 7: 0.5130098344723, 8: 0.5085684044374,
             9: 0.5058885273733, 10: 0.5039972538181}
LDF_TABLE = {5: 0.5321513151313, 6: 0.5197824997350, 7: 0.5129571653366, 8: 0.5085546467521,
             9: 0.5058724664437, 10: 0.5039960955809, 12: 0.5019069907637}
EBG_TABLE = {5: 0.5321513151313, 6: 0.5197824997350, 7: 0.5129571653366, 8: 0.5085546463038,
             10: 0.5039958945996}
EXHAUSTIVE_F5 = 0.5321513151313

# Values the code prints where the suite has no golden, or where the golden
# holds only at the suite's 1e-7 tie-sensitive tolerance.  Taken from the
# output of commit 021312f.
SEED_OUTPUT = {
    ("ec", 7): "0.5158988408975",
    ("ec", 8): "0.5088200966114",
    ("ec", 9): "0.5071434701312",
    ("ec", 10): "0.5041602427037",
    # the golden 0.5058724626997 is a strict xfail: the exact greedy cannot reach it
    ("ebg", 9): "0.5058903281038",
    # 2.4e-12 from the golden 0.5039958945996, inside the 1e-7 tolerance
    ("ebg", 10): "0.5039958946020",
}
EXHAUSTIVE_F5_N3 = "0.6795271385625"
EC_COLD = {(12, 2): "0.5020207578041", (9, 3): "0.5072520744329", (7, 5): "0.5149577153360"}

TABLE_METHODS = ("ec", "e-ec", "ldf", "ebg")
TABLE_F = range(5, 11)
COLD_SIZES = ((12, 2), (9, 3), (7, 5))


def _golden(method: str, f: int) -> str:
    table = {"ec": EC_TABLE, "e-ec": EEC_TABLE, "ldf": LDF_TABLE, "ebg": EBG_TABLE}[method]
    return SEED_OUTPUT.get((method, f)) or f"{table[f]:.13f}"


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[str], str | None]


def check_table(out: str) -> str | None:
    lines = out.splitlines()
    header = "f," + ",".join(TABLE_METHODS)
    if not lines or lines[0] != header:
        return f"table header {lines[:1]!r}, expected {header!r}"
    rows = lines[1:]
    if len(rows) != len(TABLE_F):
        return f"table has {len(rows)} rows, expected {len(TABLE_F)}"
    for f, row in zip(TABLE_F, rows):
        cells = row.split(",")
        expected = [str(f)] + [_golden(m, f) for m in TABLE_METHODS]
        if cells != expected:
            return f"table row {row!r}, expected {','.join(expected)!r}"
    return None


def record_check(expected: str | None = None) -> Callable[[str], str | None]:
    """Check of one JSON record printed with --raw.

    The order must be a permutation of the edges of K_f, and re-evaluating it
    with a fresh cache must give the printed bound bit for bit.  With
    `expected`, the 13-digit bound must also equal that reference.
    """

    def check(out: str) -> str | None:
        try:
            rec = json.loads(out)
            f, q, n = rec["f"], rec["q"], rec["n"]
            order = [tuple(e) for e in rec["order"]]
            printed, printed_hex = rec["bound"], rec["bound_hex"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable record ({exc}): {out[:200]!r}"
        if sorted(order) != all_edges(f):
            return f"order is not a permutation of the edges of K_{f}"
        bound = capacity_outer_bound(order, BoundParams(n=n, f=f, q=q), EntropyCache(f, q)).bound
        if bound.hex() != printed_hex or f"{bound:.13f}" != printed:
            return f"re-evaluated bound {bound.hex()} differs from printed {printed_hex} ({printed})"
        if expected is not None and printed != expected:
            return f"bound {printed}, expected {expected}"
        return None

    return check


def ops(workload: str, seed: int, threads: int) -> list[Op]:
    """The ops of one pass over `workload`; `seed` goes to the random ops only."""
    t = ("--threads", str(threads))
    s = ("--seed", str(seed))
    if workload == "paper-table":
        return [
            Op(("table", "--f-range", "5..10", "--methods", ",".join(TABLE_METHODS),
                "--q", "2", "--n", "2", *t), check_table),
            Op(("order", "--method", "ldf", "--f", "12", "--q", "2", "--n", "2", "--raw", *t),
               record_check(f"{LDF_TABLE[12]:.13f}")),
        ]
    if workload == "entropy-cold":
        cold = []
        for f, q in COLD_SIZES:
            size = ("--f", str(f), "--q", str(q), "--n", "2", "--raw", *t)
            cold.append(Op(("order", "--method", "ec", *size), record_check(EC_COLD[f, q])))
            cold.append(Op(("order", "--method", "ebg", "--tie", "random", *s, *size), record_check()))
        return cold
    if workload == "search-brute":
        return [
            Op(("search", "--method", "exhaustive", "--f", "5", "--q", "2", "--n", "2", "--raw", *t),
               record_check(f"{EXHAUSTIVE_F5:.13f}")),
            Op(("search", "--method", "exhaustive", "--f", "5", "--q", "2", "--n", "3", "--raw", *t),
               record_check(EXHAUSTIVE_F5_N3)),
            Op(("search", "--method", "random", "--f", "8", "--budget", "2500", *s,
                "--q", "2", "--n", "2", "--raw", *t), record_check()),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Spans that must be nonzero, and spans that must be absent, in a traced pass.
# Pool spans are expected only when the run has more than one worker.
COVERAGE = {
    "paper-table": {
        "nonzero": ("cli", "search.run", "search.e-ec", "search.ldf", "search.ebg", "bound",
                    "entropy", "graphs.path_counts"),
        "pool": True,
        "zero": (),
    },
    "entropy-cold": {
        "nonzero": ("cli", "search.run", "search.ebg", "bound", "entropy"),
        "pool": False,
        "zero": ("graphs.path_counts", "search.pool"),
    },
    "search-brute": {
        "nonzero": ("cli", "search.run", "search.exhaustive", "search.random", "bound", "entropy"),
        "pool": True,
        "zero": ("graphs.path_counts",),
    },
}

import json
import multiprocessing
import re
import subprocess
import sys

import numpy as np
import pytest

from pqcbound import EntropyCache, cli, graphs, search, verify
from pqcbound.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from pqcbound.errors import ValidationError
from pqcbound.verify import KNOWN_CLASS_COUNTS, KNOWN_PATH_COUNTS


# Records of `order --method ebg --tie random --seed S --f F --q Q --n 2`,
# the entropy-cold benchmark's random-tie EBG runs: (F, Q, S) -> (bound_hex,
# order).  Taken from the output of commit 9a4a972.
EBG_RANDOM_RECORDS = {
    (12, 2, 7): (
        "0x1.00f9edd735600p-1",
        "1,2 5,9 3,10 6,8 11,12 4,7 1,7 8,11 3,5 4,9 2,6 10,12 1,5 6,10 4,11 9,12 7,8 2,3 2,4 "
        "5,8 1,12 7,10 3,11 6,9 6,11 8,12 3,7 4,10 1,9 2,5 2,11 4,12 2,10 2,8 5,10 5,6 8,10 "
        "6,12 1,11 1,8 6,7 7,9 8,9 2,12 4,5 1,10 9,10 1,6 1,4 3,9 10,11 5,11 4,8 3,12 3,8 "
        "5,12 9,11 7,11 4,6 2,9 2,7 3,4 3,6 1,3 7,12 5,7",
    ),
    (9, 3, 7): (
        "0x1.030531bb7f08cp-1",
        "1,2 4,9 3,7 5,8 1,6 3,5 2,4 7,9 6,8 8,9 1,3 2,5 4,6 6,7 1,9 2,7 3,4 2,8 5,9 3,8 5,6 "
        "1,4 1,7 7,8 4,5 2,6 3,9 2,9 4,7 3,6 1,8 6,9 1,5 5,7 4,8 2,3",
    ),
    (7, 5, 7): (
        "0x1.061cf7accf0e8p-1",
        "1,2 4,6 3,5 4,7 1,3 2,6 5,7 2,3 4,5 1,7 1,6 3,7 2,5 3,6 3,4 1,5 1,4 5,6 2,4 2,7 6,7",
    ),
    (12, 2, 8): (
        "0x1.00f9edd7391b5p-1",
        "1,2 4,10 5,11 6,8 3,9 7,12 6,12 1,4 3,5 2,9 7,11 8,10 4,12 2,11 3,8 9,10 5,6 1,7 7,8 "
        "4,5 9,12 2,6 10,11 1,3 1,6 2,8 11,12 7,9 3,10 2,4 5,9 1,11 2,3 6,9 6,10 1,10 5,12 "
        "1,8 3,11 3,4 8,11 1,12 5,8 8,12 6,7 3,6 9,11 2,10 2,5 1,9 10,12 5,10 3,7 2,12 6,11 "
        "4,11 8,9 5,7 4,7 4,8 3,12 4,9 2,7 1,5 4,6 7,10",
    ),
    (9, 3, 8): (
        "0x1.030531bb80d7bp-1",
        "1,2 4,6 5,8 3,9 3,7 1,8 4,7 2,6 5,9 2,9 4,8 1,7 3,6 5,7 3,8 5,6 4,9 2,8 1,6 2,7 1,9 "
        "3,5 2,4 1,3 4,5 7,9 6,8 8,9 6,9 6,7 1,4 2,5 1,5 2,3 7,8 3,4",
    ),
    (7, 5, 8): (
        "0x1.061cf7accf0e8p-1",
        "1,2 3,7 4,6 4,5 1,7 2,6 3,5 1,3 2,4 6,7 2,5 1,6 4,7 3,6 5,6 2,7 5,7 2,3 1,5 3,4 1,4",
    ),
}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_time(out: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)


class TestOrderCommand:
    def test_ec_f6_json(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "6", "--q", "2", "--n", "2")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["bound"] == "0.5198943946817"
        assert rec["order"][:3] == [[1, 5], [2, 4], [3, 6]]
        assert rec["f"] == 6 and rec["q"] == 2 and rec["n"] == 2
        assert rec["method"] == "ec"
        assert len(rec["cond_entropies"]) == 15

    def test_ldf_f6(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "ldf", "--f", "6")
        assert code == EXIT_OK
        assert json.loads(out)["bound"] == "0.5197824997350"

    def test_eec_f5(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "e-ec", "--f", "5", "--threads", "1")
        assert code == EXIT_OK
        assert json.loads(out)["bound"] == "0.5321513151313"

    def test_ebg_f2_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "ebg", "--f", "2")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["order"] == [[1, 2]]
        assert rec["bound"] == "1.0000000000000"

    def test_composite_q_is_guard_violation(self, capsys):
        code, _, err = run_cli(capsys, "order", "--method", "ec", "--f", "6", "--q", "4")
        assert code == EXIT_GUARD
        assert "prime" in err
        # 3^14 assignments exceed the enumeration guard of 2^22
        code, _, err = run_cli(capsys, "order", "--method", "ec", "--f", "14", "--q", "3")
        assert code == EXIT_GUARD
        assert "enumeration guard" in err
        # BoundParams refuses q before the gate sees --budget
        code, _, err = run_cli(capsys, "order", "--method", "ec", "--f", "5", "--q", "4", "--budget", "5")
        assert code == EXIT_GUARD
        assert "prime" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("order", "--method", "ldf", "--f", "2"), "f >= 3"),
            (("search", "--method", "random", "--f", "6", "--budget", "0"), "budget"),
            (("search", "--method", "random", "--f", "6", "--fixed-colors", "0"), "fixed_colors"),
            (("order", "--method", "e-ec", "--f", "6", "--fixed-colors", "0"), "fixed_colors"),
            (("table", "--f-range", "5..5", "--methods", "random", "--budget", "0"), "budget"),
            (("order", "--method", "ec", "--f", "5", "--threads", "0"), "--threads"),
            (("search", "--method", "exhaustive", "--f", "4", "--threads", "-2"), "--threads"),
            (("table", "--f-range", "5..5", "--methods", "ec", "--threads", "0"), "--threads"),
            # values that the method would not read
            (("order", "--method", "ebg", "--f", "5", "--fixed-colors", "3"), "fixed_colors"),
            (("order", "--method", "ec", "--f", "5", "--fixed-colors", "1"), "fixed_colors"),
            (("order", "--method", "ldf", "--f", "5", "--fixed-colors", "2"), "fixed_colors"),
            (("search", "--method", "exhaustive", "--f", "4", "--fixed-colors", "2"), "fixed_colors"),
            (("order", "--method", "ec", "--f", "5", "--tie", "random"), "tie policy"),
            (("order", "--method", "e-ec", "--f", "5", "--tie", "random"), "tie policy"),
            (("order", "--method", "ldf", "--f", "5", "--tie", "random"), "tie policy"),
            (("table", "--f-range", "5..5", "--methods", "ec,ldf,ebg", "--fixed-colors", "2"),
             "--fixed-colors"),
            (("search", "--method", "exhaustive", "--f", "4", "--seed", "3"), "--seed"),
            (("search", "--method", "exhaustive", "--f", "4", "--budget", "5"), "--budget"),
            (("order", "--method", "e-ec", "--f", "5", "--budget", "5"), "applies to random only"),
            (("order", "--method", "ebg", "--f", "5", "--budget", "2"), "applies to random only"),
            # --tie is an order option only
            (("search", "--method", "random", "--f", "5", "--tie", "lex"), "unrecognized arguments: --tie"),
            (("order", "--method", "ec", "--f", "5", "--seed", "3"), "--seed"),
            (("order", "--method", "e-ec", "--f", "5", "--seed", "0"), "--seed"),
            (("order", "--method", "ldf", "--f", "5", "--seed", "3"), "--seed"),
            (("table", "--f-range", "5..5", "--methods", "ec", "--seed", "9"), "--seed"),
            (("table", "--f-range", "5..5", "--methods", "ec,ebg", "--budget", "7"), "--budget"),
            # ebg reads its seed only to break ties at random
            (("order", "--method", "ebg", "--f", "5", "--seed", "3"), "--seed"),
        ],
        ids=["ldf-f2", "random-budget-0", "random-fixed-0", "eec-fixed-0", "table-budget-0",
             "threads-0", "threads-negative", "table-threads-0", "ebg-fixed", "ec-fixed",
             "ldf-fixed", "exhaustive-fixed", "ec-tie-random", "eec-tie-random",
             "ldf-tie-random", "table-fixed-unused", "exhaustive-seed", "exhaustive-budget",
             "eec-budget", "ebg-budget", "search-tie", "ec-seed", "eec-seed", "ldf-seed",
             "table-seed-unused", "table-budget-unused", "ebg-lex-seed"],
    )
    def test_invalid_value_rejected(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert message in err

    def test_fixed_colors_reaches_only_the_methods_that_read_it(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--f-range", "5..6", "--methods", "ec,e-ec",
                               "--fixed-colors", "2", "--threads", "1")
        assert code == EXIT_OK
        assert out == "f,ec,e-ec\n5,0.5382035621102,0.5382035621102\n6,0.5198943946817,0.5198121367672\n"

    @pytest.mark.parametrize("argv", [
        ("order", "--method", "ec", "--f", "5"),
        ("search", "--method", "exhaustive", "--f", "4"),
        ("table", "--f-range", "5..5"),
    ], ids=["order", "search", "table"])
    def test_threads_default_is_one(self, argv):
        assert build_parser().parse_args(argv).threads == 1

    def test_pqc_threads_is_not_read(self, capsys, monkeypatch):
        argv = ("order", "--method", "e-ec", "--f", "5")
        monkeypatch.delenv("PQC_THREADS", raising=False)
        want_code, want_out, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("PQC_THREADS", "two")
        code, out, err = run_cli(capsys, *argv)
        assert code == want_code == EXIT_OK
        assert strip_time(out) == strip_time(want_out)
        assert err == ""

    def test_default_run_starts_no_pool(self, capsys, monkeypatch, inline_pool):
        runs = [("search", "--method", "exhaustive", "--f", "4"),
                ("table", "--f-range", "5..6", "--methods", "e-ec")]
        want = [run_cli(capsys, *argv, "--threads", "1") for argv in runs]
        inline = search.ProcessPoolExecutor

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a run without --threads started a worker pool")

        monkeypatch.setattr(search, "ProcessPoolExecutor", NoPool)
        for argv, (want_code, want_out, _) in zip(runs, want):
            code, out, _ = run_cli(capsys, *argv)
            assert code == want_code == EXIT_OK
            assert strip_time(out) == strip_time(want_out)
        # --threads 2 still enters a pool, here the inline one
        monkeypatch.setattr(search, "ProcessPoolExecutor", inline)
        code, out, _ = run_cli(capsys, *runs[0], "--threads", "2")
        assert code == EXIT_OK
        assert strip_time(out) == strip_time(want[0][1])
        assert inline_pool == [2]

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--method", "bogus", "--f", "6"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_text_format_has_wire_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "--method", "ec", "--f", "6", "--format", "text"
        )
        assert code == EXIT_OK
        assert "1,5;2,4;3,6;1,6" in out
        assert "bound:        0.5198943946817" in out

    def test_text_format_raw_prints_hex(self, capsys):
        _, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "5", "--raw")
        want = json.loads(out)["bound_hex"]
        code, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "5", "--format", "text",
                               "--raw")
        assert code == EXIT_OK
        assert f"bound (hex):  {want}\n" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "f,method,bound,evaluations,wall_time_ms"
        cells = lines[1].split(",")
        assert cells[0] == "5" and cells[1] == "ec" and cells[2] == "0.5382035621102"
        assert cells[3] == "1"

    @pytest.mark.parametrize("argv", [
        ("order", "--method", "ec", "--f", "5"),
        ("search", "--method", "exhaustive", "--f", "4"),
    ], ids=["order", "search"])
    def test_csv_refuses_raw(self, capsys, monkeypatch, argv):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran for a --format csv --raw pair that is refused")

        monkeypatch.setattr(cli, "run", no_search)
        code, out, err = run_cli(capsys, *argv, "--format", "csv", "--raw")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --raw applies to the json and text formats only\n"

    def test_raw_flag_adds_hex(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "5", "--raw")
        rec = json.loads(out)
        assert float.fromhex(rec["bound_hex"]) == pytest.approx(0.5382035621102, abs=1e-12)

    def test_json_round_trips_byte_identically(self, capsys):
        _, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "6")
        line = out.strip()
        assert json.dumps(json.loads(line)) == line

    def test_deterministic_apart_from_timing(self, capsys):
        args = ["order", "--method", "ebg", "--f", "5", "--tie", "random", "--seed", "3"]
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert strip_time(out1) == strip_time(out2)

    @pytest.mark.parametrize("f,q,seed", sorted(EBG_RANDOM_RECORDS))
    def test_ebg_random_tie_records_pinned(self, capsys, f, q, seed):
        code, out, _ = run_cli(
            capsys, "order", "--method", "ebg", "--tie", "random", "--seed", str(seed),
            "--f", str(f), "--q", str(q), "--n", "2", "--raw", "--threads", "1",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        bound_hex, order = EBG_RANDOM_RECORDS[f, q, seed]
        assert rec["bound_hex"] == bound_hex
        assert " ".join(f"{k},{l}" for k, l in rec["order"]) == order

    def test_eec_worker_count_invariant(self, capsys):
        args = ["order", "--method", "e-ec", "--f", "9", "--raw", "--threads"]
        _, out1, _ = run_cli(capsys, *args, "1")
        _, out2, _ = run_cli(capsys, *args, "2")
        assert strip_time(out1) == strip_time(out2)
        assert json.loads(out1)["bound"] == "0.5058885273733"


class TestSearchCommand:
    def test_exhaustive_f5(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--method", "exhaustive", "--f", "5", "--threads", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["bound"] == "0.5321513151313"

    def test_exhaustive_guard_without_force(self, capsys):
        code, _, err = run_cli(capsys, "search", "--method", "exhaustive", "--f", "8")
        assert code == EXIT_GUARD
        assert "permutation cap" in err

    def test_exhaustive_f7_refused_at_once(self, capsys):
        # 20! orders could never finish; the guard refuses before any entropy
        code, out, err = run_cli(capsys, "search", "--method", "exhaustive", "--f", "7")
        assert code == EXIT_GUARD
        assert out == ""
        assert "20! = " in err

    def test_force_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--method", "exhaustive", "--f", "5", "--force"])
        assert exc.value.code == EXIT_USAGE
        assert "--force" in capsys.readouterr().err

    def test_exhaustive_worker_count_invariant(self, capsys):
        args = ["search", "--method", "exhaustive", "--f", "5", "--raw", "--threads"]
        _, out1, _ = run_cli(capsys, *args, "1")
        _, out2, _ = run_cli(capsys, *args, "2")
        assert strip_time(out1) == strip_time(out2)
        assert json.loads(out1)["bound"] == "0.5321513151313"

    def test_random_beats_eec_reference(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", "--method", "random", "--f", "6", "--fixed-colors", "2",
            "--budget", "2000", "--seed", "7",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert float(rec["bound"]) <= 0.5198121367672
        assert rec["seed"] == 7 and rec["budget"] == 2000 and rec["fixed_colors"] == 2

    def test_default_records_echo_random_defaults(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--method", "exhaustive", "--f", "4", "--threads", "1")
        rec = json.loads(out)
        assert rec["seed"] == 0 and rec["budget"] == 1000
        _, out, _ = run_cli(capsys, "order", "--method", "ec", "--f", "4")
        rec = json.loads(out)
        assert rec["seed"] is None and rec["budget"] is None

    def test_table_random_column_reads_seed_and_budget(self, capsys):
        args = ["table", "--f-range", "6..6", "--methods", "ec,random", "--threads", "1"]
        _, given, _ = run_cli(capsys, *args, "--seed", "0", "--budget", "1000")
        code, default, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert given == default
        _, other, _ = run_cli(capsys, *args, "--budget", "1")
        assert float(other.split(",")[-1]) >= float(default.split(",")[-1])

    # the benchmark's seeded random records, which it only re-evaluates: a
    # pruning fault that drops the winning draw changes these bits
    @pytest.mark.parametrize("seed,bound_hex", [("7", "0x1.047ba7f6b4896p-1"), ("8", "0x1.047c7b2065bc7p-1")])
    def test_random_f8_records(self, capsys, seed, bound_hex):
        code, out, _ = run_cli(
            capsys, "search", "--method", "random", "--f", "8", "--budget", "2500", "--seed", seed, "--raw",
        )
        assert code == EXIT_OK
        assert json.loads(out)["bound_hex"] == bound_hex

    def test_random_reproducible(self, capsys):
        args = ["search", "--method", "random", "--f", "6", "--budget", "50", "--seed", "41"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert strip_time(out1) == strip_time(out2)


class TestTableCommand:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--f-range", "5..5", "--methods", "ec")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "f,ec"
        assert lines[1] == "5,0.5382035621102"

    def test_two_rows_two_methods(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--f-range", "5..6", "--methods", "ec,ldf", "--threads", "1"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "f,ec,ldf"
        assert lines[1] == "5,0.5382035621102,0.5321513151313"
        assert lines[2] == "6,0.5198943946817,0.5197824997350"

    def test_eec_worker_count_invariant(self, capsys):
        args = ["table", "--f-range", "5..9", "--methods", "e-ec", "--threads"]
        code1, out1, _ = run_cli(capsys, *args, "1")
        code2, out2, _ = run_cli(capsys, *args, "2")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert out1.startswith("f,e-ec\n5,0.5321513151313\n6,0.5198121367672\n")

    def test_table_starts_at_most_one_pool(self, capsys, inline_pool):
        args = ("table", "--f-range", "5..8", "--methods", "ec,e-ec,ebg", "--threads")
        _, want, _ = run_cli(capsys, *args, "1")
        assert inline_pool == []
        code, out, _ = run_cli(capsys, *args, "2")
        assert code == EXIT_OK
        assert out == want
        # the f = 5 e-ec cell starts the one pool and the other three reuse
        # it, each sending every worker one chunk of its 4, 4, 6 and 6 tasks
        assert inline_pool == [2]
        assert inline_pool.maps == [(4, 2), (4, 2), (6, 3), (6, 3)]
        code, _, _ = run_cli(capsys, "table", "--f-range", "5..8", "--methods", "ec,ldf,ebg",
                             "--threads", "2")
        assert code == EXIT_OK
        assert inline_pool == [2]

    @pytest.fixture
    def started_pools(self, monkeypatch):
        """Record every real pool that search starts."""
        started = []

        class RecordedPool(search.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(search, "ProcessPoolExecutor", RecordedPool)
        return started

    def test_table_joins_its_workers(self, capsys, started_pools):
        code, _, _ = run_cli(capsys, "table", "--f-range", "5..6", "--methods", "e-ec,ebg",
                             "--threads", "2")
        assert code == EXIT_OK
        assert len(started_pools) == 1
        assert multiprocessing.active_children() == []

    def test_table_joins_its_workers_when_a_later_cell_raises(self, capsys, monkeypatch,
                                                             started_pools):
        def refuse(*args, **kwargs):
            raise ValidationError("ebg refused after the pool started")

        monkeypatch.setattr(search, "ebg_order", refuse)
        code, out, err = run_cli(capsys, "table", "--f-range", "5..6", "--methods", "e-ec,ebg",
                                 "--threads", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: ebg refused after the pool started\n"
        assert len(started_pools) == 1
        assert multiprocessing.active_children() == []

    def test_empty_methods_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--f-range", "5..5", "--methods", "")
        assert code == EXIT_USAGE
        assert "at least one" in err

    def test_unknown_table_method(self, capsys):
        code, _, err = run_cli(capsys, "table", "--f-range", "5..5", "--methods", "ec,magic")
        assert code == EXIT_USAGE
        assert "magic" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "table", "--f-range", "7", "--methods", "ec")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text,message", [
        ("5-7", "--f-range must look like A..B, got '5-7'"),
        ("a..b", "--f-range must look like A..B with integers, got 'a..b'"),
        ("7..5", "--f-range is empty: '7..5'"),
    ], ids=["no-dots", "not-integers", "empty"])
    def test_range_refusals(self, capsys, text, message):
        # a usage error of the one class every other usage error has
        with pytest.raises(ValidationError, match=re.escape(message)):
            cli._parse_range(text)
        code, out, err = run_cli(capsys, "table", "--f-range", text, "--methods", "ec")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    # f = 17 is past the vertex range, 3^14 assignments past the enumeration
    # guard, e-ec at f = 13 with 2 fixed classes (11!), e-ec at f = 11 with
    # 1 (10!) and exhaustive search at f = 6 (14!) past the permutation cap,
    # and ldf needs f >= 3: each refused before the first row is computed
    @pytest.mark.parametrize("argv,exit_code,message", [
        (("--f-range", "9..17", "--methods", "ec,ldf"), EXIT_USAGE, "vertex count"),
        (("--q", "3", "--f-range", "12..14"), EXIT_GUARD, "enumeration guard"),
        (("--q", "3", "--f-range", "11..13", "--methods", "e-ec", "--fixed-colors", "2"),
         EXIT_GUARD, "11! = 39916800 block orders exceed the permutation cap"),
        (("--f-range", "9..11", "--methods", "e-ec", "--fixed-colors", "1"),
         EXIT_GUARD, "10! = 3628800 block orders exceed the permutation cap"),
        (("--f-range", "3..6", "--methods", "exhaustive"),
         EXIT_GUARD, "14! = 87178291200 block orders exceed the permutation cap"),
        (("--f-range", "2..4", "--methods", "ec,ldf"), EXIT_USAGE, "f >= 3"),
    ], ids=["f-17", "q3-f14", "e-ec-q3-f13", "e-ec-f11", "exhaustive-f6", "ldf-f2"])
    def test_guards_checked_before_any_row(self, capsys, monkeypatch, argv, exit_code, message):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed for a range that a guard refuses")

        monkeypatch.setattr(cli, "run", no_rows)
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == exit_code
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table", "--f-range", "5..5", "--methods", "ec", "--out", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        text = path.read_text(encoding="utf-8")
        assert text == "f,ec\n5,0.5382035621102\n"
        assert "\r" not in text

    def test_out_to_missing_directory_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(
            capsys, "table", "--f-range", "5..5", "--methods", "ec", "--out", str(path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "--out" in err
        assert not path.parent.exists()

    def test_out_checked_before_any_row(self, capsys, monkeypatch, tmp_path):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed for an --out that cannot be written")

        monkeypatch.setattr(cli, "run", no_rows)
        code, out, err = run_cli(capsys, "table", "--f-range", "5..9", "--methods", "ec,ebg",
                                 "--out", str(tmp_path / "missing" / "table.csv"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write --out:")

    def test_empty_out_refused_before_any_row(self, capsys, monkeypatch):
        # an empty path would otherwise fall back to stdout
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed for an empty --out")

        monkeypatch.setattr(cli, "run", no_rows)
        code, out, err = run_cli(capsys, "table", "--f-range", "5..9", "--methods", "ec,ebg", "--out", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: cannot write --out: the path is empty\n"

    def test_out_directory_checked_before_any_row(self, capsys, monkeypatch, tmp_path):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed for an --out that names a directory")

        monkeypatch.setattr(cli, "run", no_rows)
        code, out, err = run_cli(capsys, "table", "--f-range", "5..9", "--methods", "ec,ebg",
                                 "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write --out:")
        assert tmp_path.is_dir()

    def test_out_write_failure_is_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "table.csv"

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        # the checks before the rows pass; the write after them fails
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        code, out, err = run_cli(capsys, "table", "--f-range", "5..5", "--methods", "ec",
                                 "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write --out:") and "Permission denied" in err
        assert not path.exists()

    def test_guarded_row_leaves_out_untouched(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("kept\n", encoding="utf-8")
        # the f = 5 row is computed; exhaustive search at f = 6 exits 3
        code, _, _ = run_cli(capsys, "table", "--f-range", "5..6", "--methods", "exhaustive",
                             "--threads", "1", "--out", str(path))
        assert code == EXIT_GUARD
        assert path.read_text(encoding="utf-8") == "kept\n"


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite,f",
        [("entropy", "5"), ("entropy", "16"), ("graph", "6"), ("coloring", "8"), ("remarks", "4"),
         ("paths", "4")],
    )
    def test_suites_pass(self, capsys, suite, f):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--f", f)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "PASS" in out

    # the five graph-suite lines at the default f = 6, byte for byte
    def test_graph_suite_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "graph")
        assert code == EXIT_OK
        assert out == (
            "PASS complete-graph cycle census: (20, 45, 72, 60)\n"
            "PASS through-edge vs full-graph: 15 random graph/candidate pairs\n"
            "PASS distance symmetry: 15 random pairs\n"
            "PASS hexagon chord censuses: antipodal (0,2,0,1), short (1,0,1,1)\n"
            "PASS partial-matching distances: d(2,5)=3, d(2,6)=d(1,5)=2, d(2,3)=inf\n"
        )

    def test_entropy_suite_checks_carried_codes(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "entropy", "--f", "12", "--q", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "PASS carried codes vs enumeration: 0 of" in out
        # a held base that lacks its lowest edge's row gives wrong branch
        # entropies; enumeration, which holds nothing, does not
        hold = EntropyCache.hold

        def short(self, edges_or_mask):
            mask = self._mask_of(edges_or_mask)
            hold(self, mask & (mask - 1))
            self._base = (mask, self._base[1])

        monkeypatch.setattr(EntropyCache, "hold", short)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_VERIFY
        assert "FAIL carried codes vs enumeration" in out

    # a row that also marks the supports holding only the edge's lower
    # vertex is wrong in every cache alike, so only a reference that builds
    # no rows sees it
    @pytest.mark.parametrize("f", ["5", "12", "16"])
    def test_entropy_suite_checks_rows(self, capsys, monkeypatch, f):
        def loose(self, i):
            row = self._rows[i]
            if row is None:
                u, v = graphs.edge_ends(self.f)[i]
                both = 1 << u | 1 << v
                row = self._rows[i] = np.arange(self.total, dtype=np.uint16) & both
                row[(row != both) & (row != 1 << u)] = 0
            return row

        monkeypatch.setattr(EntropyCache, "_row", loose)
        code, out, _ = run_cli(capsys, "verify", "--suite", "entropy", "--f", f, "--q", "2")
        assert code == EXIT_VERIFY
        assert "FAIL carried codes vs enumeration" in out

    def test_entropy_suite_checks_support_sums(self, capsys, monkeypatch):
        # at q >= 3 every miss is a support sum, which enumeration recomputes
        argv = ("verify", "--suite", "entropy", "--f", "5", "--q", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "PASS support sums vs enumeration: 0 of" in out
        assert "carried codes" not in out
        tally = EntropyCache._support_tally

        def shifted(self, mask):
            counts, multiplicities = tally(self, mask)
            return counts + 1, multiplicities

        monkeypatch.setattr(EntropyCache, "_support_tally", shifted)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_VERIFY
        assert "FAIL support sums vs enumeration" in out

    @pytest.mark.parametrize("suite,q", [
        ("graph", "5"), ("coloring", "3"), ("remarks", "7"), ("paths", "7"), ("graph", "2"),
    ])
    def test_q_refused_outside_the_entropy_suite(self, capsys, monkeypatch, suite, q):
        def no_checks(*args, **kwargs):
            raise AssertionError(f"the {suite} suite ran with a --q that it does not read")

        monkeypatch.setitem(cli.SUITES, suite, no_checks)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--q", q)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --q applies to the entropy suite only\n"

    def test_entropy_suite_reads_q(self, capsys, monkeypatch):
        seen = []

        def entropy(f, q=2):
            seen.append((f, q))
            return [("recorded", True, "")]

        monkeypatch.setitem(cli.SUITES, "entropy", entropy)
        assert run_cli(capsys, "verify", "--suite", "entropy")[0] == EXIT_OK
        assert run_cli(capsys, "verify", "--suite", "entropy", "--f", "4", "--q", "5")[0] == EXIT_OK
        assert seen == [(6, 2), (4, 5)]

    def test_default_f(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paths")
        assert code == EXIT_OK
        assert "34 states" in out

    def test_every_admitted_f_has_a_class_count(self):
        # without one, the paths suite fails its class-count check at an f it admits
        assert set(KNOWN_CLASS_COUNTS) == set(range(2, search.PATH_COUNT_LIMIT + 1))

    def test_every_admitted_f_has_a_path_count(self):
        # without one, the paths suite fails its path-count check at an f it admits
        assert set(KNOWN_PATH_COUNTS) == set(range(2, search.PATH_COUNT_LIMIT + 1))

    def test_paths_reports_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paths", "--f", "5")
        assert code == EXIT_OK
        assert "PASS distinct addition paths: 657 paths for f=5\n" in out

    def test_wrong_path_count_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.KNOWN_PATH_COUNTS, 5, 658)
        code, out, _ = run_cli(capsys, "verify", "--suite", "paths", "--f", "5")
        assert code == EXIT_VERIFY
        assert "FAIL distinct addition paths: 657 paths for f=5\n" in out

    # a vertex count outside [2, 16] is a usage error here as in every other
    # suite; the path count's own guard refuses f = 9..16
    @pytest.mark.parametrize("f,exit_code,message", [
        ("1", EXIT_USAGE, "vertex count must be an integer in [2, 16], got 1"),
        ("17", EXIT_USAGE, "vertex count must be an integer in [2, 16], got 17"),
        ("9", EXIT_GUARD, "supported for 2 <= f <= 8, got 9"),
    ])
    def test_paths_refusals(self, capsys, f, exit_code, message):
        code, out, err = run_cli(capsys, "verify", "--suite", "paths", "--f", f)
        assert code == exit_code
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqcbound.cli", "order", "--method", "ec", "--f", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["bound"] == "0.5382035621102"

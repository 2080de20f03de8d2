import json
import os
import re
import subprocess
import sys

import pytest

from pqcbound import EntropyCache, cli
from pqcbound.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _threads, build_parser, main


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
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
             "ec-seed", "eec-seed", "ldf-seed", "table-seed-unused", "table-budget-unused",
             "ebg-lex-seed"],
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

    def test_threads_default_is_affinity(self, monkeypatch):
        monkeypatch.delenv("PQC_THREADS", raising=False)
        args = build_parser().parse_args(["order", "--method", "ec", "--f", "5"])
        if hasattr(os, "sched_getaffinity"):
            assert _threads(args) == len(os.sched_getaffinity(0))
        else:
            assert _threads(args) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("env", ["0", "-2", "two"])
    def test_bad_pqc_threads_rejected(self, capsys, monkeypatch, env):
        monkeypatch.setenv("PQC_THREADS", env)
        code, out, err = run_cli(capsys, "order", "--method", "e-ec", "--f", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "PQC_THREADS" in err

    def test_pqc_threads_used_unless_flag_given(self, monkeypatch):
        monkeypatch.setenv("PQC_THREADS", "3")
        assert _threads(build_parser().parse_args(["order", "--method", "ec", "--f", "5"])) == 3
        monkeypatch.setenv("PQC_THREADS", "two")
        args = build_parser().parse_args(["order", "--method", "ec", "--f", "5", "--threads", "2"])
        assert _threads(args) == 2

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
        strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
        assert strip(out1) == strip(out2)

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
        strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
        assert strip(out1) == strip(out2)
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
        strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
        assert strip(out1) == strip(out2)
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

    def test_random_reproducible(self, capsys):
        args = ["search", "--method", "random", "--f", "6", "--budget", "50", "--seed", "41"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
        assert strip(out1) == strip(out2)


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
        code, out, err = run_cli(capsys, "table", "--f-range", text, "--methods", "ec")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    # f = 17 is past the vertex range, and 3^14 assignments past the
    # enumeration guard: both refused before the first row is computed
    @pytest.mark.parametrize("argv,exit_code,message", [
        (("--f-range", "9..17", "--methods", "ec,ldf"), EXIT_USAGE, "vertex count"),
        (("--q", "3", "--f-range", "12..14"), EXIT_GUARD, "enumeration guard"),
    ], ids=["f-17", "q3-f14"])
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
        [("entropy", "5"), ("graph", "6"), ("coloring", "8"), ("remarks", "4"), ("paths", "4")],
    )
    def test_suites_pass(self, capsys, suite, f):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--f", f)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "PASS" in out

    def test_entropy_suite_checks_carried_codes(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "entropy", "--f", "12", "--q", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "PASS carried codes vs fresh caches: 0 of" in out
        # a held base whose ranks merge classes gives wrong branch entropies;
        # the fresh caches, which rank only past 63 columns, do not
        ranks = EntropyCache._ranks

        def merged(self, *args, **kwargs):
            code, classes = ranks(self, *args, **kwargs)
            return code // 2, classes

        monkeypatch.setattr(EntropyCache, "_ranks", merged)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_VERIFY
        assert "FAIL carried codes vs fresh caches" in out

    def test_default_f(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paths")
        assert code == EXIT_OK
        assert "34 states" in out

    def test_paths_reports_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paths", "--f", "5")
        assert code == EXIT_OK
        assert "657 paths" in out


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqcbound.cli", "order", "--method", "ec", "--f", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["bound"] == "0.5382035621102"

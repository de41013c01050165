import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import opmin
import opmin.cli
from opmin import mcts
from opmin.benchgen import resultant_expr
from opmin.cli import main
from opmin.cse import Dag, DeltaScorer, _Rewriter
from opmin.expr import parse, to_string, variables
from opmin.sweep import CSV_HEADER, SweepRow, analyze_rows, read_csv

from test_expr import WORKED


@pytest.fixture
def worked(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED + "\n")
    return str(path)


@pytest.fixture
def three_vars(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("x^2*y*z + 3*x*y^2 + x*z^2 + y^2*z + 2*x*y*z\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    def test_success(self, capsys, worked):
        code, out, err = run(capsys, "simplify", worked)
        assert code == 0 and err == ""
        assert out.startswith("naive:")

    def test_simplify_accepts_input_that_cancels_to_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("x - x\n")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert "cse:    0 mul + 0 add = 0" in lines
        assert "t0 = const 0" in lines

    def test_malformed_command_line_exits_1(self, capsys, worked):
        for extra in (["--no-such-flag"], ["--schedule", "const"], ["--repeats", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["search", worked, *extra])
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n-updates", "0"], "n_updates must be >= 1"),
            (["--cp", "-1", "--n-updates", "5"], "cp must be nonnegative and finite"),
            (["--cp", "nan", "--n-updates", "5"], "cp must be nonnegative and finite"),
        ],
    )
    def test_bad_value_exits_2(self, capsys, worked, extra, message):
        code, out, err = run(capsys, "search", worked, *extra)
        assert code == 2 and out == ""
        assert err == f"opmin: error: {message}\n"

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("search", ["--seed", "-5"], "seed must be >= 0"),
            ("sweep", ["--samples", "2", "--seed", "-1"], "base_seed must be >= 0"),
        ],
        ids=["search", "sweep"],
    )
    def test_negative_seed_exits_2(self, capsys, worked, command, extra, message):
        code, out, err = run(capsys, command, worked, *extra)
        assert code == 2 and out == ""
        assert err == f"opmin: error: {message}\n"

    def test_huge_cp_on_one_variable_exits_0(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("x^2 + 3*x + x^3\n")
        code, out, err = run(capsys, "search", str(path), "--n-updates", "3", "--cp", "1e308")
        assert code == 0 and err == ""
        assert json.loads(out)["ops_total"] == 4

    def test_generate_random_negative_seed_exits_2(self, capsys):
        argv = ["generate", "random", "--vars", "2", "--terms", "3", "--seed", "-1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "opmin: error: seed must be >= 0\n"

    def test_infinite_sweep_range_exits_2(self, capsys, worked):
        code, out, err = run(capsys, "sweep", worked, "--samples", "2", "--cp-max", "inf")
        assert code == 2 and out == ""
        assert err == "opmin: error: need finite 0 < cp_min <= cp_max\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exits_2(self, capsys, worked, jobs):
        code, out, err = run(capsys, "sweep", worked, "--samples", "2", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"opmin: error: jobs must be >= 1, got {jobs}\n"

    def test_bruteforce_on_a_constant_exits_2(self, capsys, tmp_path):
        path = tmp_path / "five.txt"
        path.write_text("5\n")
        code, out, err = run(capsys, "bruteforce", str(path))
        assert code == 2 and out == ""
        assert err == "opmin: error: expression has no variables to order\n"

    @pytest.mark.parametrize("max_vars", ["0", "-1"])
    def test_bruteforce_max_vars_below_one_exits_2(self, capsys, three_vars, max_vars):
        # Refused before the variable count is compared with the guard.
        code, out, err = run(capsys, "bruteforce", three_vars, "--max-vars", max_vars)
        assert code == 2 and out == ""
        assert err == "opmin: error: max_vars must be >= 1\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.7,uct", "3 fields, expected 10"),
            ('1,nan,uct,5,forward,1,9,5,4,"x,y"', "cp must be positive and finite, got nan"),
            ('1,inf,uct,5,forward,1,9,5,4,"x,y"', "cp must be positive and finite, got inf"),
            ('1,-2,uct,5,forward,1,9,5,4,"x,y"', "cp must be positive and finite, got -2"),
            ('1,0.7,banana,5,forward,1,-5,5,4,"x,y"', "criterion must be one of uct, sa-uct, got banana"),
        ],
        ids=["short-row", "nan-cp", "inf-cp", "negative-cp", "impossible-row"],
    )
    def test_malformed_sweep_csv_exits_2(self, capsys, tmp_path, row, message):
        header = "sample,cp,criterion,n_updates,direction,seed,ops_total,ops_mul,ops_add,scheme"
        path = tmp_path / "sweep.csv"
        path.write_text(f"{header}\n{row}\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"opmin: error: sweep CSV line 2: {message}\n"

    def test_sweep_out_in_a_missing_directory_exits_2_before_running(
        self, capsys, monkeypatch, tmp_path, worked
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("run_sweep called before --out was opened")

        monkeypatch.setattr(opmin.cli, "run_sweep", must_not_run)
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run(capsys, "sweep", worked, "--samples", "2", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("opmin: error: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_empty_sweep_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == "opmin: error: unexpected sweep CSV header: []\n"

    def test_leading_byte_order_mark_is_read_past(self, capsys, tmp_path, worked):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + WORKED.encode() + b"\n")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 0 and err == ""
        assert out == run(capsys, "simplify", worked)[1]

    def test_byte_order_mark_in_mid_text_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfx + \xef\xbb\xbfy\n")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 2 and out == ""
        assert err == "opmin: error: unexpected character '\\ufeff' (at position 4)\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_csv_with_a_byte_order_mark_gives_the_plain_report(self, capsys, tmp_path, worked, fmt):
        plain, bom = tmp_path / "sweep.csv", tmp_path / "bom.csv"
        assert run(capsys, "sweep", worked, "--samples", "6", "--n-updates", "5", "--out", str(plain))[0] == 0
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "analyze", str(plain), "--format", fmt)
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, "analyze", str(bom), "--format", fmt) == expected

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simplify", str(tmp_path / "absent.txt"))
        assert code == 2
        assert err.startswith("opmin: error:")

    @pytest.mark.parametrize("over_long", [False, True], ids=["bad-exponent", "over-long-literal"])
    def test_parse_error_exits_2_with_one_line(self, capsys, tmp_path, over_long):
        if over_long:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if not limit:
                pytest.skip("int() has no digit limit here")
            text = "9" * (limit + 1) + "*x"
            message = f"integer literal longer than {limit} digits (at position 0)"
        else:
            text, message = "x ^ 0", "exponent must be a positive integer (at position 4)"
        path = tmp_path / "bad.txt"
        path.write_text(text + "\n")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 2 and out == ""
        assert err == f"opmin: error: {message}\n"

    @pytest.mark.parametrize("argv", [["simplify"], ["search", "--n-updates", "2"]], ids=["simplify", "search"])
    @pytest.mark.parametrize("template", ["{a}*{a}*x + y", "{a}*x + {a}*x"], ids=["product", "merged-sum"])
    def test_coefficient_over_the_digit_limit_exits_2(self, capsys, tmp_path, argv, template):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() has no digit limit here")
        path = tmp_path / "big.txt"
        path.write_text(template.format(a="9" * limit) + "\n")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == f"opmin: error: coefficient longer than {limit} digits\n"

    def test_unknown_scheme_atom_exits_2(self, capsys, worked):
        code, _, err = run(capsys, "simplify", worked, "--scheme", "x,w")
        assert code == 2
        assert err == "opmin: error: unknown atom 'w'\n"

    @pytest.mark.parametrize("scheme", ["x;", "x; "], ids=["empty", "blank"])
    def test_scheme_with_no_direction_after_the_separator_exits_2(self, capsys, three_vars, scheme):
        # Not a forward run that ignores --direction.
        code, out, err = run(capsys, "simplify", three_vars, "--scheme", scheme, "--direction", "backward")
        assert code == 2 and out == ""
        assert err == "opmin: error: direction must be one of forward, backward, got ''\n"

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path):
        # The 20,000-variable linear form parses in bounded memory, but the
        # scorer's exponent columns hold terms x variables entries, more
        # than this limit allows.
        path = tmp_path / "wide.txt"
        path.write_text(" + ".join(f"x{i}" for i in range(20000)) + "\n")
        code = f"""
import resource, sys
from opmin.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.exit(main(["simplify", {str(path)!r}]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(opmin.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "opmin: error: out of memory\n"
        assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["simplify"], ["search", "--n-updates", "5"], ["bruteforce"]])
def test_self_check_mismatch_exits_3(capsys, monkeypatch, worked, argv):
    # A DAG whose root is its first leaf does not evaluate like the input.
    compact = _Rewriter.compact

    def wrong_root(self):
        d = compact(self)
        return Dag(d.kinds, d.args, [0])

    assert run(capsys, *argv[:1], worked, *argv[1:])[0] == 0
    monkeypatch.setattr(_Rewriter, "compact", wrong_root)
    code, out, err = run(capsys, *argv[:1], worked, *argv[1:])
    assert code == 3 and out == ""
    assert err == "opmin: error: self-check failed: the result does not evaluate like the input\n"


@pytest.fixture
def dense(tmp_path):
    # A dense univariate polynomial nests one Horner level per degree.
    path = tmp_path / "dense.txt"
    path.write_text(" + ".join(f"x^{k}" for k in range(1, 1501)) + "\n")
    return str(path)


class TestDeepInput:
    def test_simplify_succeeds(self, capsys, dense):
        code, out, err = run(capsys, "simplify", dense)
        assert code == 0 and err == ""
        assert "cse:    1499 mul + 1499 add = 2998\n" in out

    def test_search_succeeds(self, capsys, dense):
        code, out, err = run(capsys, "search", dense, "--n-updates", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["ops_total"] == 2998


class TestJsonSchemas:
    def test_search_keys(self, capsys, worked):
        # A search prints its run's record: a sweep row, keys in CSV order.
        code, out, _ = run(capsys, "search", worked, "--n-updates", "5")
        assert code == 0
        assert list(json.loads(out)) == CSV_HEADER

    def test_simplify_keys(self, capsys, worked):
        code, out, _ = run(capsys, "simplify", worked, "--scheme", "x,y", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["naive", "horner", "cse", "scheme", "dag"]
        for part in ("naive", "horner", "cse"):
            assert list(doc[part]) == ["mul", "add", "total"]
        assert doc["cse"] == {"mul": 4, "add": 2, "total": 6}
        assert doc["scheme"] == "x,y;forward"

    def test_bruteforce_keys(self, capsys, worked):
        code, out, _ = run(capsys, "bruteforce", worked, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "ops_total",
            "ops_mul",
            "ops_add",
            "scheme",
            "direction",
            "schemes_evaluated",
            "histogram",
        ]
        assert doc["ops_total"] == 6 and doc["schemes_evaluated"] == 6
        assert doc["histogram"][0][0] == 6
        assert sum(orders for _, orders in doc["histogram"]) == 6

    def test_bruteforce_histogram_counts_every_order(self, capsys, tmp_path):
        # res(3,2): minimum 34, reached by 54 of its 5040 orders. Reversal
        # permutes the set of orders, so both directions count alike.
        path = tmp_path / "res32.txt"
        path.write_text(to_string(resultant_expr(3, 2)) + "\n")
        e = parse(path.read_text())  # the atom ids that bruteforce scores under
        scorer = DeltaScorer(e)
        direct = Counter(sum(scorer.delta(order)) for order in permutations(variables(e)))
        for direction in ("forward", "backward"):
            code, out, _ = run(capsys, "bruteforce", str(path), "--direction", direction, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["histogram"] == sorted(map(list, direct.items()))
            assert doc["histogram"][0] == [doc["ops_total"], 54] == [34, 54]
            assert sum(orders for _, orders in doc["histogram"]) == doc["schemes_evaluated"] == 5040

    def test_bruteforce_scheme_round_trips_through_simplify(self, capsys, three_vars, tmp_path):
        # "," and ";" inside a function atom's parentheses belong to it.
        atoms = tmp_path / "atoms.txt"
        atoms.write_text("f(x,y)*z + f(x,y) + z*w + 2*w*f(x,y) + g(a;b)*z + g(a;b)*w\n")
        for path in (three_vars, str(atoms)):
            code, out, _ = run(capsys, "bruteforce", path, "--direction", "backward", "--format", "json")
            assert code == 0
            best = json.loads(out)
            assert best["direction"] == "backward"
            argv = ["--scheme", best["scheme"], "--direction", best["direction"], "--format", "json"]
            code, out, _ = run(capsys, "simplify", path, *argv)
            assert code == 0
            doc = json.loads(out)
            assert doc["cse"]["total"] == best["ops_total"]
            assert doc["scheme"] == f"{best['scheme']};backward"

    def test_sweep_json_rows_match_csv_rows(self, capsys, worked):
        argv = ["sweep", worked, "--samples", "4", "--n-updates", "6", "--seed", "2"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc:
            assert list(row) == [
                "sample",
                "cp",
                "criterion",
                "n_updates",
                "direction",
                "seed",
                "ops_total",
                "ops_mul",
                "ops_add",
                "scheme",
            ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        csv_rows = {r.seed: r for r in read_csv(io.StringIO(out))}
        assert sorted(csv_rows) == [2, 3, 4, 5]
        assert {row["seed"]: SweepRow(**row) for row in doc} == csv_rows


class TestCriterionLabel:
    def search_json(self, capsys, worked, *extra):
        code, out, _ = run(capsys, "search", worked, "--n-updates", "20", "--seed", "4", *extra)
        assert code == 0
        return json.loads(out)

    def test_default_is_sa_uct(self, capsys, worked):
        assert self.search_json(capsys, worked)["criterion"] == "sa-uct"

    def test_uct_is_the_constant_schedule(self, capsys, worked, monkeypatch):
        uct = self.search_json(capsys, worked, "--criterion", "uct")
        monkeypatch.setattr(mcts, "temperature", lambda i, p: p.cp)
        const = self.search_json(capsys, worked)
        assert uct == {**const, "criterion": "uct"}

    def test_sweep_rows_carry_the_label(self, capsys, worked):
        argv = ["sweep", worked, "--samples", "3", "--n-updates", "5"]
        code, out, _ = run(capsys, *argv, "--criterion", "uct")
        assert code == 0
        header, *rows = out.splitlines()
        col = header.split(",").index("criterion")
        assert [r.split(",")[col] for r in rows] == ["uct"] * 3


def test_sweep_csv_does_not_depend_on_jobs(tmp_path, worked):
    csv = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.csv"
        argv = ["sweep", worked, "--samples", "6", "--n-updates", "10", "--seed", "3"]
        assert main([*argv, "--jobs", jobs, "--out", str(path)]) == 0
        csv.append(path.read_bytes())
    assert csv[0] == csv[1]
    assert csv[0].count(b"\n") == 7  # header and one row per sample


def test_one_point_sweep_rows_are_the_searches_of_their_seeds(capsys, three_vars):
    # The best of R runs at one cp is sweep --cp-min C --cp-max C --samples R.
    argv = ["--cp-min", "0.5", "--cp-max", "0.5", "--samples", "3", "--n-updates", "5", "--format", "json"]
    code, out, _ = run(capsys, "sweep", three_vars, *argv)
    assert code == 0
    rows = json.loads(out)
    assert [(r["cp"], r["seed"]) for r in rows] == [(0.5, k) for k in range(3)]
    for k, row in enumerate(rows):
        code, out, _ = run(capsys, "search", three_vars, "--cp", "0.5", "--n-updates", "5", "--seed", str(k))
        assert code == 0
        record = json.loads(out)
        assert {**record, "sample": k} == row


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("cp", ["0.05", "3"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("criterion", ["uct", "sa-uct"])
def test_search_prints_row_zero_of_the_one_sample_sweep(capsys, tmp_path, criterion, direction, cp, seed):
    path = tmp_path / "res32.txt"
    path.write_text(opmin.to_string(opmin.resultant_expr(3, 2)) + "\n")
    argv = ["--n-updates", "15", "--criterion", criterion, "--direction", direction, "--seed", seed]
    code, out, _ = run(capsys, "search", str(path), "--cp", cp, *argv)
    assert code == 0
    record = json.loads(out)
    one_point = ["--cp-min", cp, "--cp-max", cp, "--samples", "1", "--format", "json"]
    code, out, _ = run(capsys, "sweep", str(path), *one_point, *argv)
    assert code == 0
    assert [record] == json.loads(out)


def test_search_at_cp_zero_records_cp_zero(capsys, three_vars):
    code, out, err = run(capsys, "search", three_vars, "--cp", "0", "--n-updates", "5")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["cp"] == 0.0 and isinstance(record["cp"], float)


def test_analyze_accepts_zero_epsilon(capsys, tmp_path):
    # At epsilon 0 only cp 2.0, which holds the minimum, is good.
    path = tmp_path / "sweep.csv"
    path.write_text(",".join(CSV_HEADER) + "\n0,1.0,uct,5,forward,0,5,4,1,x\n1,2.0,uct,5,forward,1,3,2,1,x\n")
    code, out, err = run(capsys, "analyze", str(path), "--epsilon", "0")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["epsilon"] == 0.0
    assert report["roi_cp_interval"] == [pytest.approx(2**0.5), 2.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "preset", "--name", "hep-like-15"],
        ["sweep", "{worked}", "--samples", "3", "--n-updates", "5"],
    ],
    ids=["generate", "sweep"],
)
def test_out_dash_is_stdout(capsys, tmp_path, worked, argv):
    argv = [a.format(worked=worked) for a in argv]
    code, out, _ = run(capsys, *argv, "--out", "-")
    assert code == 0
    path = tmp_path / "out.txt"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


class TestSweepOut:
    ARGV = ["--samples", "3", "--n-updates", "5"]

    def rows(self, capsys, worked) -> str:
        code, out, _ = run(capsys, "sweep", worked, *self.ARGV)
        assert code == 0
        return out

    def test_failed_sweep_keeps_an_existing_file(self, capsys, tmp_path, worked):
        keep = tmp_path / "keep.csv"
        keep.write_text("keep\n")
        code, out, err = run(capsys, "sweep", worked, *self.ARGV, "--jobs", "0", "--out", str(keep))
        assert code == 2 and out == ""
        assert err == "opmin: error: jobs must be >= 1, got 0\n"
        assert keep.read_text() == "keep\n"

    @pytest.mark.parametrize("dangling", [False, True], ids=["new-file", "dangling-symlink"])
    def test_failed_sweep_leaves_no_new_file(self, capsys, tmp_path, worked, dangling):
        out = tmp_path / "out.csv"
        if dangling:
            out.symlink_to(tmp_path / "target.csv")
        before = sorted(tmp_path.iterdir())
        code, _, _ = run(capsys, "sweep", worked, *self.ARGV, "--jobs", "0", "--out", str(out))
        assert code == 2
        assert sorted(tmp_path.iterdir()) == before

    def test_sweep_replaces_a_longer_file_and_keeps_its_mode(self, capsys, tmp_path, worked):
        rows = self.rows(capsys, worked)
        path = tmp_path / "old.csv"
        path.write_text("x" * 10 * len(rows))
        path.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(path)
        assert main(["sweep", worked, *self.ARGV, "--out", str(link)]) == 0
        assert path.read_text() == rows
        assert path.stat().st_mode & 0o777 == 0o640
        assert link.is_symlink()

    def test_fifo_receives_the_rows(self, capsys, tmp_path, worked):
        rows = self.rows(capsys, worked)
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["sweep", worked, *self.ARGV, "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [rows]


def test_help_lists_the_sweep_columns_and_analyze_keys():
    doc = " ".join(opmin.cli.__doc__.split())
    assert ", ".join(CSV_HEADER) in doc
    report = analyze_rows([SweepRow(0, 1.0, "uct", 5, "forward", 0, 3, 2, 1, "x")])
    assert ", ".join(report) in doc


def test_closed_stdout_exits_quietly(worked):
    src = str(Path(opmin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "opmin.cli", "search", worked, "--n-updates", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""

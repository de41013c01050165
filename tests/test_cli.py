import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opmin
from opmin.cli import main

from test_expr import WORKED


@pytest.fixture
def worked(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED + "\n")
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

    def test_malformed_command_line_exits_1(self, capsys, worked):
        with pytest.raises(SystemExit) as exc:
            main(["search", worked, "--no-such-flag"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n-updates", "0"], "n_updates must be >= 1"),
            (["--schedule", "bogus"], "unknown schedule 'bogus'"),
        ],
    )
    def test_bad_value_exits_2(self, capsys, worked, extra, message):
        code, out, err = run(capsys, "search", worked, *extra)
        assert code == 2 and out == ""
        assert err == f"opmin: error: {message}\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simplify", str(tmp_path / "absent.txt"))
        assert code == 2
        assert err.startswith("opmin: error:")

    def test_unknown_scheme_atom_exits_2(self, capsys, worked):
        code, _, err = run(capsys, "simplify", worked, "--scheme", "x,w")
        assert code == 2
        assert err.startswith("opmin: error:")

    @pytest.mark.parametrize("command", [["simplify"], ["search", "--n-updates", "1"]])
    def test_deep_input_exits_2_with_one_line(self, capsys, tmp_path, command):
        # A dense univariate polynomial nests one Horner level per degree.
        path = tmp_path / "dense.txt"
        path.write_text(" + ".join(f"x^{k}" for k in range(1, 1501)) + "\n")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("opmin: error:")
        assert "Traceback" not in err


class TestJsonSchemas:
    def test_search_keys(self, capsys, worked):
        code, out, _ = run(capsys, "search", worked, "--n-updates", "5")
        assert code == 0
        assert list(json.loads(out)) == [
            "best_total",
            "best_mul",
            "best_add",
            "scheme",
            "direction",
            "criterion",
            "cp",
            "n_updates",
            "repeats",
            "seed",
        ]

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
        assert list(doc) == ["best_total", "best_mul", "best_add", "scheme", "schemes_evaluated"]
        assert doc["best_total"] == 6 and doc["schemes_evaluated"] == 6


class TestCriterionLabel:
    def search_json(self, capsys, worked, *extra):
        code, out, _ = run(capsys, "search", worked, "--n-updates", "20", "--seed", "4", *extra)
        assert code == 0
        return json.loads(out)

    def test_default_is_sa_uct(self, capsys, worked):
        assert self.search_json(capsys, worked)["criterion"] == "sa-uct"

    def test_uct_is_the_constant_schedule(self, capsys, worked):
        uct = self.search_json(capsys, worked, "--criterion", "uct", "--schedule", "linear")
        const = self.search_json(capsys, worked, "--schedule", "const")
        assert uct == const
        assert uct["criterion"] == "uct"

    def test_sweep_rows_carry_the_label(self, capsys, worked):
        argv = ["sweep", worked, "--samples", "3", "--n-updates", "5"]
        code, out, _ = run(capsys, *argv, "--criterion", "uct")
        assert code == 0
        header, *rows = out.splitlines()
        col = header.split(",").index("criterion")
        assert [r.split(",")[col] for r in rows] == ["uct"] * 3


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

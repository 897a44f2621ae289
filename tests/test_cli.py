import argparse
import hashlib
import importlib
import inspect
import json
import math
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

import walkcover
from walkcover.cli import build_parser, run
from walkcover.green import GreenValue
from walkcover.lattice import validate_path
from walkcover.reflect import ReductionInvariantError

SCHEMA = json.loads(
    (pathlib.Path(walkcover.__file__).parent / "output.schema.json").read_text())


@pytest.fixture
def corner_path(tmp_path):
    f = tmp_path / "corner.json"
    f.write_text("[[0,0],[1,0],[1,1]]")
    return str(f)


def _commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _engine_exceptions():
    """Every exception class that a walkcover module defines."""
    modules = [importlib.import_module(f"walkcover.{m.name}")
               for m in pkgutil.iter_modules(walkcover.__path__) if m.name != "__main__"]
    return sorted({c for m in modules for _, c in inspect.getmembers(m, inspect.isclass)
                   if issubclass(c, Exception) and c.__module__ == m.__name__},
                  key=lambda c: f"{c.__module__}.{c.__qualname__}")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")  # one compact line
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


class TestEnvelope:
    def test_exact(self, capsys, corner_path):
        code, doc = run_json(capsys, ["exact", "--target", corner_path,
                                      "--d", "2", "--L", "8"])
        assert code == 0 and doc["command"] == "exact"
        assert doc["results"]["favorable"].isdigit()
        num = int(doc["results"]["probability_num"])
        den = int(doc["results"]["probability_den"])
        assert 0 < num < den

    def test_exact_l12_within_default_budget(self, capsys, tmp_path):
        """(o,y,w,z) at L = 12 once needed --budget, when the guard counted
        (2d)^L walks; the DP's work is far below the default."""
        f = tmp_path / "oywz.json"
        f.write_text("[[0,0,0],[1,0,0],[1,1,0],[0,1,0]]")
        code, doc = run_json(capsys, ["exact", "--target", str(f), "--d", "3",
                                      "--L", "12", "--mode", "repetitions"])
        assert code == 0 and doc["results"]["favorable"] == "69773160"

    def test_mc_seed_echoed_when_omitted(self, capsys, corner_path):
        code, doc = run_json(capsys, ["mc", "--target", corner_path, "--d", "2",
                                      "--L", "4", "--walks", "500"])
        assert code == 0
        assert isinstance(doc["seed"], int)

    def test_mc_reproducible_with_seed(self, capsys, corner_path):
        argv = ["mc", "--target", corner_path, "--d", "2", "--L", "6",
                "--walks", "4000", "--seed", "12"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        assert doc1["results"]["successes"] == doc2["results"]["successes"]

    def test_green_and_hit(self, capsys):
        code, doc = run_json(capsys, ["green", "--d", "3", "--x", "1,0,0",
                                      "--tol", "1e-4"])
        assert code == 0 and abs(doc["results"]["value"] - 0.5164) < 1e-3
        code, doc = run_json(capsys, ["hit", "--d", "3", "--start", "0,0,0",
                                      "--set", "[[1,0,0],[0,1,0]]"])
        assert code == 0
        probs = [e["probability"] for e in doc["results"]["distribution"]]
        assert all(abs(p - 0.2795) < 1e-3 for p in probs)

    def test_staircase_reduce_comb(self, capsys, tmp_path, corner_path):
        code, doc = run_json(capsys, ["staircase", "--N", "3", "--d", "3"])
        assert doc["results"]["points"] == [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]
        f = tmp_path / "straight.json"
        f.write_text("[[0,0],[1,0],[2,0],[3,0]]")
        code, doc = run_json(capsys, ["reduce", "--target", str(f)])
        assert code == 0 and doc["results"]["steps"]
        tds = [s["total_difference"] for s in doc["results"]["steps"]]
        assert tds == sorted(tds, reverse=True)
        code, doc = run_json(capsys, ["comb", "--n", "2", "--m", "3"])
        assert code == 0 and doc["results"]["violations"] == []
        assert doc["results"]["collections"] == 64
        code, doc = run_json(capsys, ["comb", "--n", "1", "--m", "0"])
        assert code == 0 and doc["results"]["collections"] == 1

    def test_verify_commands(self, capsys):
        code, doc = run_json(capsys, ["verify-thm11", "--radius", "1",
                                      "--max-size", "1", "--L", "2"])
        assert code == 0 and doc["results"]["violations"] == []
        code, doc = run_json(capsys, ["verify-thm41", "--N", "2", "--d", "2",
                                      "--L", "5", "--cap", "2"])
        assert code == 0 and doc["results"]["staircase_is_max"]
        # 12 two-step paths in two orbits: 4 straight ones, 8 with a corner
        assert doc["results"]["paths"] == 12
        assert [r["orbit"] for r in doc["results"]["paths_ranked"]] == [8, 4]

    def test_monte_carlo_commands_echo_stream_version(self, capsys, tmp_path,
                                                       corner_path):
        from walkcover.rng import STREAM_VERSION
        f = tmp_path / "paths.json"
        f.write_text(json.dumps([[[0, 0], [1, 0]], [[0, 0], [0, 1]]]))
        rec = tmp_path / "run.json"
        for argv in (["mc", "--target", corner_path, "--d", "2", "--L", "4",
                      "--walks", "100", "--seed", "1", "--record", str(rec)],
                     ["compare", "--targets", str(f), "--d", "2", "--L", "4",
                      "--walks", "100", "--seed", "1"],
                     ["counterexample", "--skip-mc"]):
            _, doc = run_json(capsys, argv)
            assert doc["parameters"]["rng_stream"] == STREAM_VERSION
        assert json.loads(rec.read_text())["parameters"]["rng_stream"] == STREAM_VERSION
        _, doc = run_json(capsys, ["staircase", "--N", "2", "--d", "2"])
        assert "rng_stream" not in doc["parameters"]

    def test_compare_common_rng_flag(self, capsys, tmp_path):
        """Comparisons always run on common random numbers; the flag that
        selected independent streams is gone."""
        f = tmp_path / "paths.json"
        f.write_text(json.dumps([[[0, 0], [1, 0]], [[0, 0], [0, 1]]]))
        argv = ["compare", "--targets", str(f), "--d", "2", "--L", "10",
                "--walks", "2000", "--seed", "4"]
        code, doc = run_json(capsys, argv)
        assert code == 0 and "common_rng" not in doc["results"]
        assert len(doc["results"]["estimates"]) == 2
        assert len(doc["results"]["paired_differences"]) == 1
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--no-common-rng"])
        assert exc.value.code == 2

    def test_monotone_paths_file(self, capsys, monotone_paths_d3):
        f = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "monotone_paths_d3.json"
        assert [validate_path(p) for p in json.loads(f.read_text())] == monotone_paths_d3
        code, doc = run_json(capsys, ["compare", "--targets", str(f), "--d", "3",
                                      "--L", "50", "--walks", "512", "--seed", "1"])
        assert code == 0 and len(doc["results"]["estimates"]) == 5

    def test_counterexample_skip_mc(self, capsys):
        code, doc = run_json(capsys, ["counterexample", "--skip-mc"])
        assert code == 0
        assert doc["results"]["p_original"] > doc["results"]["p_reflected"]

    def test_counterexample_tol_reaches_bias(self, capsys, monkeypatch):
        import walkcover.hitting as hitting
        bias, seen = hitting.truncation_bias_estimate, []
        monkeypatch.setattr(hitting, "truncation_bias_estimate",
                            lambda L, p, **kw: seen.append(kw) or bias(L, p, **kw))
        code, doc = run_json(capsys, ["counterexample", "--L", "20", "--walks", "10",
                                      "--seed", "1", "--tol", "1e-4"])
        assert code == 0 and seen == [{"tol": 1e-4}]
        assert doc["results"]["mc"]["truncation_bias_estimate"] == bias(
            20, doc["results"]["p_original"], tol=1e-4)

    def test_sweep(self, capsys):
        code, doc = run_json(capsys, ["sweep", "--dmin", "3", "--dmax", "5",
                                      "--tol", "1e-3"])
        assert code == 0 and doc["results"]["trend_failures"] == []
        assert any("desk scale" in n for n in doc["notes"])


class TestOptionInventory:
    """Every command's options, pinned: a new option needs an edit here."""

    SHARED = ("--out", "--record")
    OPTIONS = {
        "exact": ("--target", "--d", "--L", "--mode", "--budget"),
        "mc": ("--seed", "--threads", "--target", "--d", "--L", "--walks", "--mode"),
        "compare": ("--format", "--seed", "--threads", "--targets", "--d", "--L",
                    "--walks", "--mode"),
        "green": ("--walk", "--d", "--x", "--tol", "--method"),
        "hit": ("--d", "--start", "--set", "--tol"),
        "counterexample": ("--seed", "--threads", "--walks", "--L", "--tol",
                           "--skip-mc"),
        "sweep": ("--format", "--dmin", "--dmax", "--tol"),
        "staircase": ("--N", "--d"),
        "reduce": ("--target",),
        "comb": ("--n", "--m"),
        "verify-thm11": ("--radius", "--max-size", "--L"),
        "verify-thm41": ("--format", "--N", "--d", "--L", "--cap"),
    }
    TABLES = {"sweep": "rows", "compare": "estimates", "verify-thm41": "paths_ranked"}
    SAMPLING = {"mc", "compare", "counterexample"}

    def test_options_per_command(self):
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in _commands().items()}
        assert got == {name: set(self.SHARED + opts)
                       for name, opts in self.OPTIONS.items()}
        assert sum(map(len, got.values())) == 76

    def test_format_and_seed_commands(self):
        commands = _commands()
        fmt = {n for n, p in commands.items() if "--format" in p._option_string_actions}
        seeded = {n for n, p in commands.items() if "--seed" in p._option_string_actions}
        assert fmt == set(self.TABLES) and seeded == self.SAMPLING
        for name, p in commands.items():
            assert p.get_default("table") == self.TABLES.get(name)


class TestFormatsAndFiles:
    def test_sweep_csv(self, capsys):
        code = run(["sweep", "--dmin", "3", "--dmax", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header.startswith("d,") and len(rows) == 2

    def test_csv_unavailable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["green", "--d", "3", "--x", "0,0,0", "--format", "csv"])
        assert exc.value.code == 2

    def test_csv_refused_before_work(self, capsys, monkeypatch):
        """``comb`` has no table: ``--format csv`` is a usage error raised
        while parsing, before the enumeration starts."""
        import walkcover.comb as comb

        def never(n, m):
            raise AssertionError("comb enumeration ran")
        monkeypatch.setattr(comb, "inequality_witnesses", never)
        with pytest.raises(SystemExit) as exc:
            run(["comb", "--n", "3", "--m", "4", "--format", "csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --format csv" in err

    def test_compare_and_thm41_csv(self, capsys, tmp_path):
        f = tmp_path / "paths.json"
        f.write_text(json.dumps([[[0, 0], [1, 0]], [[0, 0], [0, 1]]]))
        for argv, header, count in (
                (["compare", "--targets", str(f), "--d", "2", "--L", "6",
                  "--walks", "100", "--seed", "1"], "index,path,", 2),
                (["verify-thm41", "--N", "2", "--d", "2", "--L", "4", "--cap", "2"],
                 "points,", None)):
            assert run(argv + ["--format", "csv"]) == 0
            first, *rows = capsys.readouterr().out.strip().splitlines()
            assert first.startswith(header) and rows
            assert count is None or len(rows) == count

    def test_out_and_record(self, tmp_path, corner_path, capsys):
        out = tmp_path / "res.json"
        rec = tmp_path / "run.json"
        code = run(["exact", "--target", corner_path, "--d", "2", "--L", "4",
                    "--out", str(out), "--record", str(rec)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)
        assert rec.read_text() == out.read_text()
        assert json.loads(rec.read_text())["command"] == "exact"

    def test_config_file_defaults_and_flag_precedence(self, tmp_path, capsys):
        """An argument file holds one argument per line; a flag after it wins."""
        cfg = tmp_path / "args"
        cfg.write_text("--N\n2\n--d=2\n")
        _, doc = run_json(capsys, ["staircase", f"@{cfg}"])
        assert doc["results"]["points"] == [[0, 0], [1, 0], [1, 1]]
        _, doc = run_json(capsys, ["staircase", f"@{cfg}", "--N", "3"])
        assert doc["results"]["points"] == [[0, 0], [1, 0], [1, 1], [2, 1]]

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "args"
        cfg.write_text("--d\n3\n--walks\n10\n")
        with pytest.raises(SystemExit) as exc:
            run(["staircase", f"@{cfg}", "--N", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --walks 10" in err

    def test_config_file_missing(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        with pytest.raises(SystemExit) as exc:
            run(["staircase", f"@{missing}", "--N", "2", "--d", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and "No such file" in err


class TestParserReuse:
    """The parser is built once per process; runs must not leak into
    each other through it."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_config_defaults_do_not_stick(self, tmp_path, capsys):
        cfg = tmp_path / "args"
        cfg.write_text("--tol=1e-3\n--method=stepsum\n")
        argv = ["green", "--d", "3", "--x", "1,0,0"]
        _, doc = run_json(capsys, argv + [f"@{cfg}"])
        assert doc["parameters"]["tol"] == 1e-3 and doc["results"]["method"] == "stepsum"
        _, doc = run_json(capsys, argv)
        assert doc["parameters"]["tol"] == 1e-4 and doc["results"]["method"] == "fourier"

    def test_usage_error_then_valid_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["staircase", "--N", "2"])
        assert exc.value.code == 2
        code, doc = run_json(capsys, ["staircase", "--N", "2", "--d", "2"])
        assert code == 0 and doc["results"]["points"] == [[0, 0], [1, 0], [1, 1]]

    @pytest.mark.parametrize("argv", [
        ["mc", "--d", "2", "--L", "4", "--walks", "200", "--seed", "3"],
        ["comb", "--n", "2", "--m", "2"],
        ["verify-thm41", "--N", "2", "--d", "2", "--L", "4", "--cap", "2"]])
    def test_repeat_runs_give_equal_envelopes(self, capsys, corner_path, argv):
        if argv[0] == "mc":
            argv = argv + ["--target", corner_path]
        docs = [run_json(capsys, argv)[1] for _ in range(2)]
        for doc in docs:
            del doc["started"], doc["finished"]
        assert docs[0] == docs[1]


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["exact", "--d", "2"])  # argparse: missing required args
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error: walkcover exact:")

    @pytest.mark.parametrize("argv", [
        ["staircase", "--N", "2", "--d", "2", "--out"],
        ["staircase", "--N", "2", "--d", "2", "--record"],
        ["sweep", "--dmax", "4", "--format", "csv", "--out"],
        ["sweep", "--dmax", "4", "--format", "csv", "--record"]])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        code = run(argv + [str(tmp_path / "missing" / "x.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input error:")

    def test_closed_stdout(self, tmp_path):
        """A stdout pipe whose reader has gone exits 2 with one stderr line
        and no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(walkcover.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "walkcover.cli", "staircase", "--N", "2", "--d", "2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.count("\n") == 1 and err.startswith("output error:")

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
    def test_seed_outside_64_bits(self, capsys, corner_path, seed):
        """Seeds wrapped modulo 2**64 once, so these drew the walks of
        2**64 - 1 while echoing a different seed."""
        code = run(["mc", "--target", corner_path, "--d", "2", "--L", "10",
                    "--walks", "100", "--seed", seed])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "seed" in err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, capsys, corner_path, seed):
        code, doc = run_json(capsys, ["mc", "--target", corner_path, "--d", "2",
                                      "--L", "10", "--walks", "100", "--seed", str(seed)])
        assert code == 0 and doc["seed"] == seed

    def test_bad_input_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("[[0,0],[5,5]]")
        code = run(["exact", "--target", str(f), "--d", "2", "--L", "4"])
        assert code == 2

    def test_missing_file(self, capsys):
        code = run(["exact", "--target", "/nonexistent.json", "--d", "2", "--L", "4"])
        assert code == 2

    def test_violation_exit_code_path(self, capsys, monkeypatch):
        """A failed theorem-shaped check exits 1 (distinct from usage=2)."""
        import walkcover.exact as ex
        fake = ex.ReflectionSweepReport(1, ((1, (), ((0, 1),), 0, 1),))
        monkeypatch.setattr(ex, "reflection_monotonicity_sweep",
                            lambda **kw: fake)
        code = run(["verify-thm11", "--radius", "1", "--max-size", "1", "--L", "1"])
        assert code == 1

    def test_sweep_trend_failure_exit_code(self, capsys, monkeypatch):
        """A failed trend check exits 1 and lists what failed: made-up
        G_4(0) = 1.24 and G_5(0) = 1.09 put p_5 below 1/10 and E_5 below 0."""
        import walkcover.green as green
        g0, p_diag = {4: 1.24, 5: 1.09}, {4: 0.30, 5: 0.20}
        monkeypatch.setattr(green, "green_value", lambda spec, x, tol: green.GreenValue(
            g0[spec.d], 0.0, "fourier"))
        monkeypatch.setattr(green, "return_probability", lambda spec, tol: (
            1 - 1 / g0[spec.d] if spec.kind == "simple" else p_diag[spec.d]))
        code, doc = run_json(capsys, ["sweep", "--dmin", "4", "--dmax", "5"])
        assert code == 1 and doc["exit_code"] == 1
        assert doc["results"]["trend_failures"] == [
            "2d*p_d <= 1 at d=5", "p_d outside (1/2d, 1) at d=5"]

    def test_comb_violation_reported(self, capsys, monkeypatch):
        """A collection failing the inequality exits 1 and names its arcs
        and witness: collection 6 of shape (2, 2) is ({1}, {2})."""
        import walkcover.comb as comb
        planted = -np.ones(16, dtype=np.int32)
        planted[6] = 0b10
        monkeypatch.setattr(comb, "inequality_witnesses", lambda n, m: planted)
        code, doc = run_json(capsys, ["comb", "--n", "2", "--m", "2"])
        assert code == 1 and doc["exit_code"] == 1
        assert doc["results"]["violations"] == [{"arcs": [[1], [2]], "witness": [2]}]

    @pytest.mark.parametrize("L", ["0", "-3"])
    def test_thm11_needs_a_length(self, capsys, L):
        code = run(["verify-thm11", "--L", L])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "lengths >= 1" in err
        assert f"L = {L}" in err

    def test_exact_budget_guard(self, capsys, corner_path):
        t0 = time.monotonic()
        code = run(["exact", "--target", corner_path, "--d", "2", "--L", "2000"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "budget" in err
        assert elapsed < 1

    def test_comb_work_guard(self, capsys):
        t0 = time.monotonic()
        code = run(["comb", "--n", "5", "--m", "5"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "guard" in err
        assert elapsed < 1

    @pytest.mark.parametrize("option", [["--L", "20"], ["--radius", "50"],
                                        ["--L", "0", "--radius", "100000"]])
    def test_thm11_work_guard(self, capsys, option):
        t0 = time.monotonic()
        code = run(["verify-thm11"] + option)
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "guard" in err
        assert elapsed < 1

    @pytest.mark.parametrize("option", [["--cap", "20000"], ["--d", "3000000"],
                                        ["--cap", "100000000"], ["--cap", "100000000000"]])
    def test_thm41_astronomical_work(self, capsys, option):
        t0 = time.monotonic()
        code = run(["verify-thm41"] + option)
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "budget" in err
        assert elapsed < 0.1

    @pytest.mark.parametrize("option", [["--N", "2", "--cap", "1"], ["--d", "0"],
                                        ["--N", "-1"]])
    def test_thm41_no_connecting_path(self, capsys, option):
        code = run(["verify-thm41"] + option)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "input error" in err

    @pytest.mark.parametrize("points", ["[1,2]", "[[1,0,0],[0,1,null]]", "[[1,0,0.5]]"])
    def test_hit_set_not_integer_arrays(self, capsys, points):
        code = run(["hit", "--d", "3", "--start", "0,0,0", "--set", points])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "integers" in err

    @pytest.mark.parametrize("paths", ["[5]", "{}", "[[[0,0],[1,null]]]"])
    def test_compare_targets_not_paths(self, capsys, tmp_path, paths):
        f = tmp_path / "targets.json"
        f.write_text(paths)
        code = run(["compare", "--targets", str(f), "--d", "2", "--L", "4",
                    "--walks", "10", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "input error" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", [
        ["green", "--d", "3", "--x", "1,0,0"],
        ["green", "--d", "3", "--x", "1,0,0", "--method", "stepsum"],
        ["hit", "--d", "3", "--start", "0,0,0", "--set", "[[1,0,0],[0,1,0]]"],
        ["sweep", "--dmax", "4"],
        ["counterexample", "--skip-mc"]])
    def test_tolerance_must_be_finite_and_positive(self, capsys, command, tol):
        code = run(command + [f"--tol={tol}"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "tol" in err

    @pytest.mark.parametrize("L", ["0", "-1"])
    def test_counterexample_needs_a_step(self, capsys, L):
        t0 = time.monotonic()
        code = run(["counterexample", "--L", L, "--walks", "10", "--seed", "1"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "L >= 1" in err
        assert elapsed < 5

    @pytest.mark.parametrize("option, message", [
        ("--threads", "threads >= 1"), ("--walks", "n_walks >= 1"), ("--L", "L >= 1")])
    def test_counterexample_skip_mc_checks_mc_parameters(self, capsys, option, message):
        """--skip-mc refuses the values the Monte Carlo part refuses."""
        code = run(["counterexample", "--skip-mc", option, "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["exact", "--target", "corner.json", "--d", "3", "--L", "2"],
         "has dimension 2, not d = 3"),
        (["exact", "--target", "corner.json", "--d", "2", "--L", "-1"], "L must be >= 0"),
        (["compare", "--targets", "empty.json", "--d", "2", "--L", "4", "--walks", "10",
          "--seed", "1"], "no targets"),
        (["sweep", "--dmin", "2"], "need 3 <= d_min <= d_max"),
        (["staircase", "--N", "0", "--d", "2"], "need N >= 1 and d >= 1"),
        (["green", "--walk", "diagdiff", "--d", "1", "--x", "0"], "dimension too small"),
        (["comb", "--n", "0", "--m", "1"], "need n >= 1 and m >= 0, got n=0, m=1"),
        (["reduce", "--target", "dimensionless.json"], "dimension must be >= 1"),
        (["exact", "--target", "dimensionless.json", "--d", "2", "--L", "2"],
         "dimension must be >= 1")])
    def test_input_refused(self, capsys, tmp_path, monkeypatch, argv, message):
        """Each refusal exits 2 with one stderr line naming its cause and
        nothing on stdout."""
        monkeypatch.chdir(tmp_path)
        for name, text in (("corner.json", "[[0,0],[1,0],[1,1]]"), ("empty.json", "[]"),
                           ("dimensionless.json", "[[]]")):
            (tmp_path / name).write_text(text)
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error:") and message in captured.err

    def test_negative_radius(self, capsys):
        """An empty box would pass vacuously, with 6 cases of empty sets."""
        code = run(["verify-thm11", "--radius", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "radius >= 0" in captured.err

    @pytest.mark.parametrize("argv", [
        ["green", "--walk", "simple", "--d", "200", "--x", ",".join(["0"] * 200)],
        ["hit", "--d", "130", "--start", ",".join(["0"] * 130),
         "--set", json.dumps([[1] + [0] * 129])],
        ["sweep", "--dmin", "115", "--dmax", "121"]])
    def test_high_dimension(self, capsys, argv):
        """The fourier route holds in every dimension; at d = 200 stepsum
        agrees with it within their combined bounds."""
        code, doc = run_json(capsys, argv)
        assert code == 0 and doc["results"].get("trend_failures", []) == []
        if argv[0] == "green":
            _, step = run_json(capsys, argv + ["--method", "stepsum"])
            four, step = doc["results"], step["results"]
            assert (abs(four["value"] - step["value"])
                    <= four["abs_error_bound"] + step["abs_error_bound"])

    @pytest.mark.parametrize("argv", [
        ["green", "--method", "stepsum", "--d", "352", "--x", ",".join(["0"] * 352)],
        ["green", "--method", "stepsum", "--d", "346", "--x", ",".join(["1"] + ["0"] * 345)],
        ["green", "--walk", "diagdiff", "--method", "stepsum", "--d", "347",
         "--x", ",".join(["0"] * 346)],
        ["green", "--method", "stepsum", "--d", "400", "--x", ",".join(["0"] * 400)]])
    def test_high_dimension_overflow(self, capsys, argv):
        """Past dimension 345 stepsum's tail overflows a float: a numerical
        error naming the limit, never a NaN in the envelope."""
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical error:")
        assert "stepsum reaches dimension 345" in captured.err

    def test_far_point_past_bessel_range(self, capsys):
        """At |x| = 10 000 and d = 3 the panels pass t/d = 2^30, where
        scipy's ive is NaN; the Bessel kernels hold there, and the value
        follows 3 / (2 pi |x|) (1 + O(|x|^-2)) as the far-point asymptote
        test has it.  A point inside the old range still gets its value."""
        code, doc = run_json(capsys, ["green", "--d", "3", "--x", "10000,0,0", "--tol", "1e-6"])
        value = doc["results"]["value"]
        assert code == 0 and doc["results"]["abs_error_bound"] <= 1e-6
        assert abs(value - 3 / (2 * math.pi * 10000)) <= 1e-6 * value
        code, doc = run_json(capsys, ["green", "--d", "3", "--x", "3000,0,0", "--tol", "1e-6"])
        assert code == 0 and doc["results"]["abs_error_bound"] <= 1e-6

    @pytest.mark.parametrize("argv, order", [
        (["green", "--d", "3", "--x", "16385,0,0"], 16385),
        (["green", "--walk", "diagdiff", "--d", "4", "--x", "2147483648,0,0"], 2147483660),
        (["hit", "--d", "3", "--start", "0,0,0", "--set", "[[20000,0,0]]"], 20000)])
    def test_far_point_past_the_order_cap(self, capsys, argv, order):
        """The recurrence runs one row per Bessel order, so past
        FOURIER_MAX_ORDER = 2^14 the fourier route refuses before it forms
        a table or a level, and names the order the point needs."""
        t0 = time.monotonic()
        code = run(argv)
        captured = capsys.readouterr()
        assert time.monotonic() - t0 < 0.5
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("numerical error:")
        assert "fourier tabulates Bessel orders up to 16384; x = " in captured.err
        assert captured.err.endswith(f"needs order {order}\n")

    #: (class, exit code, stderr prefix); every engine exception fits exactly one row
    ENGINE_EXIT_CODES = [(ValueError, 2, "input error: "),
                         (ArithmeticError, 2, "numerical error: "),
                         (ReductionInvariantError, 1, "violation: ")]

    @pytest.mark.parametrize("cls", _engine_exceptions(), ids=lambda c: c.__name__)
    def test_every_engine_exception_has_an_exit_code(self, capsys, monkeypatch, cls):
        """Each exception class in src/, raised inside a command, exits with
        its row's code and one stderr line under its row's prefix."""
        import walkcover.lattice as lattice
        rows = [row for row in self.ENGINE_EXIT_CODES if issubclass(cls, row[0])]
        assert len(rows) == 1, f"{cls.__module__}.{cls.__name__} fits {len(rows)} rows"
        _, expected_code, prefix = rows[0]

        def failing(N, d):
            raise cls.__new__(cls, "planted")  # args alone: some __init__s take more
        monkeypatch.setattr(lattice, "staircase_path", failing)
        code = run(["staircase", "--N", "2", "--d", "2"])
        captured = capsys.readouterr()
        assert code == expected_code and captured.out == ""
        assert captured.err == f"{prefix}planted\n"

    def test_engine_exceptions_found(self):
        assert {c.__name__ for c in _engine_exceptions()} >= {
            "ToleranceUnreachableError", "SingularSystemError", "ReductionInvariantError"}

    def test_memory_error(self, capsys, monkeypatch):
        """Exhausted memory is an input-scale failure: exit 2, one line."""
        import walkcover.lattice as lattice

        def exhausted(N, d):
            raise MemoryError
        monkeypatch.setattr(lattice, "staircase_path", exhausted)
        code = run(["staircase", "--N", "2", "--d", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "memory error: out of memory\n"

    def test_green_method_auto_retired(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["green", "--d", "3", "--x", "0,0,0", "--method", "auto"])
        assert exc.value.code == 2

    def test_unreachable_tolerance(self, capsys):
        code = run(["green", "--d", "3", "--x", "0,0,0", "--method", "fourier",
                    "--tol", "1e-14"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "tol" in err

    def test_singular_first_entry_system(self, capsys, monkeypatch):
        import walkcover.hitting as hitting
        monkeypatch.setattr(hitting, "green_value", lambda spec, x, tol: GreenValue(
            1.0, 0.0, "fourier"))
        code = run(["hit", "--d", "3", "--start", "0,0,0",
                    "--set", "[[1,0,0],[0,1,0]]"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Singular" in err

    def test_green_routes_disagree(self, capsys, monkeypatch):
        """A stepsum value moved by 1e-2 under a stated bound of 1e-9 is a
        numerical error under --method both, not a value."""
        import walkcover.green as green
        real = green.stepsum_green
        monkeypatch.setattr(green, "stepsum_green", lambda spec, x, tol: green.GreenValue(
            real(spec, x, tol).value + 1e-2, 1e-9, "stepsum"))
        green._green_cached.cache_clear()
        try:
            code = run(["green", "--d", "3", "--x", "1,0,0", "--method", "both"])
        finally:
            green._green_cached.cache_clear()  # the moved value must not outlive the test
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: methods disagree")

    def test_stepsum_refuses_recurrent_walk(self, capsys):
        code = run(["green", "--d", "2", "--x", "0,0", "--method", "stepsum"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: G diverges for simple with dim 2\n"

    def test_packed_coordinate_range(self, capsys, tmp_path):
        """At L = 400 a coordinate takes 10 bits, and ten of them pass the
        62 bits of a packed key."""
        f = tmp_path / "d10.json"
        f.write_text(json.dumps([[0] * 10, [1] + [0] * 9]))
        code = run(["mc", "--target", str(f), "--d", "10", "--L", "400",
                    "--walks", "10", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("input error: d=10, L=400 exceeds the "
                                "packed-coordinate range\n")

    def test_first_entry_out_of_range(self, capsys, monkeypatch):
        """Made-up Green values, 1 at the origin and 2 elsewhere, give an
        entry probability of 2: a numerical error, not a distribution."""
        import walkcover.hitting as hitting
        monkeypatch.setattr(hitting, "green_value", lambda spec, x, tol: GreenValue(
            2.0 if any(x) else 1.0, 0.0, "fourier"))
        code = run(["hit", "--d", "3", "--start", "0,0,0", "--set", "[[1,0,0]]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: entry probabilities out of range")

    def test_reduce_invariant_violation(self, capsys, monkeypatch, tmp_path):
        import walkcover.reflect as rf
        monkeypatch.setattr(rf, "canonical_representative", lambda path, h: path)
        f = tmp_path / "straight.json"
        f.write_text("[[0,0],[1,0],[2,0],[3,0]]")
        code = run(["reduce", "--target", str(f)])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and "total difference" in err


class TestThreadCount:
    MC = ["mc", "--d", "2", "--L", "4", "--walks", "100", "--seed", "1"]

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_option_value(self, capsys, corner_path, value):
        """A non-integer is a usage error; a count below 1 an input error."""
        argv = self.MC + ["--target", corner_path, "--threads", value]
        if value == "abc":
            with pytest.raises(SystemExit) as exc:
                run(argv)
            code = exc.value.code
        else:
            code = run(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "threads" in err

    def test_resolved_count_echoed(self, capsys, corner_path):
        _, doc = run_json(capsys, self.MC + ["--target", corner_path])
        assert doc["parameters"]["threads"] == 1
        _, doc = run_json(capsys, self.MC + ["--target", corner_path, "--threads", "2"])
        assert doc["parameters"]["threads"] == 2


def _connecting_path(rng: random.Random, d: int, N: int) -> list[list[int]]:
    """A random nearest-neighbour path from 0 that first reaches L1 norm
    N at its last point, outward steps favoured, with no zero coordinate
    at that point."""
    while True:
        pos = [0] * d
        pts = [list(pos)]
        while sum(map(abs, pos)) < N:
            axis = rng.randrange(d)
            outward = 1 if pos[axis] >= 0 else -1
            pos[axis] += outward if rng.random() < 0.7 else -outward
            pts.append(list(pos))
        if all(pos):
            return pts


def _results_digest(capsys, argv_list) -> str:
    results = []
    for argv in argv_list:
        code, doc = run_json(capsys, argv)
        assert code == 0
        results.append(doc["results"])
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


class TestPinnedResults:
    """The results of ``reduce`` and ``verify-thm41``, byte for byte, as
    sha256 digests of their sorted-key JSON."""

    def test_reduce_chains(self, capsys, tmp_path):
        rng, argv_list = random.Random(0), []
        for k in range(8):
            f = tmp_path / f"path{k}.json"
            f.write_text(json.dumps(_connecting_path(rng, 4, 20)))
            argv_list.append(["reduce", "--target", str(f)])
        assert _results_digest(capsys, argv_list) == (
            "c2c794a86c51c542f6a61afddca2867d81f3bfc30c7c666fe5299520fc7ffaa4")

    def test_verify_thm41_ranking(self, capsys):
        argv = ["verify-thm41", "--N", "3", "--d", "2", "--L", "9", "--cap", "7"]
        assert _results_digest(capsys, [argv]) == (
            "c4bdb47bb305390209c48abef9492452088028b135a4f6f2df4267ee5bf7b9be")

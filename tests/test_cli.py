import json
import pathlib

import jsonschema
import pytest

import walkcover
from walkcover.cli import run

SCHEMA = json.loads(
    (pathlib.Path(walkcover.__file__).parent / "output.schema.json").read_text())


@pytest.fixture
def corner_path(tmp_path):
    f = tmp_path / "corner.json"
    f.write_text("[[0,0],[1,0],[1,1]]")
    return str(f)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
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

    def test_verify_commands(self, capsys):
        code, doc = run_json(capsys, ["verify-thm11", "--radius", "1",
                                      "--max-size", "1", "--L", "2"])
        assert code == 0 and doc["results"]["violations"] == []
        code, doc = run_json(capsys, ["verify-thm41", "--N", "2", "--d", "2",
                                      "--L", "5", "--cap", "2"])
        assert code == 0 and doc["results"]["staircase_is_max"]

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
        f = tmp_path / "paths.json"
        f.write_text(json.dumps([[[0, 0], [1, 0]], [[0, 0], [0, 1]]]))
        argv = ["compare", "--targets", str(f), "--d", "2", "--L", "10",
                "--walks", "2000", "--seed", "4"]
        code, doc = run_json(capsys, argv)
        assert code == 0 and doc["results"]["common_rng"] is True
        assert len(doc["results"]["estimates"]) == 2
        assert len(doc["results"]["paired_differences"]) == 1
        code, doc = run_json(capsys, argv + ["--no-common-rng"])
        assert doc["results"]["common_rng"] is False

    def test_counterexample_skip_mc(self, capsys):
        code, doc = run_json(capsys, ["counterexample", "--skip-mc"])
        assert code == 0
        assert doc["results"]["p_original"] > doc["results"]["p_reflected"]

    def test_sweep(self, capsys):
        code, doc = run_json(capsys, ["sweep", "--dmin", "3", "--dmax", "5",
                                      "--tol", "1e-3"])
        assert code == 0 and doc["results"]["trend_failures"] == []
        assert any("desk scale" in n for n in doc["notes"])


class TestFormatsAndFiles:
    def test_sweep_csv(self, capsys):
        code = run(["sweep", "--dmin", "3", "--dmax", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header.startswith("d,") and len(rows) == 2

    def test_csv_unavailable(self, capsys):
        code = run(["green", "--d", "3", "--x", "0,0,0", "--format", "csv"])
        assert code == 2

    def test_out_and_record(self, tmp_path, corner_path, capsys):
        out = tmp_path / "res.json"
        rec = tmp_path / "run.json"
        code = run(["exact", "--target", corner_path, "--d", "2", "--L", "4",
                    "--out", str(out), "--record", str(rec)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)
        record = json.loads(rec.read_text())
        assert record["command"] == "exact"
        assert record["tool_version"] == walkcover.__version__
        assert record["results"] == doc["results"]

    def test_config_file_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 2, "d": 2}))
        _, doc = run_json(capsys, ["--config", str(cfg), "staircase"])
        assert doc["results"]["points"] == [[0, 0], [1, 0], [1, 1]]
        _, doc = run_json(capsys, ["--config", str(cfg), "staircase", "--N", "3"])
        assert doc["results"]["points"] == [[0, 0], [1, 0], [1, 1], [2, 1]]


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["exact", "--d", "2"])  # argparse: missing required args
        assert exc.value.code == 2

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
        fake = ex.ReflectionSweepReport(2, ex.Hyperplane(0, 1, 1), 1, 1, (1,),
                                        1, ((1, (), ((0, 1),), 0, 1),))
        monkeypatch.setattr(ex, "reflection_monotonicity_sweep",
                            lambda **kw: fake)
        code = run(["verify-thm11", "--radius", "1", "--max-size", "1", "--L", "1"])
        assert code == 1

class TestThreadCount:
    MC = ["mc", "--d", "2", "--L", "4", "--walks", "100", "--seed", "1"]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_environment_value(self, capsys, monkeypatch, corner_path, value):
        monkeypatch.setenv("WALKCOVER_THREADS", value)
        assert run(self.MC + ["--target", corner_path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "WALKCOVER_THREADS" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_option_value(self, capsys, corner_path, value):
        assert run(self.MC + ["--target", corner_path, "--threads", value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--threads" in err

    def test_commands_without_threads_ignore_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKCOVER_THREADS", "abc")
        code, _ = run_json(capsys, ["staircase", "--N", "2", "--d", "2"])
        assert code == 0

    def test_resolved_count_echoed(self, capsys, monkeypatch, corner_path):
        monkeypatch.setenv("WALKCOVER_THREADS", "3")
        _, doc = run_json(capsys, self.MC + ["--target", corner_path])
        assert doc["parameters"]["threads"] == 3
        _, doc = run_json(capsys, self.MC + ["--target", corner_path, "--threads", "2"])
        assert doc["parameters"]["threads"] == 2

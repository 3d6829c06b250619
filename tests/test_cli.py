"""Tests for the command-line interface.

Each subcommand is exercised in-process through ``main(argv)`` so stdout,
stderr, and the exit code can be asserted together; one smoke test resolves
the console-script entry point declared in ``pyproject.toml`` and runs it in a
fresh interpreter the way the installed wrapper does, so it needs no install.
Numeric output is checked against the library
calls the commands wrap, never against re-derived values.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degwin import cli, harness
from degwin.asymptotics import predict, twopath_constants
from degwin.cli import THRESHOLD_FIELDS, main
from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.graph import from_jsonl_line, to_jsonl_line
from degwin.harness import (
    ExperimentConfig,
    compare_theory,
    parse_csv,
    render_csv,
    run_experiment,
)
from degwin.sampler import sample_simple_graph, trial_generator


class TestThreshold:
    def test_text_output(self, capsys):
        assert main(["threshold", "--degrees", "1,3"]) == 0
        out = capsys.readouterr().out
        cp = critical_point(parse_degree_set("1,3"))
        lines = out.strip().split("\n")
        assert [line.split(" = ")[0] for line in lines] == list(THRESHOLD_FIELDS)
        values = {k: float(v) for k, v in (line.split(" = ") for line in lines)}
        assert values["zhat"] == pytest.approx(cp.zhat, rel=1e-11)
        assert values["alpha"] == pytest.approx(0.75, rel=1e-11)
        assert values["rho"] == pytest.approx(cp.rho, rel=1e-11)

    def test_json_output(self, capsys):
        assert main(["threshold", "--degrees", "0,1,4,5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ds = parse_degree_set("0,1,4,5")
        cp = critical_point(ds)
        assert doc["degrees"] == str(ds)
        for field in THRESHOLD_FIELDS:
            assert doc[field] == getattr(cp, field)


class TestPredict:
    def test_text_output(self, capsys):
        assert main(["predict", "--degrees", "1,3", "--mu", "0"]) == 0
        out = capsys.readouterr().out
        cp = critical_point(parse_degree_set("1,3"))
        pred = predict(cp, 0.0, "scaled", 20)
        assert out.startswith("mu = +0\n")
        assert f"survival  = {pred.survival:.6f}" in out
        assert f"P(0)={pred.excess_dist[0]:.5f}" in out
        assert f"planarity = {pred.planarity:.6f}" in out
        assert "b1 =" in out

    def test_json_rows_match_library(self, capsys):
        assert main(["predict", "--degrees", "1,3", "--mu=-2,0", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        cp = critical_point(parse_degree_set("1,3"))
        assert [row["mu"] for row in rows] == [-2.0, 0.0]
        for row in rows:
            pred = predict(cp, row["mu"], "scaled", 20)
            two = twopath_constants(cp, row["mu"], q=1)
            assert "variant" not in row
            assert row["survival"] == pred.survival
            for q in range(7):
                assert row[f"p{q}"] == pred.excess_dist[q]
            assert row["planarity"] == pred.planarity
            assert row["b1"] == two.b1
            assert row["b2"] == two.b2

    def test_csv_rows_match_library(self, capsys):
        assert main(["predict", "--degrees", "1,3", "--mu=-1,0", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["mu", "survival"]
        assert "p0" in header and "p6" in header and "b2" in header
        body = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in body] == [-1.0, 0.0]
        cp = critical_point(parse_degree_set("1,3"))
        for row in body:
            pred = predict(cp, float(row[0]), "scaled", 20)
            assert float(row[1]) == pytest.approx(pred.survival, rel=1e-8)

    @pytest.mark.parametrize("command", ["predict", "experiment"])
    def test_variant_flag_is_gone(self, command, capsys):
        # The printed form of the window function cancels in every
        # normalised number, so neither command takes it.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--degrees", "1,3", "--mu", "0", "--variant", "plain"])
        assert excinfo.value.code == 2
        assert "--variant" in capsys.readouterr().err

    def test_qmax_flag_reaches_prediction(self, capsys):
        assert main(["predict", "--degrees", "1,3", "--mu", "0", "--qmax", "3"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "q_max" in line

    def test_missing_mu_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--degrees", "1,3"])
        assert excinfo.value.code == 2


_EXPERIMENT = ["--degrees", "1,3", "--n", "8", "--m", "3", "--seed", "1"]
_FEASIBLE = ["--degrees", "1,3", "--n", "8", "--m", "4", "--seed", "1"]


def _assert_error_line(argv, name, text, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {name}: ")
    assert text in line


class TestPackageErrors:
    """The package's own errors end a command with exit code 2 and one
    line on stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (["threshold", "--degrees", "foo!!"], "DegreeSetError", "unrecognised"),
            (["predict", "--degrees", "2,4", "--mu", "0"], "DegreeSetError", "contain 1"),
            (["predict", "--degrees", "1,3", "--mu", "25"], "OutOfRangeError", "|mu| <= 20"),
            (["predict", "--degrees", "pow2:64", "--mu", "9"], "ConvergenceError", "precision"),
            (["predict", "--degrees", "1,3", "--mu", "0", "--qmax", "3"], "OutOfRangeError", "q_max"),
            (["sample", "--degrees", "1,3", "--n", "-5", "--m", "2", "--seed", "1"], "OutOfRangeError", "n must"),
            (["sample", "--degrees", "1,3", "--n", "8", "--m", "-2", "--seed", "1"], "OutOfRangeError", "two_m"),
            (["sample", "--degrees", "1,3", "--n", "-5", "--mu", "0", "--seed", "1"], "OutOfRangeError", "n must"),
            (["sample", "--degrees", "1,3", "--n", "0", "--mu", "0", "--seed", "1"], "OutOfRangeError", "n must"),
            (["sample", "--degrees", "1,3", "--n", "8", "--m", "5", "--seed", "1", "--count", "-1"], "OutOfRangeError", "count"),
            (["experiment", *_EXPERIMENT, "--trials", "0"], "OutOfRangeError", "trials"),
            (["experiment", *_EXPERIMENT, "--jobs", "0"], "OutOfRangeError", "jobs"),
            (["experiment", "--degrees", "1,3", "--n", "0", "--m", "3", "--seed", "1"], "OutOfRangeError", "n must"),
            (["experiment", "--degrees", "1,3", "--n", "8", "--mu", "0", "--m", "5", "--seed", "1"], "OutOfRangeError", "not both"),
            (["sample", "--degrees", "1,3", "--n", "8", "--m", "5", "--seed", "-1"], "OutOfRangeError", "seed must be >= 0"),
            (["experiment", "--degrees", "1,3", "--n", "8", "--m", "5", "--trials", "2", "--seed", "-1"], "OutOfRangeError", "seed must be >= 0"),
            (["experiment", "--n", "8", "--m", "5"], "OutOfRangeError", "no degrees"),
            (["predict", "--degrees", "1,3", "--mu=", "--csv"], "OutOfRangeError", "no window location"),
            (["predict", "--degrees", "1,3", "--mu="], "OutOfRangeError", "no window location"),
            (["sample", "--degrees", "1,3", "--n", "50", "--mu", "inf", "--seed", "1"], "OutOfRangeError", "mu must be finite"),
            (["experiment", "--degrees", "1,3", "--n", "50", "--mu=nan"], "OutOfRangeError", "mu must be finite"),
            (["experiment", "--degrees", "1,3", "--n", "50", "--mu=", "--trials", "1"], "OutOfRangeError", "no window location"),
            (["experiment", "--degrees", "1,3", "--n", "50", "--m=", "--trials", "1"], "OutOfRangeError", "no edge count"),
            (["experiment", "--degrees", "1,3", "--n", "50", "--mu=0,0.01", "--trials", "1"], "OutOfRangeError",
             "mu[0] = 0.0 and mu[1] = 0.01 both give m = 38 at n = 50"),
            (["experiment", "--config", "/no/such/dir/sweep.cfg"], "OutOfRangeError", "cannot read config file"),
            (["experiment", *_FEASIBLE, "--trials", "1", "--out", "/no/such/dir/rows.csv"], "OutOfRangeError", "cannot write"),
            (["sample", *_FEASIBLE, "--out", "/no/such/dir/g.jsonl"], "OutOfRangeError", "cannot write"),
            (["experiment", *_FEASIBLE, "--trials", "1", "--qmax", "3"], "OutOfRangeError", "q_max must be >= 4"),
            (["sample", "--degrees", "1,3", "--n", "20", "--mu", "0", "--seed", "1", "--max-attempts", "-3"],
             "OutOfRangeError", "max_attempts must be >= 1, got -3"),
            (["sample", *_FEASIBLE, "--max-attempts", "0"], "OutOfRangeError", "max_attempts must be >= 1, got 0"),
            # 2m = 6 is below n*min(D) = 8, so building the weight table would fail first.
            (["sample", "--degrees", "1,3", "--n", "8", "--m", "3", "--seed", "-1"], "OutOfRangeError", "seed must be >= 0"),
            (["experiment", "--degrees", "1,3", "--n", "8", "--m", "3", "--seed", "-1"], "OutOfRangeError", "seed must be >= 0"),
            # Refused before any series is summed: unbounded, this one ran for minutes.
            (["predict", "--degrees", "1,3", "--mu=0", "--qmax", "100000"], "OutOfRangeError",
             "q_max must be <= 1200, got 100000"),
            (["experiment", *_FEASIBLE, "--trials", "1", "--qmax", "1201"], "OutOfRangeError",
             "q_max must be <= 1200, got 1201"),
        ],
    )
    def test_one_line_and_exit_2(self, argv, name, text, capsys):
        _assert_error_line(argv, name, text, capsys)

    @pytest.mark.parametrize(
        "config, text",
        [
            ("bogus line\n", "expected key=value"),
            ("degrees = 1,3\nbogus = 1\n", "unknown key"),
            ("degrees = 1,3\ntrials = abc\n", "trials"),
            ("degrees = 1,3\nn = 50\nmu =\n", "no window location"),
            ("degrees = 1,3\nn = 50\nn = 60\n", "sweep.cfg:3: key 'n' given twice"),
            ("degrees = 1,3\nn = 8\nm = 5\ntrials = 1\nmax_attempts = 0\n", "max_attempts must be >= 1, got 0"),
        ],
    )
    def test_config_file_errors(self, config, text, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(config, encoding="utf-8")
        _assert_error_line(["experiment", "--config", str(path)], "OutOfRangeError", text, capsys)

    @pytest.mark.parametrize("command", ["experiment", "sample"])
    def test_unwritable_out_fails_before_sampling(self, command, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the output path was checked")

        monkeypatch.setattr(harness, "sample_batch", refuse)
        monkeypatch.setattr(cli, "sample_batch", refuse)
        argv = [command, *_FEASIBLE]
        for out in (tmp_path / "missing" / "rows", tmp_path):
            _assert_error_line([*argv, "--out", str(out)], "OutOfRangeError", "cannot write", capsys)

    @pytest.mark.parametrize("command", ["experiment", "sample"])
    def test_failed_run_keeps_an_existing_out_file(self, command, tmp_path, capsys):
        path = tmp_path / "rows"
        path.write_text("kept\n", encoding="utf-8")
        # 2m = 6 is below n*min(D) = 8: no degree sequence exists.
        argv = [command, "--degrees", "1,3", "--n", "8", "--m", "3", "--seed", "1"]
        assert main([*argv, "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("infeasible:")
        assert path.read_text(encoding="utf-8") == "kept\n"


class TestSample:
    ARGS = ["sample", "--degrees", "1,3", "--n", "8", "--m", "5", "--seed", "9"]

    def test_jsonl_output_matches_direct_sampling(self, capsys):
        assert main([*self.ARGS, "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        ds = parse_degree_set("1,3")
        for t, line in enumerate(lines):
            g, _ = sample_simple_graph(ds, 8, 5, trial_generator(9, t))
            assert line == to_jsonl_line(g)
            parsed = from_jsonl_line(line)
            assert parsed.n == 8
            assert len(parsed.edges) == 5

    def test_repeat_runs_are_identical(self, capsys):
        main([*self.ARGS, "--count", "2"])
        first = capsys.readouterr().out
        main([*self.ARGS, "--count", "2"])
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        main([*self.ARGS, "--count", "2"])
        expected = capsys.readouterr().out
        path = tmp_path / "graphs.jsonl"
        assert main([*self.ARGS, "--count", "2", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == expected

    def test_count_zero_writes_nothing(self, capsys, tmp_path):
        assert main([*self.ARGS, "--count", "0"]) == 0
        assert capsys.readouterr().out == ""
        path = tmp_path / "graphs.jsonl"
        assert main([*self.ARGS, "--count", "0", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == ""

    def test_mu_reports_resolved_edge_count(self, capsys):
        args = ["sample", "--degrees", "1,3", "--n", "8", "--mu", "0", "--seed", "1"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "m = 6 (realized mu = 0)" in captured.err
        assert from_jsonl_line(captured.out.strip()).n == 8

    def test_infeasible_edge_count_exits_2(self, capsys):
        args = ["sample", "--degrees", "1,3", "--n", "8", "--m", "3", "--seed", "0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible:")

    def test_exhausted_attempt_budget_exits_2(self, capsys):
        # Degrees (3,3,3,1) admit no simple graph, so rejection never ends.
        args = [
            "sample", "--degrees", "1,3", "--n", "4", "--m", "5",
            "--seed", "0", "--max-attempts", "64",
        ]
        assert main(args) == 2
        assert "no simple graph within the attempt budget" in capsys.readouterr().err


class TestExperiment:
    BASE = [
        "experiment", "--degrees", "1,3", "--n", "8", "--m", "4",
        "--trials", "5", "--seed", "3",
    ]

    def expected_table(self, **overrides):
        kwargs = dict(degrees="1,3", n=8, ms=(4,), trials=5, seed=3)
        kwargs.update(overrides)
        return run_experiment(ExperimentConfig(**kwargs))

    def test_csv_to_stdout(self, capsys):
        assert main([*self.BASE, "--no-compare"]) == 0
        assert capsys.readouterr().out == render_csv(self.expected_table())

    def test_json_format(self, capsys):
        assert main([*self.BASE, "--format", "json", "--no-compare"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 3
        assert len(doc["rows"]) == 5

    def test_unknown_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.BASE, "--format", "yaml", "--no-compare"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_out_file_and_row_count_note(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        assert main([*self.BASE, "--no-compare", "--out", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"wrote 5 rows to {path}" in captured.err
        assert parse_csv(path) == self.expected_table().rows

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "degrees = 1,3\nn = 8\nm = 4\ntrials = 3\nseed = 3\n", encoding="utf-8"
        )
        args = ["experiment", "--config", str(cfg_path), "--trials", "5", "--no-compare"]
        assert main(args) == 0
        assert capsys.readouterr().out == render_csv(self.expected_table())

    def test_mu_sweep_resolves_multiple_points(self, capsys):
        args = [
            "experiment", "--degrees", "1,3", "--n", "30", "--mu=-0.5,0.5",
            "--trials", "2", "--seed", "1", "--no-compare",
        ]
        assert main(args) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4
        assert len({r.m for r in rows}) == 2

    def test_size_list_gives_rows_at_every_size(self, capsys):
        args = [
            "experiment", "--degrees", "1,3", "--n", "8,12", "--mu=0",
            "--trials", "3", "--seed", "2", "--no-compare",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert {r.n for r in parse_csv(out)} == {8, 12}
        assert out == render_csv(
            self.expected_table(n=(8, 12), ms=(), mus=(0.0,), trials=3, seed=2)
        )

    def test_size_list_report_names_n_and_the_growth_exponent(self, capsys):
        args = [
            "experiment", "--degrees", "1,3", "--n", "30,60", "--mu=0.5",
            "--trials", "40", "--seed", "2",
        ]
        table = self.expected_table(n=(30, 60), ms=(), mus=(0.5,), trials=40, seed=2)
        with pytest.warns(UserWarning, match="lacks power"):
            assert main(args) == 0
            report = compare_theory(table, critical_point(parse_degree_set("1,3")))
        err = capsys.readouterr().err
        (scaling,) = report.scalings
        exponent = math.log(scaling.ratio) / math.log(2.0)
        assert "n=30 mu=" in err and "n=60 mu=" in err
        assert f"n=30->60: ratio {scaling.ratio:.3f}" in err
        assert f"exponent {exponent:.3f}" in err

    def test_comparison_report_on_stderr(self, capsys):
        args = [
            "experiment", "--degrees", "1,3", "--n", "8", "--m", "5",
            "--trials", "20", "--seed", "3",
        ]
        with pytest.warns(UserWarning, match="lacks power"):
            assert main(args) == 0
        err = capsys.readouterr().err
        assert "survival" in err
        assert "excess chi2 p=" in err
        assert "z=" in err

    def test_infeasible_point_exits_2(self, capsys):
        args = [
            "experiment", "--degrees", "1,3", "--n", "8", "--m", "3",
            "--trials", "2", "--seed", "0", "--no-compare",
        ]
        assert main(args) == 2
        assert "infeasible: point 0 (n=8, m=3)" in capsys.readouterr().err


class TestVerify:
    def test_deterministic_sections_pass(self, capsys):
        assert main(["verify", "--skip-monte-carlo"]) == 0
        out = capsys.readouterr().out
        assert "ok   threshold" in out
        assert not [line for line in out.split("\n") if line.startswith("FAIL")]
        assert out.strip().split("\n")[-1].startswith("PASS: ")

    def test_failing_report_exits_3(self, capsys, monkeypatch):
        import degwin.verify

        class FakeReport:
            ok = False

        monkeypatch.setattr(
            degwin.verify, "run_verify", lambda **kwargs: FakeReport()
        )
        assert main(["verify", "--skip-monte-carlo"]) == 3

    @pytest.mark.parametrize("argv", [["--trials", "0"], ["--skip-monte-carlo", "--trials", "-1"]])
    def test_bad_trial_count_fails_before_the_first_section(self, argv, capsys):
        _assert_error_line(["verify", *argv], "OutOfRangeError", "trials must be >= 1", capsys)

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--skip-monte-carlo", "--seed", "-1"]])
    def test_negative_seed_fails_before_the_first_section(self, argv, capsys):
        _assert_error_line(["verify", *argv], "OutOfRangeError", "seed must be >= 0, got -1", capsys)


class TestConsoleScript:
    def test_installed_entry_point(self):
        # The repo owns the [project.scripts] line and main(); the wrapper pip
        # writes around them is generic: it calls sys.exit(main()).
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module_name, attr = scripts["degwin"].split(":")
        assert getattr(importlib.import_module(module_name), attr) is main
        assert (module_name, attr) == ("degwin.cli", "main")
        wrapper = f"import sys\nfrom {module_name} import {attr}\nsys.exit({attr}())"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "threshold", "--degrees", "1,3", "--json"],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["zhat"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

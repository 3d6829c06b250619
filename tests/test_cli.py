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

from degwin.asymptotics import VARIANTS, predict, twopath_constants
from degwin.cli import THRESHOLD_FIELDS, main
from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.graph import from_jsonl_line, to_jsonl_line
from degwin.harness import ExperimentConfig, parse_csv, render_csv, run_experiment
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
        assert "[scaled]" in out
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
            assert row["variant"] == "scaled"
            assert row["survival"] == pred.survival
            for q in range(7):
                assert row[f"p{q}"] == pred.excess_dist[q]
            assert row["planarity"] == pred.planarity
            assert row["b1"] == two.b1
            assert row["b2"] == two.b2

    def test_csv_with_both_variants(self, capsys):
        assert main(
            ["predict", "--degrees", "1,3", "--mu=-1,0", "--variant", "both", "--csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["mu", "variant", "survival"]
        assert "p0" in header and "p6" in header and "b2" in header
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 4
        assert [row[1] for row in body] == [*VARIANTS, *VARIANTS]
        cp = critical_point(parse_degree_set("1,3"))
        pred = predict(cp, -1.0, VARIANTS[0], 20)
        assert float(body[0][2]) == pytest.approx(pred.survival, rel=1e-8)

    def test_qmax_flag_reaches_prediction(self, capsys):
        with pytest.raises(ValueError, match="q_max"):
            main(["predict", "--degrees", "1,3", "--mu", "0", "--qmax", "3"])

    def test_missing_mu_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--degrees", "1,3"])
        assert excinfo.value.code == 2


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
        assert "infeasible: point 0 (m=3)" in capsys.readouterr().err


class TestVerify:
    def test_deterministic_sections_pass(self, capsys):
        assert main(["verify", "--skip-monte-carlo"]) == 0
        out = capsys.readouterr().out
        assert "ok   threshold" in out
        assert not [line for line in out.split("\n") if line.startswith("FAIL")]
        assert "info variant discrepancy mu=-1" in out
        assert "info variant discrepancy mu=+1" in out
        assert "documented, not resolved" in out
        assert out.strip().split("\n")[-1].startswith("PASS: ")

    def test_failing_report_exits_3(self, capsys, monkeypatch):
        import degwin.verify

        class FakeReport:
            ok = False

        monkeypatch.setattr(
            degwin.verify, "run_verify", lambda **kwargs: FakeReport()
        )
        assert main(["verify", "--skip-monte-carlo"]) == 3


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

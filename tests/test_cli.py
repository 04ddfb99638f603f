import json
import os
import subprocess
import sys

import numpy as np
import pytest

from jknet.cli import CliError, dispatch, main, parse_and_validate


def run_cli(args, tmp_path=None, env_extra=None):
    env = dict(os.environ)
    env.pop("JKNET_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "jknet", *args],
                          capture_output=True, text=True, env=env,
                          cwd=str(tmp_path) if tmp_path else None)
    return proc


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.edges"
    path.write_text("0 1\n1 0\n2 0\n")
    return str(path)


class TestParseAndValidate:
    def test_theta_derived_from_p(self):
        cfg = parse_and_validate(["adaptive-run", "--d", "20", "--p", "0.05",
                                  "--seed", "1", "--max-steps", "5"])
        assert cfg.theta == pytest.approx(1.0)

    def test_p_derived_from_theta(self):
        cfg = parse_and_validate(["adaptive-run", "--d", "20", "--theta", "1.0",
                                  "--seed", "1", "--max-steps", "5"])
        assert cfg.p == pytest.approx(0.05)

    def test_giving_both_p_and_theta_rejected(self):
        with pytest.raises(CliError, match="conflict"):
            parse_and_validate(["adaptive-run", "--d", "20", "--p", "0.5",
                                "--theta", "10", "--seed", "1",
                                "--max-steps", "5"])
        with pytest.raises(CliError, match="conflict"):
            parse_and_validate(["adaptive-run", "--d", "20", "--p", "0.05",
                                "--theta", "1.0", "--seed", "1",
                                "--max-steps", "5"])

    @pytest.mark.parametrize("argv", [
        ["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
         "--max-steps", "5"],
        ["experiment", "first-cycle", "--d", "10", "--p", "0.1",
         "--seed", "1", "--trials", "1"],
        ["conjecture-scan", "first-cycle", "--d", "10,20", "--theta", "0.5",
         "--seed", "1", "--trials", "1"],
    ])
    def test_analytic_x0_mode_rejected_by_adaptive_commands(self, argv, capsys):
        # run_adaptive takes only flow starts; argparse says so up front
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--x0-mode", "analytic"])
        assert exc.value.code == 2
        assert "invalid choice: 'analytic'" in capsys.readouterr().err
        assert parse_and_validate(argv + ["--x0-mode", "carry"]).x0_mode == "carry"

    def test_seed_required_for_experiments(self):
        with pytest.raises(CliError, match="seed"):
            parse_and_validate(["experiment", "waiting-time", "--k", "10",
                                "--p", "0.01"])

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("JKNET_SEED", "99")
        cfg = parse_and_validate(["experiment", "waiting-time", "--k", "10",
                                  "--p", "0.01"])
        assert cfg.seed == 99

    def test_config_file_merged_and_overridden(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"d": 10, "p": 0.1, "seed": 4,
                                        "trials": 100}))
        cfg = parse_and_validate(["experiment", "first-cycle",
                                  "--config", str(cfg_path), "--trials", "50"])
        assert cfg.d == 10
        assert cfg.trials == 50  # flag wins
        assert cfg.seed == 4

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dd": 10}))
        with pytest.raises(CliError, match="unknown config keys"):
            parse_and_validate(["equilibrium", "--config", str(cfg_path),
                                "--matrix", "x"])

    def test_d_grid_parsing(self):
        cfg = parse_and_validate(["conjecture-scan", "acs-growth",
                                  "--d", "25,50,100", "--theta", "0.5",
                                  "--seed", "1"])
        assert cfg.d_grid == (25, 50, 100)


class TestSubcommands:
    def test_equilibrium_from_edge_file(self, ex1_file):
        proc = run_cli(["equilibrium", "--matrix", ex1_file])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        np.testing.assert_allclose(doc["x_star"], [0.5, 0.5, 0.0], atol=1e-9)
        assert doc["kind"] == "acs_supported"

    def test_equilibrium_analytic_mode(self, ex1_file):
        proc = run_cli(["equilibrium", "--matrix", ex1_file,
                        "--x0-mode", "analytic"])
        doc = json.loads(proc.stdout)
        np.testing.assert_allclose(doc["x_star"], [0.5, 0.5, 0.0], atol=1e-12)

    def test_integrate_csv_output(self, ex1_file, tmp_path):
        out = tmp_path / "traj"
        proc = run_cli(["integrate", "--matrix", ex1_file, "--t-max", "5",
                        "--out", str(out)])
        assert proc.returncode == 0
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,x_0,x_1,x_2,residual"
        assert (tmp_path / "traj.meta.json").exists()

    def test_adaptive_run_trace(self, tmp_path):
        out = tmp_path / "trace"
        proc = run_cli(["adaptive-run", "--d", "12", "--p", "0.05",
                        "--seed", "3", "--max-steps", "10", "--out", str(out)])
        assert proc.returncode == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["d"] == 12 and header["seed"] == 3
        assert len(lines) == 1 + len(lines[1:])
        rec = json.loads(lines[1])
        assert {"s", "lambda", "support_size"} <= set(rec)

    def test_waiting_time_experiment_outputs(self, tmp_path):
        out = tmp_path / "wt"
        proc = run_cli(["experiment", "waiting-time", "--k", "10",
                        "--p", "0.01", "--trials", "2000", "--seed", "7",
                        "--out", str(out)])
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "wt.json").read_text())
        assert abs(doc["result"]["z_score"]) < 4
        csv_lines = (tmp_path / "wt.csv").read_text().splitlines()
        assert csv_lines[0] == "trial,measurement,censored"
        assert len(csv_lines) == 2001

    def test_appendix_demo_witness(self, tmp_path):
        out = tmp_path / "demo"
        proc = run_cli(["appendix-demo", "--d", "10", "--p", "0.5",
                        "--trials", "20", "--seed", "3", "--out", str(out)])
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["witness"] is not None
        assert abs(doc["witness"]["mass_derivative"]) > 1e-3

    def test_conjecture_scan_files(self, tmp_path):
        out = tmp_path / "scan"
        proc = run_cli(["conjecture-scan", "acs-growth", "--d", "8,12,16",
                        "--theta", "1.2", "--trials", "3", "--seed", "5",
                        "--out", str(out)])
        assert proc.returncode == 0
        csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert csv_lines[0] == "d,p,theta,mean,std_error,oracle,z"
        fit = json.loads((tmp_path / "scan.fit.json").read_text())
        assert fit["d_grid"] == [8, 12, 16]

    def test_censored_only_run_exits_2(self, tmp_path):
        out = tmp_path / "cens"
        proc = run_cli(["experiment", "first-cycle", "--d", "12", "--p", "0.01",
                        "--trials", "3", "--max-steps", "2", "--seed", "11",
                        "--out", str(out)])
        assert proc.returncode == 2

    def test_equilibrium_from_sampled_matrix(self):
        proc = run_cli(["equilibrium", "--d", "8", "--p", "0.3", "--seed", "6"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["x_star"]) == 8

    def test_csv_format_on_stdout(self):
        proc = run_cli(["experiment", "waiting-time", "--k", "3", "--p", "0.2",
                        "--trials", "10", "--seed", "1", "--format", "csv"])
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "trial,measurement,censored"
        assert len(lines) == 11

    def test_error_reports_json_on_stderr(self):
        proc = run_cli(["equilibrium", "--matrix", "/nonexistent/file"])
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "config"

    def test_conflict_error_exit_code(self):
        proc = run_cli(["adaptive-run", "--d", "20", "--p", "0.5",
                        "--theta", "10", "--seed", "1", "--max-steps", "2"])
        assert proc.returncode == 1
        assert "conflict" in json.loads(proc.stderr)["message"]


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, tmp_path):
        for name in ("a", "b"):
            run_cli(["experiment", "waiting-time", "--k", "5", "--p", "0.1",
                     "--trials", "500", "--seed", "42",
                     "--out", str(tmp_path / name)])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        for name, jobs in (("j1", "1"), ("j8", "8")):
            run_cli(["experiment", "acs-growth", "--d", "12", "--p", "0.1",
                     "--trials", "6", "--seed", "13", "--jobs", jobs,
                     "--out", str(tmp_path / name)])
        assert (tmp_path / "j1.json").read_bytes() == (tmp_path / "j8.json").read_bytes()
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j8.csv").read_bytes()

    def test_adaptive_trace_bytes_stable(self, tmp_path):
        args = ["adaptive-run", "--d", "15", "--p", "0.04", "--seed", "21",
                "--max-steps", "25"]
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b


class TestRoundTrips:
    def test_matrix_dump_load_round_trip(self, tmp_path):
        from jknet import InteractionMatrix, dump_dense, load_interaction_matrix
        m = InteractionMatrix.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        path = tmp_path / "m.dense"
        path.write_text(dump_dense(m))
        back = load_interaction_matrix(str(path))
        assert (back.entries == m.entries).all()

    def test_trace_file_round_trip(self, tmp_path):
        from jknet import ModelParams, run_adaptive, trace_from_json_lines, trace_to_json_lines
        trace = run_adaptive(ModelParams(d=8, p=0.2), seed=2, max_steps=8)
        path = tmp_path / "t.jsonl"
        path.write_text(trace_to_json_lines(trace))
        back = trace_from_json_lines(path.read_text())
        assert trace_to_json_lines(back) == path.read_text()

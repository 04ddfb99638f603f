import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jknet import (BLAS_THREAD_VARS, ModelParams, cli, dynamics, experiments,
                   sample_er_digraph, signed_model)
from jknet.cli import (ENTRY_POINTS, FLAGS, CliError, build_parser, main,
                       parse_and_validate)
from jknet.rng import stream

from oracles import joined_trajectory_csv, list_integrate


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


def _no_trials(*args, **kwargs):
    raise RuntimeError("a trial ran")


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
        if argv[0] == "conjecture-scan":
            # a scan starts every trial from the uniform state: no --x0-mode
            assert "unrecognized arguments: --x0-mode" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--x0-mode", "carry"])
            assert exc.value.code == 2
        else:
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

    def test_config_values_take_the_flag_types(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"trials": "5", "jobs": "2", "p": 0}))
        cfg = parse_and_validate(["experiment", "acs-attach", "--k", "3",
                                  "--seed", "1", "--config", str(cfg_path)])
        assert (cfg.trials, cfg.jobs, cfg.p) == (5, 2, 0.0)
        assert type(cfg.p) is float

    def test_config_run_matches_flag_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"trials": "5"}))
        argv = ["experiment", "waiting-time", "--k", "3", "--p", "0.2",
                "--seed", "1"]
        assert main(argv + ["--config", str(cfg_path)]) == 0
        via_config = capsys.readouterr().out
        assert main(argv + ["--trials", "5"]) == 0
        assert via_config == capsys.readouterr().out

    @pytest.mark.parametrize("argv, file_cfg", [
        (["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
          "--max-steps", "5"], {"x0_mode": "analytic"}),
        (["experiment", "waiting-time", "--k", "3", "--p", "0.2",
          "--seed", "1"], {"trials": "five"}),
        (["experiment", "waiting-time", "--k", "3", "--p", "0.2",
          "--seed", "1"], {"trials": 2.5}),
        (["experiment", "acs-attach", "--k", "3", "--p", "0.2",
          "--seed", "1"], {"jobs": True}),
        (["integrate", "--d", "5", "--p", "0.2", "--seed", "1"],
         {"format": "xml"}),
    ])
    def test_bad_config_values_are_config_errors(self, tmp_path, capsys,
                                                 argv, file_cfg):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(file_cfg))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config"
        assert repr(next(iter(file_cfg))) in err["message"]

    @pytest.mark.parametrize("argv, file_cfg", [
        (["equilibrium", "--d", "abc", "--p", "0.1", "--seed", "1"], None),
        (["equilibrium", "--p", "0.1", "--seed", "1"], {"d": "abc"}),
        (["conjecture-scan", "first-cycle", "--d", "10,x", "--theta", "0.5",
          "--seed", "1", "--trials", "1"], None),
        (["conjecture-scan", "first-cycle", "--theta", "0.5", "--seed", "1",
          "--trials", "1"], {"d": [10.5, 15, 20]}),
        (["experiment", "first-cycle-uniform", "--d", "10", "--trials", "3",
          "--seed", "1", "--jobs", "-3"], None),
        (["experiment", "first-cycle-uniform", "--d", "10", "--trials", "3",
          "--seed", "1", "--jobs", "0"], None),
        (["experiment", "first-cycle-uniform", "--d", "10", "--trials", "3",
          "--seed", "1"], {"jobs": 0}),
    ])
    def test_bad_d_and_jobs_are_config_errors(self, tmp_path, capsys, argv,
                                              file_cfg):
        if file_cfg is not None:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(file_cfg))
            argv = argv + ["--config", str(cfg_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "config"

    @pytest.mark.parametrize("argv", [
        ["experiment", "first-cycle", "--d", "10", "--p", "0.1", "--trials", "2",
         "--seed", "1", "--max-steps", "0"],
        ["experiment", "first-cycle", "--d", "10", "--p", "0.1", "--trials", "2",
         "--seed", "1", "--max-steps", "-5"],
        ["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
         "--max-steps", "0"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_max_steps_below_one_is_a_config_error(self, capsys, argv):
        # a budget below one is rejected at the edge, as --trials and --jobs are
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": f"max_steps must be >= 1, got max_steps = {int(argv[-1])}"}

    @pytest.mark.parametrize("kind, budget", [
        ("first-cycle", 2000),  # 20 d / p
        ("acs-growth", 500),  # 10 * max(the growth oracle, 50)
    ])
    def test_default_max_steps_is_recorded(self, capsys, kind, budget):
        argv = ["experiment", kind, "--d", "10", "--p", "0.1", "--trials", "2",
                "--seed", "1"]
        main(argv)
        ran = json.loads(capsys.readouterr().out)
        assert ran["config"]["max_steps"] == budget
        main(argv + ["--max-steps", str(budget)])
        assert json.loads(capsys.readouterr().out) == ran

    def test_p_zero_without_max_steps_is_a_config_error(self, capsys):
        # the default budget scales with 1/p; at p = 0 no trial can end, so
        # the run is refused with the exit code of an all-censored one
        assert main(["experiment", "first-cycle", "--d", "10", "--p", "0",
                     "--trials", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "--max-steps" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["experiment", "acs-growth", "--d", "10", "--p", "0"],
        ["experiment", "acs-growth", "--d", "10", "--p", "0", "--max-steps", "3"],
        ["experiment", "acs-growth", "--d", "10", "--theta", "0"],
        ["conjecture-scan", "acs-growth", "--d", "10,12,14", "--theta", "0"],
        ["conjecture-scan", "first-cycle", "--d", "10,12,14", "--theta", "0"],
        ["experiment", "acs-attach", "--k", "3", "--p", "0"],
        ["experiment", "waiting-time", "--k", "3", "--p", "0"],
        # rng.random() steps by 2**-53: below it no edge is drawn at p
        ["experiment", "first-cycle", "--d", "10", "--p", "1e-300"],
        ["experiment", "acs-attach", "--k", "3", "--p", "1e-300"],
        ["conjecture-scan", "first-cycle", "--d", "10,20,30", "--theta", "1e-300"],
        ["experiment", "acs-growth", "--d", "10", "--p", "1e-300"],
        ["conjecture-scan", "acs-growth", "--d", "10,20,30", "--theta", "1e-300"],
        ["experiment", "waiting-time", "--k", "3", "--p", "1e-300"],
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
    def test_no_edges_is_a_config_error_that_exits_2(self, capsys, monkeypatch,
                                                      argv):
        # no vertex ever gains an edge, so no trial can end: the run is
        # refused, with the exit code of an all-censored one, before the
        # growth oracle or a budget divides by p, and before any trial
        for name in ("acs_attach_experiment", "waiting_time_experiment"):
            monkeypatch.setattr(experiments, name, _no_trials)
        assert main(argv + ["--trials", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "never draws an edge" in err["message"]

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "acs-growth", "--d", "10", "--p", "1e-300"],
         "p = 1e-300 < 2**-53"),
        # a scan's smallest p is theta over its largest d
        (["conjecture-scan", "first-cycle", "--d", "10,20,30", "--theta", "3e-15"],
         "theta = 3e-15 < 30 * 2**-53"),
    ], ids=["p", "theta"])
    def test_p_below_the_sampler_step_names_the_bound(self, capsys, no_library,
                                                      argv, message):
        assert main(argv + ["--trials", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": f"{message} never draws an edge, so every trial would "
                       "be censored"}

    def test_p_at_the_sampler_step_still_runs(self, capsys):
        p = 2.0 ** -53
        assert main(["experiment", "waiting-time", "--k", "3", "--p", repr(p),
                     "--trials", "1", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["p"] == p

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "acs-growth", "--d", "10", "--p", "-0.5"], -0.5),
        (["experiment", "first-cycle", "--d", "10", "--p", "1.5"], 1.5),
        (["experiment", "first-cycle", "--d", "10", "--theta", "40"], 4.0),
        (["adaptive-run", "--d", "10", "--theta", "-1", "--max-steps", "3"], -0.1),
        # the attachment oracle's domain is [0, 1)
        pytest.param(["experiment", "acs-attach", "--k", "3", "--p", "2"],
                     "p must lie in [0, 1), got p = 2.0",
                     id="experiment acs-attach-2.0"),
        # a scan's smallest d gives its largest p = theta / d
        (["conjecture-scan", "first-cycle", "--d", "50,25,100", "--theta", "40"],
         1.6),
        # a scan's theta is checked before the p it derives over the grid
        pytest.param(["conjecture-scan", "acs-growth", "--d", "25,50,100",
                      "--theta", "-0.5"], "theta must be >= 0, got theta = -0.5",
                     id="conjecture-scan acs-growth--0.02"),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else repr(v))
    def test_p_outside_the_unit_interval_is_a_config_error(self, capsys, argv,
                                                           message):
        if isinstance(message, float):
            message = f"p must lie in [0, 1], got p = {message!r}"
        assert main(argv + ["--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "config", "message": message}

    @pytest.mark.parametrize("kind", ["acs-attach", "waiting-time"])
    def test_attachment_oracle_at_p_one_is_a_config_error(self, capsys,
                                                          monkeypatch, kind):
        monkeypatch.setattr(experiments, kind.replace("-", "_") + "_experiment",
                            _no_trials)
        assert main(["experiment", kind, "--k", "3", "--p", "1", "--trials", "1",
                     "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": "p must lie in [0, 1), got p = 1.0"}

    @pytest.mark.parametrize("kind", ["first-cycle", "acs-growth"])
    @pytest.mark.parametrize("grid, bad", [("0,50,100", 0), ("1,50,100", 1),
                                           ("50,-3,100", -3)])
    def test_scan_grid_d_below_two_is_a_config_error(self, capsys, monkeypatch,
                                                     kind, grid, bad):
        monkeypatch.setattr(experiments, "conjecture_scan", _no_trials)
        assert main(["conjecture-scan", kind, "--d", grid, "--theta", "0.5",
                     "--trials", "1", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": f"d must be >= 2, got d = {bad}"}

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_p_at_the_ends_of_the_unit_interval_runs(self, capsys, p):
        assert main(["equilibrium", "--d", "5", "--p", p, "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"]

    def test_p_zero_with_max_steps_still_runs(self, capsys):
        assert main(["experiment", "first-cycle", "--d", "10", "--p", "0",
                     "--trials", "2", "--seed", "1", "--max-steps", "3"]) == 2
        ran = json.loads(capsys.readouterr().out)
        assert ran["config"]["max_steps"] == 3
        assert ran["result"]["censored_count"] == 2

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dd": 10}))
        with pytest.raises(CliError, match="unknown config keys"):
            parse_and_validate(["equilibrium", "--config", str(cfg_path),
                                "--matrix", "x"])

    @pytest.mark.parametrize("argv, file_cfg", [
        # only --d sets d_grid
        (["conjecture-scan", "first-cycle", "--theta", "0.5", "--seed", "1",
          "--trials", "1"], {"d_grid": ["a"]}),
        (["conjecture-scan", "first-cycle", "--theta", "0.5", "--seed", "1",
          "--trials", "1"], {"d_grid": "10,20,30"}),
        # no command reads phi, and the command line names the kind
        (["experiment", "first-cycle", "--d", "10", "--p", "0.1",
          "--seed", "1"], {"phi": 9}),
        (["experiment", "first-cycle", "--d", "10", "--p", "0.1",
          "--seed", "1"], {"kind": "acs-growth"}),
        # every solve stops at graph.TOL
        (["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1"], {"tol": 1e-10}),
        (["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
          "--max-steps", "5"], {"tol": 1e-10}),
    ])
    def test_keys_of_no_flag_are_config_errors(self, tmp_path, capsys, argv,
                                               file_cfg):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(file_cfg))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["message"] == f"unknown config keys: {list(file_cfg)}"

    @pytest.mark.parametrize("content", [5, "abc", ["d"], None])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(content))
        assert main(["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1",
                     "--config", str(cfg_path)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": "config file must hold a JSON object"}

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_empty_d_grid_is_a_config_error(self, tmp_path, capsys, no_library,
                                            form):
        args = ["--d", ",", "--theta", "0.5", "--seed", "1"]
        if form == "config":
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"d": [], "theta": 0.5, "seed": 1}))
            args = ["--config", str(cfg_path)]
        assert main(["conjecture-scan", "first-cycle", *args, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "config",
                                            "message": "empty d grid"}

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys,
                                                      no_library):
        missing = tmp_path / "missing.json"
        assert main(["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1",
                     "--config", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": "cannot read config file: [Errno 2] No such file or "
                       f"directory: {str(missing)!r}"}

    def test_config_file_that_is_not_json_is_a_config_error(self, tmp_path, capsys,
                                                            no_library):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{")
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads("{")
        assert main(["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1",
                     "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": f"config file is not valid JSON: {exc.value}"}

    def test_seed_env_that_is_no_integer_is_a_config_error(self, capsys,
                                                           monkeypatch, no_library):
        monkeypatch.setenv("JKNET_SEED", "1.5")
        assert main(["equilibrium", "--d", "5", "--p", "0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config", "message": "$JKNET_SEED is not an integer"}

    def test_d_grid_parsing(self):
        cfg = parse_and_validate(["conjecture-scan", "acs-growth",
                                  "--d", "25,50,100", "--theta", "0.5",
                                  "--seed", "1"])
        assert cfg.d_grid == (25, 50, 100)


def entry_parsers(parser=None, prefix=()):
    """(entry point, its argparse parser) for every leaf of the CLI."""
    parser = build_parser() if parser is None else parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from entry_parsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


SHARED_FLAGS = ("--config", "--out")


def entry_flags(parser) -> dict:
    """{dest: option} of the flags an entry point takes, --help and the
    shared flags left out."""
    return {a.dest: a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest != "help"
            and a.option_strings[0] not in SHARED_FLAGS}


ALL_FLAGS = {dest: opt for _, parser in entry_parsers()
             for dest, opt in entry_flags(parser).items()}
FLAG_VALUES = {"format": "json", "matrix": "m.edges", "d": "6", "p": "0.3",
               "theta": "1.8", "seed": "1", "trials": "2", "h": "0.05",
               "t_max": "0.5", "max_steps": "3", "k": "3", "k0": "2",
               "cycle_kind": "directed", "x0_mode": "uniform", "jobs": "1"}


def full_argv(entry, flags):
    """Every flag the entry point reads, but --matrix (the graph is drawn)
    and --theta where --p is read too (theta is derived from p)."""
    argv = entry.split(" ")
    for dest, opt in flags.items():
        if dest == "matrix" or (dest == "theta" and "p" in flags):
            continue
        val = FLAG_VALUES[dest]
        if dest == "d" and entry.startswith("conjecture-scan"):
            val = "4,5,6"
        argv += [opt, val]
    return argv


class TestFlagTable:
    def test_entry_points(self):
        assert [e for e, _ in entry_parsers()] == list(ENTRY_POINTS)
        assert len(ENTRY_POINTS) == 13
        assert "--phi" not in ALL_FLAGS.values()

    @pytest.mark.parametrize("entry, parser", list(entry_parsers()),
                             ids=[e for e, _ in entry_parsers()])
    def test_entry_point_takes_only_the_flags_it_reads(self, tmp_path, capsys,
                                                       entry, parser):
        flags = entry_flags(parser)
        argv = full_argv(entry, flags)
        parse_and_validate(argv)
        unread = {d: o for d, o in ALL_FLAGS.items() if d not in flags}
        assert unread
        for dest, opt in unread.items():
            with pytest.raises(SystemExit) as exc:
                main(argv + [opt, FLAG_VALUES[dest]])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {opt}" in capsys.readouterr().err
            cfg_path = tmp_path / f"{dest}.json"
            cfg_path.write_text(json.dumps({dest: FLAG_VALUES[dest]}))
            assert main(argv + ["--config", str(cfg_path)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "config",
                           "message": f"unknown config keys: [{dest!r}]"}

        command = entry.split(" ")[0]
        if command not in ("experiment", "conjecture-scan"):
            return
        # the config block records exactly the values that ran
        assert main(argv) in (0, 2)
        config = json.loads(capsys.readouterr().out)["config"]
        want = set(flags) - {"jobs", "format"} | {"command", "kind"}
        if command == "conjecture-scan":
            want = want - {"d"} | {"d_grid"}
            assert config["d_grid"] == [4, 5, 6]
        assert set(config) == want
        assert (config["command"], config["kind"]) == tuple(entry.split(" "))
        if "p" in flags and "theta" in flags:
            assert config["theta"] == pytest.approx(config["p"] * config["d"])

    @pytest.mark.parametrize("argv", [
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--theta", "0.5",
         "--seed", "1", "--trials", "4", "--x0-mode", "carry"],
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--theta", "0.5",
         "--seed", "1", "--trials", "4", "--max-steps", "3"],
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--theta", "0.5",
         "--seed", "1", "--trials", "4", "--tol", "5"],
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--theta", "0.5",
         "--seed", "1", "--trials", "4", "--phi", "9"],
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--theta", "0.5",
         "--seed", "1", "--trials", "4", "--h", "7"],
        # a scan runs at one theta; p = theta / d changes along the grid
        ["conjecture-scan", "first-cycle", "--d", "8,12,16", "--seed", "1",
         "--trials", "4", "--p", "0.1"],
        ["conjecture-scan", "acs-growth", "--d", "8,12,16", "--seed", "1",
         "--trials", "4", "--p", "0.1"],
        # these write no CSV
        ["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1",
         "--format", "csv"],
        ["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
         "--max-steps", "5", "--format", "csv"],
        ["appendix-demo", "--d", "4", "--p", "0.5", "--trials", "2",
         "--seed", "1", "--format", "csv"],
        ["integrate", "--d", "5", "--p", "0.2", "--seed", "1",
         "--x0-mode", "analytic"],
        ["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
         "--max-steps", "5", "--matrix", "f"],
        ["experiment", "waiting-time", "--k", "3", "--p", "0.2", "--seed", "1",
         "--jobs", "2"],
        ["experiment", "first-cycle-uniform", "--d", "10", "--seed", "1",
         "--p", "0.7"],
        # every solve stops at graph.TOL
        ["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1", "--tol", "1e-11"],
        ["adaptive-run", "--d", "10", "--p", "0.1", "--seed", "1",
         "--max-steps", "5", "--tol", "1e-11"],
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:-1]))
    def test_flags_that_did_nothing_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_equilibrium_has_no_carry_start(self, capsys):
        # carry means the previous state's equilibrium: equilibrium has none
        with pytest.raises(SystemExit) as exc:
            main(["equilibrium", "--d", "5", "--p", "0.2", "--seed", "1",
                  "--x0-mode", "carry"])
        assert exc.value.code == 2
        assert "invalid choice: 'carry'" in capsys.readouterr().err

    def test_readme_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([a-z -]+)` \| (.*) \|$", section, re.M)
        documented = {entry: re.findall(r"`(--[a-z0-9-]+)`", cells)
                      for entry, cells in rows}
        parsed = {entry: list(entry_flags(parser).values())
                  for entry, parser in entry_parsers()}
        assert documented == parsed


POSITIVE = "must be positive and finite"
# (argv, flag, a value outside its domain there, the refusal); --seed 1
# is added unless the flag is the seed
OUT_OF_DOMAIN = [
    (["experiment", "acs-attach", "--p", "0.5", "--trials", "1"], "k", "0",
     "k must be >= 1, got k = 0"),
    (["experiment", "waiting-time", "--p", "0.5"], "k", "0",
     "k must be >= 1, got k = 0"),
    (["experiment", "cycle-dist", "--d", "10", "--theta", "1"], "k", "2",
     "k must lie in [3, 5], got k = 2"),
    (["experiment", "cycle-dist", "--d", "10", "--theta", "1"], "k", "6",
     "k must lie in [3, 5], got k = 6"),
    (["experiment", "cycle-dist", "--d", "10", "--k", "3"], "p", "1",
     "theta/d must be < 1, got theta/d = 1.0"),
    (["integrate", "--d", "3", "--p", "0.5"], "h", "0", f"h {POSITIVE}, got h = 0.0"),
    (["integrate", "--d", "3", "--p", "0.5"], "h", "-1", f"h {POSITIVE}, got h = -1.0"),
    (["integrate", "--d", "3", "--p", "0.5"], "h", "nan", f"h {POSITIVE}, got h = nan"),
    (["integrate", "--d", "3", "--p", "0.5"], "t_max", "inf",
     f"t_max {POSITIVE}, got t_max = inf"),
    (["integrate", "--d", "3", "--p", "0.5"], "t_max", "-1",
     f"t_max {POSITIVE}, got t_max = -1.0"),
    (["integrate", "--d", "3", "--p", "0.5"], "t_max", "nan",
     f"t_max {POSITIVE}, got t_max = nan"),
    (["appendix-demo", "--d", "3", "--p", "0.5"], "h", "0", f"h {POSITIVE}, got h = 0.0"),
    (["appendix-demo", "--d", "3", "--p", "0.5"], "t_max", "-1",
     f"t_max {POSITIVE}, got t_max = -1.0"),
    (["experiment", "acs-growth", "--d", "10", "--p", "0.1"], "k0", "1",
     "k0 must be >= 2, got k0 = 1"),
    (["experiment", "acs-growth", "--d", "10", "--p", "0.1"], "k0", "11",
     "k0 must be <= d = 10, got k0 = 11"),
    (["conjecture-scan", "acs-growth", "--d", "10,5,20", "--theta", "0.5"], "k0", "6",
     "k0 must be <= d = 5, got k0 = 6"),
    (["equilibrium", "--p", "0.5"], "d", "1", "d must be >= 2, got d = 1"),
    (["experiment", "first-cycle-uniform"], "d", "2", "d must be >= 3, got d = 2"),
    (["experiment", "first-cycle-uniform", "--d", "3"], "seed", "-1",
     "seed must be >= 0, got seed = -1"),
    # "" names no file: the outputs would go to stdout, with no sidecar
    (["equilibrium", "--d", "5", "--p", "0.5"], "out", "",
     "out must not be empty, got out = ''"),
    (["experiment", "waiting-time", "--k", "3", "--p", "0.5"], "out", "",
     "out must not be empty, got out = ''"),
    # at most 10^7 RK4 steps of size h up to t_max
    (["integrate", "--d", "3", "--p", "0.5"], "h", "1e-9",
     "t_max/h must be <= 10000000, got t_max/h = 499999999999.99994"),
    (["integrate", "--d", "3", "--p", "0.5"], "h", "1e-300",
     "t_max/h must be <= 10000000, got t_max/h = 5e+302"),
    (["integrate", "--d", "3", "--p", "0.5"], "t_max", "1e6",
     "t_max/h must be <= 10000000, got t_max/h = 100000000.0"),
    (["appendix-demo", "--d", "4", "--p", "0.5", "--trials", "1"], "h", "1e-7",
     "t_max/h must be <= 10000000, got t_max/h = 5000000000.0"),
    # the two scans take a grid of distinct d, every other entry point one d
    (["equilibrium", "--p", "0.1"], "d", "10,20", "d must be one value, got d = '10,20'"),
    (["integrate", "--p", "0.1"], "d", "10,20", "d must be one value, got d = '10,20'"),
    (["experiment", "first-cycle-uniform"], "d", "10,20",
     "d must be one value, got d = '10,20'"),
    (["conjecture-scan", "acs-growth", "--theta", "0.5"], "d", "25",
     "d must be a grid of distinct values, got d = '25'"),
    (["conjecture-scan", "acs-growth", "--theta", "0.5"], "d", "25,25,50",
     "d must be a grid of distinct values, got d = '25,25,50'"),
    (["conjecture-scan", "first-cycle", "--theta", "0.5"], "d", "50,25,50",
     "d must be a grid of distinct values, got d = '50,25,50'"),
]


@pytest.fixture
def no_library(monkeypatch):
    """Every driver, solve, integration and draw the CLI calls raises."""
    for name in ("measure_cycle_counts", "first_cycle_time_jk",
                 "first_cycle_edge_experiment", "acs_attach_experiment",
                 "acs_growth_time_jk", "waiting_time_experiment",
                 "oracle_total_growth", "conjecture_scan"):
        monkeypatch.setattr(experiments, name, _no_trials)
    monkeypatch.setattr(signed_model, "demonstrate_inconsistency", _no_trials)
    for name in ("integrate_to_csv", "equilibrium", "run_adaptive", "sample_er_digraph"):
        monkeypatch.setattr(cli, name, _no_trials)


class TestDomains:
    # each value as a flag and as a config key; the seed also from $JKNET_SEED
    @pytest.mark.parametrize("argv, dest, value, message, route", [
        pytest.param(*case, route, id=f"{' '.join(case[0][:2])} {case[1]}={case[2]} "
                     f"{route}")
        for case in OUT_OF_DOMAIN
        for route in ("flag", "config") + (("env",) if case[1] == "seed" else ())])
    def test_value_outside_its_domain_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, no_library, argv, dest, value,
            message, route):
        if dest != "seed":
            argv = argv + ["--seed", "1"]
        if route == "flag":
            argv = argv + ["--" + dest.replace("_", "-"), value]
        elif route == "config":
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({dest: value}))
            argv = argv + ["--config", str(cfg_path)]
        else:
            monkeypatch.setenv("JKNET_SEED", value)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "config", "message": message}

    @pytest.mark.parametrize("argv", [
        ["experiment", "cycle-dist", "--d", "12", "--theta", "1", "--k", "3"],
        ["experiment", "cycle-dist", "--d", "12", "--theta", "1", "--k", "5"],
        ["experiment", "acs-growth", "--d", "4", "--p", "0.3", "--k0", "4"],
        ["conjecture-scan", "acs-growth", "--d", "4,5,6", "--theta", "1",
         "--k0", "4"],
        ["equilibrium", "--d", "2", "--p", "1"],
        ["experiment", "first-cycle-uniform", "--d", "3"],
        ["experiment", "waiting-time", "--k", "1", "--p", "0.5"],
        ["integrate", "--d", "3", "--p", "0.5", "--h", "1e-4", "--t-max", "0.01"],
        ["appendix-demo", "--d", "3", "--p", "0.5", "--h", "1e-3", "--t-max", "0.01"],
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
    def test_values_at_the_edge_of_their_domain_run(self, capsys, argv):
        assert main(argv + ["--seed", "0", *(["--trials", "2"] if argv[0] in (
            "experiment", "conjecture-scan", "appendix-demo") else [])]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("t_max, ok", [("5e6", True), ("5000000.5", False)])
    def test_step_bound_is_inclusive(self, t_max, ok):
        argv = ["integrate", "--d", "3", "--p", "0.5", "--seed", "1",
                "--h", "0.5", "--t-max", t_max]
        if ok:
            assert parse_and_validate(argv).t_max == 5e6
        else:
            with pytest.raises(CliError, match="t_max/h must be <= 10000000"):
                parse_and_validate(argv)

    def test_every_numeric_flag_has_a_domain(self):
        # d is typed str (it takes a comma list) and checked as ints
        numeric = [f for f in FLAGS if f.type in (int, float) or f.dest == "d"]
        assert numeric
        assert [f.dest for f in numeric if f.domain is None] == []

    def test_readme_domains_match_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Accepted values", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(--[a-z0-9-]+)` \| (.+?) \| (.*) \|$", section, re.M)
        documented = sorted((opt, must, tuple(re.findall(r"`([a-z -]+)`", where)))
                            for opt, must, where in rows)
        expected = []
        for dest in dict.fromkeys(f.dest for f in FLAGS if f.domain):
            same = sorted((f for f in FLAGS if f.dest == dest),
                          key=lambda f: -len(f.readers))
            # the widest row is "every other": only the narrower name theirs
            expected += [("--" + dest.replace("_", "-"), f.domain.text,
                          f.readers if i else ()) for i, f in enumerate(same)]
        assert documented == sorted(expected)


def _required_cases():
    """(entry point, the flags given, the required one left out)."""
    needs = [
        (("equilibrium", "integrate", "experiment first-cycle",
          "experiment acs-growth", "appendix-demo"), ("d", "p")),
        (("adaptive-run",), ("d", "p", "max_steps")),
        (("experiment cycle-dist",), ("d", "theta", "k")),
        (("experiment first-cycle-uniform", "experiment first-cycle-permutation"),
         ("d",)),
        (("experiment acs-attach", "experiment waiting-time"), ("k", "p")),
        (("conjecture-scan first-cycle", "conjecture-scan acs-growth"), ("theta",)),
    ]
    cases = []
    for entries, required in needs:
        for entry in entries:
            for missing in required:
                given = ["--d", "4,5,6"] if entry.startswith("conjecture-scan") else []
                for dest in required:
                    if dest != missing:
                        given += ["--" + dest.replace("_", "-"), FLAG_VALUES[dest]]
                cases.append((entry, given, missing))
    return cases


REQUIRED = _required_cases()


class TestRequiredFlags:
    @pytest.mark.parametrize("entry, given, missing", REQUIRED,
                             ids=[f"{e} -{m}" for e, _, m in REQUIRED])
    def test_a_missing_required_flag_is_a_config_error(self, capsys, no_library,
                                                       entry, given, missing):
        assert main(entry.split(" ") + given + ["--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": f"--{missing.replace('_', '-')} is required for this command"}


# (entry point, flag, value, the refusal) given beside --matrix
BESIDE_MATRIX = [
    (entry, dest, value, f"{dest} must not be given with --matrix, got {dest} = {got}")
    for entry in ("equilibrium", "integrate")
    for dest, value, got in (("p", "0.9", "0.9"), ("theta", "7", "7.0"),
                             ("seed", "5", "5"))]


class TestMatrixFixesTheGraph:
    @pytest.mark.parametrize("entry, dest, value, message, route", [
        pytest.param(*case, route, id=f"{case[0]} {case[1]}={case[2]} {route}")
        for case in BESIDE_MATRIX for route in ("flag", "config")])
    def test_draw_flags_beside_a_matrix_are_config_errors(
            self, tmp_path, capsys, monkeypatch, no_library, ex1_file, entry,
            dest, value, message, route):
        monkeypatch.setattr(cli, "load_interaction_matrix", _no_trials)
        argv = [entry, "--matrix", ex1_file, "--d", "3"]
        if route == "flag":
            argv += ["--" + dest, value]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({dest: value}))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "config", "message": message}

    @pytest.mark.parametrize("entry, cfg, message", [
        ("integrate", {"matrix": 0, "d": 4}, "matrix must be a string, got matrix = 0"),
        ("equilibrium", {"matrix": True}, "matrix must be a string, got matrix = True"),
        ("equilibrium", {"out": 7}, "out must be a string, got out = 7"),
    ], ids=["matrix-0", "matrix-true", "out-7"])
    def test_config_paths_must_be_strings(self, tmp_path, capsys, monkeypatch,
                                          no_library, entry, cfg, message):
        monkeypatch.setattr(cli, "load_interaction_matrix", _no_trials)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [entry, "--config", str(cfg_path)]
        if "matrix" not in cfg:
            argv += ["--d", "5", "--p", "0.5", "--seed", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "config", "message": message}

    def test_empty_matrix_path_is_read_as_a_path(self, capsys, no_library):
        assert main(["equilibrium", "--matrix", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config",
            "message": "cannot read matrix file: [Errno 2] No such file or "
                       "directory: ''"}

    @pytest.mark.parametrize("d", ["2", "7"])
    def test_d_beside_a_dense_matrix_must_match_its_header(self, tmp_path, capsys,
                                                           no_library, d):
        ring3 = tmp_path / "ring3.txt"
        ring3.write_text("3\n0 1 0\n0 0 1\n1 0 0\n")
        assert main(["equilibrium", "--matrix", str(ring3), "--d", d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": f"dense format: header gives d = 3, not d = {d}"}

    def test_seed_from_the_environment_stays_accepted(self, capsys, monkeypatch,
                                                      ex1_file):
        assert main(["equilibrium", "--matrix", ex1_file]) == 0
        without = capsys.readouterr().out
        monkeypatch.setenv("JKNET_SEED", "5")
        assert main(["equilibrium", "--matrix", ex1_file]) == 0
        assert capsys.readouterr().out == without


class TestSubcommands:
    def test_equilibrium_from_edge_file(self, ex1_file):
        proc = run_cli(["equilibrium", "--matrix", ex1_file])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        np.testing.assert_allclose(doc["x_star"], [0.5, 0.5, 0.0], atol=1e-9)
        assert doc["kind"] == "acs_supported"

    def test_equilibrium_from_dense_file(self, ex1_file, tmp_path, capsys):
        # the same graph as ex1_file, in the dense format: same bytes out
        dense = tmp_path / "ex1.dense"
        dense.write_text("3\n0 1 1\n1 0 0\n0 0 0\n")
        assert main(["equilibrium", "--matrix", str(dense)]) == 0
        out = capsys.readouterr().out
        np.testing.assert_allclose(json.loads(out)["x_star"], [0.5, 0.5, 0.0],
                                   atol=1e-9)
        assert main(["equilibrium", "--matrix", ex1_file]) == 0
        assert capsys.readouterr().out == out

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
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        assert {"generated_at", "argv", "host", "python", "numpy"} <= set(meta)
        # resources go to the sidecar only, never to the primary outputs
        assert 0 < meta["wall_s"] < 60
        assert meta["peak_rss_mb"] > 1
        assert meta["cpu_count"] == os.cpu_count()
        # the package pins one BLAS thread when numpy is not yet imported
        assert meta["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")

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

    def test_two_point_scan_writes_a_null_fit(self, tmp_path, capsys):
        out = tmp_path / "scan"
        assert main(["conjecture-scan", "acs-growth", "--d", "8,12",
                     "--theta", "1.2", "--trials", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        fit = json.loads((tmp_path / "scan.fit.json").read_text())
        assert fit["d_grid"] == [8, 12]
        assert all(m > 0 for m in fit["means"])
        assert (fit["slope"], fit["intercept"], fit["r_squared"]) == (None, None, None)
        assert capsys.readouterr().err == ""

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


class TestOutputWriter:
    # stdout under each --format is byte for byte one of the --out files
    @pytest.mark.parametrize("argv, json_file, csv_file", [
        (["equilibrium", "--d", "6", "--p", "0.3", "--seed", "2"],
         ".json", ".json"),
        (["integrate", "--d", "4", "--p", "0.4", "--seed", "2",
          "--t-max", "0.05"], ".json", ".csv"),
        (["adaptive-run", "--d", "8", "--p", "0.1", "--seed", "2",
          "--max-steps", "4"], ".jsonl", ".jsonl"),
        (["experiment", "waiting-time", "--k", "3", "--p", "0.2",
          "--trials", "4", "--seed", "2"], ".json", ".csv"),
        (["conjecture-scan", "first-cycle", "--d", "4,5,6", "--theta", "0.5",
          "--trials", "2", "--seed", "2"], ".fit.json", ".csv"),
        (["appendix-demo", "--d", "4", "--p", "0.5", "--trials", "2",
          "--seed", "2", "--t-max", "1"], ".json", ".json"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_stdout_is_one_out_file(self, tmp_path, capsys, argv,
                                    json_file, csv_file):
        out = tmp_path / "run"
        status = main(argv + ["--out", str(out)])
        assert capsys.readouterr().out == ""
        runs = [(["--format", fmt], suffix)
                for fmt, suffix in (("json", json_file), ("csv", csv_file))]
        if csv_file == json_file:  # no CSV, so no --format
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "csv"])
            assert exc.value.code == 2
            runs = [([], json_file)]
        for flag, suffix in runs:
            assert main(argv + flag) == status
            assert capsys.readouterr().out == (tmp_path / f"run{suffix}").read_text()


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

    # the package pins BLAS to one thread when it is imported before numpy
    @pytest.mark.parametrize("args", [
        ["adaptive-run", "--d", "300", "--p", "0.005", "--seed", "4",
         "--max-steps", "40"],
        ["equilibrium", "--d", "400", "--theta", "2", "--seed", "3"],
    ])
    def test_bytes_do_not_depend_on_blas_threads(self, args):
        outs = []
        for threads in ("1", "2"):
            proc = run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": threads,
                                            "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_adaptive_trace_bytes_stable(self, tmp_path):
        args = ["adaptive-run", "--d", "15", "--p", "0.04", "--seed", "21",
                "--max-steps", "25"]
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b


class TestRoundTrips:
    def test_matrix_dump_load_round_trip(self, tmp_path):
        from jknet import InteractionMatrix, load_interaction_matrix
        m = InteractionMatrix.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        path = tmp_path / "m.dense"
        path.write_text("4\n0 0 0 1\n1 0 0 0\n0 0 0 0\n0 0 1 0\n")
        back = load_interaction_matrix(str(path))
        assert (back.entries == m.entries).all()

    def test_trace_file_round_trip(self, tmp_path):
        from jknet import ModelParams, run_adaptive, trace_from_json_lines, trace_to_json_lines
        trace = run_adaptive(ModelParams(d=8, p=0.2), seed=2, max_steps=8)
        path = tmp_path / "t.jsonl"
        path.write_text(trace_to_json_lines(trace))
        back = trace_from_json_lines(path.read_text())
        assert trace_to_json_lines(back) == path.read_text()


class TestStreamedCsv:
    """integrate streams its CSV as the RK4 loop accepts each row: no
    whole-text copy, no whole-trajectory buffer, the same bytes."""

    @staticmethod
    def argv(t_max: str, d: int = 30, p: str = "0.1", seed: int = 5) -> list:
        return ["integrate", "--d", str(d), "--p", p, "--seed", str(seed),
                "--t-max", t_max, "--h", "0.01"]

    @staticmethod
    def traced_peak(argv) -> int:
        main(argv)  # first call: lazy imports and caches settle
        tracemalloc.start()
        try:
            status = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        return peak

    # t_max = 50 is the 5,002-row grid: 5,000 steps of h fall short of 50
    # by more than the loop's 1e-12 guard, so a remainder step follows
    @pytest.mark.parametrize("t_max, rows", [("2", 201), ("50", 5002)])
    def test_out_and_stdout_carry_the_oracle_bytes(self, tmp_path, capsysbinary,
                                                   monkeypatch, t_max, rows):
        m = sample_er_digraph(ModelParams(d=30, p=0.1), stream(5))
        times, states, residuals, drift, _ = list_integrate(
            m, dynamics.uniform_state(30), t_end=float(t_max), h=0.01)
        want = joined_trajectory_csv(times, states, residuals).encode()
        assert times.size == rows

        def joined(traj):
            raise AssertionError("the CLI built the CSV as one string")

        monkeypatch.setattr(dynamics, "trajectory_to_csv", joined)
        argv = self.argv(t_max)
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run.csv").read_bytes() == want
        assert json.loads((tmp_path / "run.json").read_text()) == {
            "t_end": times[-1], "final_state": states[-1].tolist(),
            "final_residual": residuals[-1], "mass_drift_rate": drift}
        assert capsysbinary.readouterr().out == b""
        assert main(argv + ["--format", "csv"]) == 0
        assert capsysbinary.readouterr().out == want
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == (tmp_path / "run.json").read_bytes()

    def test_traced_peak_is_below_the_csv_size(self, tmp_path):
        # the list-and-join writer peaked near 3x the CSV's size
        peak = self.traced_peak(self.argv("5", d=200, p="0.01", seed=1)
                                + ["--out", str(tmp_path / "run")])
        size = (tmp_path / "run.csv").stat().st_size
        assert peak < size, (peak, size)

    def test_traced_peak_does_not_grow_with_the_horizon(self, tmp_path):
        # a (rows, d) buffer of the whole trajectory would grow it 10x
        peaks = [self.traced_peak(self.argv(t_max, d=200, p="0.01", seed=1)
                                  + ["--out", str(tmp_path / "run")])
                 for t_max in ("5", "50")]
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_a_failed_run_leaves_no_file(self, tmp_path, capsys):
        # h = 3 undershoots a component after the first rows were written
        argv = ["integrate", "--d", "50", "--p", "0.5", "--seed", "1",
                "--h", "3", "--t-max", "30"]
        (tmp_path / "old.csv").write_text("an earlier run\n")
        for stem in ("run", "old"):
            assert main(argv + ["--out", str(tmp_path / stem)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "FloatingPointError", err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "an earlier run\n"
        # stdout cannot be taken back: the rows before the failure stay
        assert main(argv + ["--format", "csv"]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].startswith("t,x_0,") and len(rows) > 1


class TestRequiredFlagTable:
    def test_a_flag_is_required_only_where_it_is_read(self):
        assert all(set(f.required) <= set(f.readers) for f in FLAGS)
        assert [f.dest for f in FLAGS if f.required] == [
            "d", "d", "p", "p", "theta", "max_steps", "k", "k"]

    def test_cycle_kind_choices_are_adaptation_cycle_kinds(self):
        from jknet.adaptation import CYCLE_KINDS

        assert [f.choices for f in FLAGS if f.dest == "cycle_kind"] == [CYCLE_KINDS]

    def test_readme_table_marks_the_required_flags(self):
        # bold marks the flags FLAGS requires; --matrix exempts d and p
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([a-z -]+)` \| (.*) \|$", section, re.M)
        marked = {entry: re.findall(r"\*\*`(--[a-z0-9-]+)`\*\*", cells)
                  for entry, cells in rows}
        assert marked == {
            entry: ["--" + f.dest.replace("_", "-") for f in FLAGS
                    if entry in f.required]
            for entry in ENTRY_POINTS}

    def test_readme_examples_parse(self, monkeypatch):
        monkeypatch.delenv("JKNET_SEED", raising=False)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"^jknet (.*)$", readme, re.M)
        assert len(examples) == 11
        for line in examples:
            parse_and_validate(shlex.split(line, comments=True))


class TestBudgetBound:
    # each default budget is far above 10**12 steps: these ran for years
    @pytest.mark.parametrize("argv, budget, hint", [
        (["experiment", "first-cycle", "--d", "10", "--p", "1e-15"],
         200000000000000000, True),
        (["experiment", "acs-growth", "--d", "10", "--p", "1e-15"],
         29313111860336536, True),
        (["conjecture-scan", "first-cycle", "--d", "10,20,30", "--theta", "1e-12"],
         2400000000000000, False),
        (["conjecture-scan", "acs-growth", "--d", "10,20,30", "--theta", "1e-12"],
         959563869555359, False),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
    def test_a_default_budget_over_the_bound_exits_2_before_any_trial(
            self, capsys, monkeypatch, argv, budget, hint):
        monkeypatch.setattr(experiments, "run_adaptive", _no_trials)
        assert main(argv + ["--trials", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = (f"the default budget of {budget} steps exceeds the bound of "
                   f"1000000000000 steps")
        if hint:
            message += "; give --max-steps to run it anyway"
        assert json.loads(captured.err) == {"error": "config", "message": message}

    @pytest.mark.parametrize("kind", ["first-cycle", "acs-growth"])
    def test_an_explicit_budget_is_not_bounded(self, capsys, kind):
        assert main(["experiment", kind, "--d", "10", "--p", "1e-15", "--trials",
                     "2", "--seed", "1", "--max-steps", "3"]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["config"]["max_steps"] == 3

    def test_a_realistic_default_budget_runs(self, capsys, monkeypatch):
        seen = []

        def record(d, p, trials, max_steps, *args, **kwargs):
            seen.append(max_steps)
            return experiments.ExperimentResult.from_measurements([1.0])

        monkeypatch.setattr(experiments, "first_cycle_time_jk", record)
        assert main(["experiment", "first-cycle", "--d", "10000", "--theta", "0.5",
                     "--trials", "1", "--seed", "1"]) == 0
        assert seen == [4_000_000_000]
        assert json.loads(capsys.readouterr().out)["config"]["max_steps"] == seen[0]

    def test_the_no_edge_refusal_comes_first(self, capsys):
        assert main(["experiment", "first-cycle", "--d", "10", "--p", "0",
                     "--trials", "1", "--seed", "1"]) == 2
        assert "never draws an edge" in json.loads(capsys.readouterr().err)["message"]

"""Command-line front end.

Subcommands: equilibrium, integrate, adaptive-run, experiment <kind>,
conjecture-scan, appendix-demo. Flags override values from an optional
JSON config file; unknown config keys are rejected. Exactly one of p and
theta is required (the other is derived via theta = p*d). The seed comes
from --seed, the config file, or the JKNET_SEED environment variable and
is mandatory for every stochastic subcommand, so runs are reproducible by
default.

Primary outputs are byte-deterministic for a given config and seed;
wall-clock and host metadata go to a separate ``<out>.meta.json`` sidecar.
Exit codes: 0 success, 1 error (machine-readable JSON on stderr), 2 for
an experiment whose trials were all censored or for a flag that argparse
rejects (a usage message on stderr).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import experiments, signed_model
from .adaptation import X0_MODES, run_adaptive, trace_to_json_lines
from .dynamics import (
    equilibrium,
    equilibrium_to_json_dict,
    integrate,
    trajectory_to_csv,
    uniform_state,
)
from .graph import InteractionMatrix, ModelParams, load_interaction_matrix, sample_er_digraph
from .rng import stream

__all__ = ["main", "parse_and_validate", "dispatch", "RunConfig", "CliError"]

EXPERIMENT_KINDS = (
    "cycle-dist", "first-cycle", "first-cycle-uniform",
    "first-cycle-permutation", "acs-attach", "acs-growth", "waiting-time",
)
SCAN_TARGETS = ("first-cycle", "acs-growth")
SEED_ENV = "JKNET_SEED"


class CliError(Exception):
    """Configuration or dispatch failure reported on stderr as JSON."""


@dataclass
class RunConfig:
    """Validated, merged configuration for one invocation."""

    command: str
    kind: str | None = None
    d: int | None = None
    p: float | None = None
    theta: float | None = None
    d_grid: tuple | None = None
    seed: int | None = None
    trials: int = 100
    tol: float = 1e-10
    h: float = 0.01
    t_max: float = 500.0
    phi: float = -1.0
    max_steps: int | None = None
    k: int | None = None
    k0: int = 2
    cycle_kind: str = "directed"
    x0_mode: str = "uniform"
    jobs: int = 1
    out: str | None = None
    format: str = "json"
    matrix: str | None = None
    config: str | None = None


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command", "config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jknet",
        description="Adaptive catalytic network simulator and experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p_, x0_modes=("uniform", "carry", "analytic")):
        p_.add_argument("--config", help="JSON config file; flags override it")
        p_.add_argument("--d", type=str, help="vertex count (comma list for scans)")
        p_.add_argument("--p", type=float, help="edge probability")
        p_.add_argument("--theta", type=float, help="mean degree p*d")
        p_.add_argument("--seed", type=int, help=f"RNG seed (or ${SEED_ENV})")
        p_.add_argument("--trials", type=int)
        p_.add_argument("--tol", type=float)
        p_.add_argument("--h", type=float, help="integrator step size")
        p_.add_argument("--t-max", dest="t_max", type=float)
        p_.add_argument("--phi", type=float, help="cone-system shift")
        p_.add_argument("--max-steps", dest="max_steps", type=int)
        p_.add_argument("--k", type=int, help="cycle length / set size")
        p_.add_argument("--k0", type=int, help="planted cycle length")
        p_.add_argument("--cycle-kind", dest="cycle_kind",
                        choices=("directed", "undirected"))
        p_.add_argument("--x0-mode", dest="x0_mode", choices=x0_modes)
        p_.add_argument("--jobs", type=int, help="worker processes for trials")
        p_.add_argument("--out", help="output path stem")
        p_.add_argument("--format", choices=("json", "csv"))
        p_.add_argument("--matrix", help="interaction matrix file")

    add_common(sub.add_parser("equilibrium", help="solve one graph's equilibrium"))
    add_common(sub.add_parser("integrate", help="integrate the simplex flow"))
    # the adaptive loop reads each equilibrium from a flow start, so only
    # the start modes of run_adaptive apply there
    add_common(sub.add_parser("adaptive-run", help="run the adaptive loop"),
               X0_MODES)
    exp = sub.add_parser("experiment", help="seeded Monte Carlo experiment")
    exp.add_argument("kind", choices=EXPERIMENT_KINDS)
    add_common(exp, X0_MODES)
    scan = sub.add_parser("conjecture-scan", help="waiting-time scan over a d-grid")
    scan.add_argument("kind", choices=SCAN_TARGETS)
    add_common(scan, X0_MODES)
    add_common(sub.add_parser("appendix-demo",
                              help="demonstrate signed-model mass loss"))
    return parser


def _parse_d(raw) -> tuple[int | None, tuple | None]:
    if raw is None:
        return None, None
    if isinstance(raw, int):
        return raw, None
    if isinstance(raw, (list, tuple)):
        return None, tuple(int(v) for v in raw)
    text = str(raw)
    if "," in text:
        grid = tuple(int(v) for v in text.split(",") if v.strip())
        if not grid:
            raise CliError("empty d grid")
        return None, grid
    return int(text), None


def parse_and_validate(argv) -> RunConfig:
    """Merge CLI flags over the optional config file into a RunConfig."""
    ns = build_parser().parse_args(argv)
    merged: dict = {}
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}")
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key, val in vars(ns).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key] = val

    cfg = RunConfig(command=ns.command, config=ns.config)
    for key, val in merged.items():
        setattr(cfg, key, val)

    cfg.d, grid = _parse_d(merged.get("d"))
    if grid is not None:
        cfg.d_grid = grid
    if cfg.d_grid is not None:
        cfg.d_grid = tuple(int(v) for v in cfg.d_grid)

    # exactly one of p/theta may be given; the other is derived from d
    ref_d = cfg.d if cfg.d is not None else (cfg.d_grid[0] if cfg.d_grid else None)
    if cfg.p is not None and cfg.theta is not None:
        raise CliError(
            f"conflicting p and theta: give exactly one (got p={cfg.p!r}, "
            f"theta={cfg.theta!r}); the other is derived via theta = p*d")
    elif cfg.theta is not None and ref_d is not None and cfg.d_grid is None:
        cfg.p = cfg.theta / ref_d
    elif cfg.p is not None and ref_d is not None:
        cfg.theta = cfg.p * ref_d

    if cfg.trials < 1:
        raise CliError("trials must be >= 1")
    if cfg.seed is None and os.environ.get(SEED_ENV):
        try:
            cfg.seed = int(os.environ[SEED_ENV])
        except ValueError:
            raise CliError(f"${SEED_ENV} is not an integer")
    needs_seed = cfg.command in ("experiment", "conjecture-scan",
                                 "adaptive-run", "appendix-demo")
    if cfg.command in ("equilibrium", "integrate") and cfg.matrix is None:
        needs_seed = True
    if needs_seed and cfg.seed is None:
        raise CliError(f"a seed is required (--seed, config, or ${SEED_ENV})")
    return cfg


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_meta(out: str, argv) -> None:
    meta = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "argv": list(argv),
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    _write(out + ".meta.json", _json_text(meta))


def _emit(cfg: RunConfig, json_obj, csv_text: str | None = None) -> None:
    """Write primary outputs; stdout gets the --format selection."""
    if cfg.out:
        _write(cfg.out + ".json", _json_text(json_obj))
        if csv_text is not None:
            _write(cfg.out + ".csv", csv_text)
    else:
        if cfg.format == "csv" and csv_text is not None:
            sys.stdout.write(csv_text)
        else:
            sys.stdout.write(_json_text(json_obj))


def _require(cfg: RunConfig, *names) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required for this command")


def _load_or_sample_matrix(cfg: RunConfig) -> InteractionMatrix:
    if cfg.matrix:
        try:
            return load_interaction_matrix(cfg.matrix, d=cfg.d)
        except OSError as exc:
            raise CliError(f"cannot read matrix file: {exc}")
    _require(cfg, "d", "p", "seed")
    return sample_er_digraph(ModelParams(d=cfg.d, p=cfg.p), stream(cfg.seed))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_equilibrium(cfg: RunConfig) -> int:
    matrix = _load_or_sample_matrix(cfg)
    eq = equilibrium(matrix, analytic=(cfg.x0_mode == "analytic"), tol=cfg.tol)
    _emit(cfg, equilibrium_to_json_dict(eq))
    return 0


def _cmd_integrate(cfg: RunConfig) -> int:
    matrix = _load_or_sample_matrix(cfg)
    t_end = cfg.t_max if cfg.t_max is not None else 50.0
    traj = integrate(matrix, uniform_state(matrix.d), t_end=t_end, h=cfg.h)
    csv_text = trajectory_to_csv(traj)
    summary = {
        "t_end": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.states[-1]],
        "final_residual": float(traj.residuals[-1]),
        "mass_drift_rate": traj.mass_drift_rate,
    }
    if cfg.out:
        _write(cfg.out + ".csv", csv_text)
        _write(cfg.out + ".json", _json_text(summary))
    else:
        sys.stdout.write(csv_text if cfg.format == "csv" else _json_text(summary))
    return 0


def _cmd_adaptive_run(cfg: RunConfig) -> int:
    _require(cfg, "d", "p", "seed", "max_steps")
    trace = run_adaptive(ModelParams(d=cfg.d, p=cfg.p), seed=cfg.seed,
                         max_steps=cfg.max_steps, stop="none",
                         cycle_kind=cfg.cycle_kind, x0_mode=cfg.x0_mode,
                         plant_cycle=None, tol=cfg.tol)
    text = trace_to_json_lines(trace)
    if cfg.out:
        _write(cfg.out + ".jsonl", text)
    else:
        sys.stdout.write(text)
    return 0


def _experiment_result(cfg: RunConfig):
    kind = cfg.kind
    if kind == "cycle-dist":
        _require(cfg, "d", "theta", "k", "seed")
        return experiments.measure_cycle_counts(cfg.d, cfg.theta, cfg.k,
                                                cfg.trials, cfg.seed)
    if kind == "first-cycle":
        _require(cfg, "d", "p", "seed")
        max_steps = cfg.max_steps or int(20 * cfg.d / max(cfg.p, 1e-9))
        return experiments.first_cycle_time_jk(cfg.d, cfg.p, cfg.trials,
                                               max_steps, cfg.seed,
                                               cycle_kind=cfg.cycle_kind,
                                               x0_mode=cfg.x0_mode, jobs=cfg.jobs)
    if kind in ("first-cycle-uniform", "first-cycle-permutation"):
        _require(cfg, "d", "seed")
        model = kind.rsplit("-", 1)[1]
        return experiments.first_cycle_edge_experiment(model, cfg.d, cfg.trials,
                                                       cfg.seed, jobs=cfg.jobs)
    if kind == "acs-attach":
        _require(cfg, "k", "p", "seed")
        return experiments.acs_attach_experiment(cfg.k, cfg.p, cfg.trials,
                                                 cfg.seed, jobs=cfg.jobs)
    if kind == "acs-growth":
        _require(cfg, "d", "p", "seed")
        exact, _ = experiments.oracle_total_growth(cfg.d, cfg.p)
        max_steps = cfg.max_steps or int(10 * max(exact, 50.0))
        return experiments.acs_growth_time_jk(cfg.d, cfg.p, cfg.trials,
                                              cfg.seed, max_steps,
                                              k0=cfg.k0, x0_mode=cfg.x0_mode,
                                              jobs=cfg.jobs)
    if kind == "waiting-time":
        _require(cfg, "k", "p", "seed")
        return experiments.waiting_time_experiment(cfg.k, cfg.p, cfg.trials,
                                                   cfg.seed)
    raise CliError(f"unknown experiment kind {kind!r}")


def _cmd_experiment(cfg: RunConfig) -> int:
    result = _experiment_result(cfg)
    payload = {"config": _config_dict(cfg), "result": result.to_json_dict()}
    _emit(cfg, payload, result.to_csv())
    if result.trials > 0 and result.censored_count == result.trials:
        return 2
    return 0


def _cmd_conjecture_scan(cfg: RunConfig) -> int:
    _require(cfg, "theta", "seed")
    if not cfg.d_grid:
        raise CliError("conjecture-scan needs --d with a comma-separated grid")
    scan = experiments.conjecture_scan(cfg.kind.replace("-", "_"), cfg.theta,
                                       cfg.d_grid, cfg.trials, cfg.seed,
                                       k0=cfg.k0, cycle_kind=cfg.cycle_kind,
                                       jobs=cfg.jobs)
    fit = {
        "kind": scan.kind,
        "slope": None if scan.fit is None else scan.fit.slope,
        "intercept": None if scan.fit is None else scan.fit.intercept,
        "r_squared": None if scan.fit is None else scan.fit.r_squared,
        "d_grid": [pt.d for pt in scan.points],
        "means": [float(pt.mean) for pt in scan.points],
        "config": _config_dict(cfg),
    }
    if cfg.out:
        _write(cfg.out + ".csv", scan.to_csv())
        _write(cfg.out + ".fit.json", _json_text(fit))
    else:
        sys.stdout.write(scan.to_csv() if cfg.format == "csv" else _json_text(fit))
    return 0


def _cmd_appendix_demo(cfg: RunConfig) -> int:
    _require(cfg, "d", "p", "seed")
    t_max = cfg.t_max if cfg.t_max is not None else 50.0
    report = signed_model.demonstrate_inconsistency(cfg.d, cfg.p, cfg.trials,
                                                    cfg.seed, t_max=t_max,
                                                    h=cfg.h)
    _emit(cfg, signed_model.report_to_json_dict(report))
    return 0


def _config_dict(cfg: RunConfig) -> dict:
    # jobs is an execution knob, not part of the experiment's identity;
    # keeping it out makes outputs byte-identical across worker counts
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None or f.name in ("out", "format", "config", "jobs"):
            continue
        out[f.name] = list(val) if isinstance(val, tuple) else val
    return out


_DISPATCH = {
    "equilibrium": _cmd_equilibrium,
    "integrate": _cmd_integrate,
    "adaptive-run": _cmd_adaptive_run,
    "experiment": _cmd_experiment,
    "conjecture-scan": _cmd_conjecture_scan,
    "appendix-demo": _cmd_appendix_demo,
}


def dispatch(cfg: RunConfig, argv=()) -> int:
    status = _DISPATCH[cfg.command](cfg)
    if cfg.out:
        _write_meta(cfg.out, argv)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_and_validate(argv)
        return dispatch(cfg, argv)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # propagate module errors machine-readably
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

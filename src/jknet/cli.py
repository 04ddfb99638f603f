"""Command-line front end.

Entry points: equilibrium, integrate, adaptive-run, experiment <kind>,
conjecture-scan <kind>, appendix-demo. Each takes only the flags its code
reads, as ``FLAGS`` lists them; a JSON config file may set the same ones,
and flags override it. Exactly one of p and theta may be given (the other
is derived via theta = p*d). The seed comes from --seed, the config file,
or the JKNET_SEED environment variable and is mandatory for every
stochastic entry point, so runs are reproducible by default.

Primary outputs are byte-deterministic for a given config and seed;
wall-clock and host metadata go to a separate ``<out>.meta.json`` sidecar.
Exit codes: 0 success, 1 error (machine-readable JSON on stderr), 2 for
an experiment whose trials were all censored, for a run refused because
its trials could not end in time (JSON on stderr), or for a flag that
argparse rejects (a usage message on stderr).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import socket
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import BLAS_THREAD_VARS, experiments, signed_model
from .adaptation import CYCLE_KINDS, X0_MODES, run_adaptive, trace_to_json_lines
from .dynamics import (
    equilibrium,
    equilibrium_to_json_dict,
    integrate_to_csv,
    uniform_state,
)
from .graph import (InteractionMatrix, ModelParams, load_interaction_matrix,
                    sample_er_digraph)
from .rng import stream

__all__ = ["main", "parse_and_validate", "dispatch", "CliError"]

ENTRY_POINTS = (
    "equilibrium", "integrate", "adaptive-run",
    "experiment cycle-dist", "experiment first-cycle",
    "experiment first-cycle-uniform", "experiment first-cycle-permutation",
    "experiment acs-attach", "experiment acs-growth", "experiment waiting-time",
    "conjecture-scan first-cycle", "conjecture-scan acs-growth",
    "appendix-demo",
)
SEED_ENV = "JKNET_SEED"


class CliError(Exception):
    """Configuration or dispatch failure reported on stderr as JSON.

    ``status`` is the exit code: 1, or 2 for a configuration under which
    every trial would be censored, the code such a run exits with.
    """

    def __init__(self, message: str, status: int = 1):
        super().__init__(message)
        self.status = status


class Domain(NamedTuple):
    """The values a flag accepts; any other is refused: "{dest} must {text}"."""

    ok: Callable
    text: str


class Flag(NamedTuple):
    """A flag, and the entry points whose code reads it: only they take it,
    on the command line or in a config file. Those in ``required`` cannot
    run without its value, unless a --matrix file gives the graph."""

    dest: str
    readers: tuple
    type: Callable | None = None
    choices: tuple | None = None
    default: object = None
    help: str | None = None
    domain: Domain | None = None
    required: tuple = ()


_FIRST_CYCLE = ("experiment first-cycle", "conjecture-scan first-cycle")
_ACS_GROWTH = ("experiment acs-growth", "conjecture-scan acs-growth")
_EDGE_EXPERIMENTS = ("experiment first-cycle-uniform",
                     "experiment first-cycle-permutation")
_ATTACH = ("experiment acs-attach", "experiment waiting-time")
_RUN_ADAPTIVE = ("adaptive-run", "experiment first-cycle", "experiment acs-growth")
# the entry points that draw graphs of d vertices at p = theta / d
_SAMPLED = ("equilibrium", "integrate", "adaptive-run", "experiment cycle-dist",
            *_FIRST_CYCLE, *_ACS_GROWTH, "appendix-demo")
# those that read one d: a scan's grid is demanded by the rule on its form
_ONE_D = tuple(e for e in _SAMPLED if not e.startswith("conjecture-scan"))


def _at_least(n: int) -> Domain:
    return Domain(lambda v: v >= n, f"be >= {n}")


_POSITIVE = Domain(lambda v: 0 < v < math.inf, "be positive and finite")
_UNIT = Domain(lambda v: 0 <= v <= 1, "lie in [0, 1]")
# a flag's value is text, but a config file's path may be any JSON value
_PATH = Domain(lambda v: isinstance(v, str), "be a string")
# integrate and appendix-demo run t_max / h RK4 steps: a bound on the time
# a run takes (integrate's memory does not grow with the step count)
_STEPS = Domain(lambda v: v <= 10 ** 7, "be <= 10000000")

FLAGS = (
    Flag("config", ENTRY_POINTS, help="JSON config file; flags override it"),
    Flag("out", ENTRY_POINTS, help="output path stem", domain=_PATH),
    Flag("format", tuple(e for e in ENTRY_POINTS if e not in  # those with a CSV
                         ("equilibrium", "adaptive-run", "appendix-demo")),
         choices=("json", "csv"), default="json"),
    Flag("matrix", ("equilibrium", "integrate"), help="interaction matrix file",
         domain=_PATH),
    Flag("d", _SAMPLED, type=str, help="vertex count (comma list for scans)",
         domain=_at_least(2), required=_ONE_D),
    # the edge models' first cycle needs three vertices
    Flag("d", _EDGE_EXPERIMENTS, type=str, help="vertex count", domain=_at_least(3),
         required=_EDGE_EXPERIMENTS),
    # a scan keeps theta fixed over its d grid; cycle counts need theta
    Flag("p", _ONE_D, type=float, help="edge probability", domain=_UNIT,
         required=tuple(e for e in _ONE_D if e != "experiment cycle-dist")),
    # the attachment oracle 1/r(k, p) needs p < 1
    Flag("p", _ATTACH, type=float, help="edge probability",
         domain=Domain(lambda v: 0 <= v < 1, "lie in [0, 1)"), required=_ATTACH),
    Flag("theta", _SAMPLED, type=float, help="mean degree p*d", domain=_at_least(0),
         required=("experiment cycle-dist", "conjecture-scan first-cycle",
                   "conjecture-scan acs-growth")),
    Flag("seed", ENTRY_POINTS, type=int, help=f"RNG seed (or ${SEED_ENV})",
         domain=_at_least(0)),
    Flag("trials", tuple(e for e in ENTRY_POINTS if e not in
                         ("equilibrium", "integrate", "adaptive-run")),
         type=int, default=100, domain=_at_least(1)),
    Flag("h", ("integrate", "appendix-demo"), type=float, default=0.01,
         help="integrator step size", domain=_POSITIVE),
    Flag("t_max", ("integrate", "appendix-demo"), type=float, default=500.0,
         domain=_POSITIVE),
    Flag("max_steps", _RUN_ADAPTIVE, type=int, domain=_at_least(1),
         required=("adaptive-run",)),
    Flag("k", ("experiment cycle-dist",), type=int, help="cycle length",
         domain=Domain(lambda v: 3 <= v <= experiments.MAX_CYCLE_LENGTH,
                       f"lie in [3, {experiments.MAX_CYCLE_LENGTH}]"),
         required=("experiment cycle-dist",)),
    Flag("k", _ATTACH, type=int, help="set size", domain=_at_least(1),
         required=_ATTACH),
    Flag("k0", _ACS_GROWTH, type=int, default=2, help="planted cycle length",
         domain=_at_least(2)),
    Flag("cycle_kind", ("adaptive-run",) + _FIRST_CYCLE,
         choices=CYCLE_KINDS, default="directed"),
    # the adaptive loop reads each equilibrium from a flow start, so only
    # the start modes of run_adaptive apply there
    Flag("x0_mode", ("equilibrium",), choices=("uniform", "analytic"),
         default="uniform"),
    Flag("x0_mode", _RUN_ADAPTIVE, choices=X0_MODES, default="uniform"),
    Flag("jobs", _FIRST_CYCLE + _ACS_GROWTH + _EDGE_EXPERIMENTS
         + ("experiment acs-attach",), type=int, default=1,
         help="worker processes for trials", domain=_at_least(1)),
)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an entry point without --h or --k would read
    # them as --help or --k0
    parser = argparse.ArgumentParser(
        prog="jknet", allow_abbrev=False,
        description="Adaptive catalytic network simulator and experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands, leaves = {}, {}
    for entry in ENTRY_POINTS:
        command, _, kind = entry.partition(" ")
        if command not in commands:
            cmd = sub.add_parser(command, help=_DISPATCH[command].__doc__,
                                 allow_abbrev=False)
            commands[command] = (cmd.add_subparsers(dest="kind", required=True)
                                 if kind else cmd)
        leaves[entry] = (commands[command].add_parser(kind, allow_abbrev=False)
                         if kind else commands[command])
    # flags default to None so that a config-file value can fill them
    for flag in FLAGS:
        for entry in flag.readers:
            leaves[entry].add_argument("--" + flag.dest.replace("_", "-"),
                                       type=flag.type, choices=flag.choices,
                                       help=flag.help)
    return parser


def _parse_d(raw) -> tuple[int | None, tuple | None]:
    if raw is None:
        return None, None
    if isinstance(raw, int):
        return raw, None
    try:
        if isinstance(raw, (list, tuple)):
            grid = tuple(int(str(v)) for v in raw)  # 2.5 is no int
        elif "," in str(raw):
            grid = tuple(int(v) for v in str(raw).split(",") if v.strip())
        else:
            return int(str(raw)), None
    except (TypeError, ValueError):
        raise CliError(f"invalid d value {raw!r}")
    if not grid:
        raise CliError("empty d grid")
    return None, grid


def _coerce_config(file_cfg: dict, flags: dict) -> dict:
    """Config-file values through their flags' types and choices.

    Each value is converted from its text, as the flag's would be, so that
    2.5 or true is not taken for an int. ``d`` keeps its JSON value:
    ``_parse_d`` reads ints, lists and comma strings alike.
    """
    out = {}
    for key, val in file_cfg.items():
        flag = flags[key]
        if key != "d":
            if flag.type is not None:
                try:
                    val = flag.type(str(val))
                except (TypeError, ValueError):
                    raise CliError(f"config key {key!r}: invalid "
                                   f"{flag.type.__name__} value {val!r}")
            if flag.choices is not None and val not in flag.choices:
                raise CliError(f"config key {key!r}: invalid choice {val!r} "
                               f"(choose from {', '.join(flag.choices)})")
        out[key] = val
    return out


def parse_and_validate(argv) -> argparse.Namespace:
    """Merge flags over the config file and the defaults; check every value.

    The namespace holds ``command``, ``kind`` for experiments and scans,
    and each flag the entry point reads; ``d_grid`` is set beside ``d``,
    and ``p`` or ``theta`` is derived from the other where d is known.
    """
    ns = build_parser().parse_args(argv)
    cfg = vars(ns)  # the namespace's own dict: writes below land in ns
    entry = " ".join(filter(None, (ns.command, getattr(ns, "kind", None))))
    flags = {f.dest: f for f in FLAGS if entry in f.readers}
    file_cfg = {}
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        unknown = set(file_cfg) - (set(flags) - {"config"})
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    file_cfg = _coerce_config(file_cfg, flags)
    for dest, flag in flags.items():
        if cfg[dest] is None:  # a flag beats the file, the file the default
            cfg[dest] = file_cfg.get(dest, flag.default)
    # a matrix file fixes the graph: a draw's p, theta or seed changes nothing
    for dest in ("p", "theta", "seed") if cfg.get("matrix") is not None else ():
        if cfg[dest] is not None:
            raise CliError(f"{dest} must not be given with --matrix, "
                           f"got {dest} = {cfg[dest]!r}")

    if "d" in flags:
        raw = cfg["d"]
        cfg["d"], cfg["d_grid"] = _parse_d(raw)
        # the two scans take a grid of distinct d, every other entry point one d
        if ns.command != "conjecture-scan":
            if cfg["d_grid"] is not None:
                raise CliError(f"d must be one value, got d = {raw!r}")
        elif cfg["d_grid"] is None or len(set(cfg["d_grid"])) < len(cfg["d_grid"]):
            raise CliError(f"d must be a grid of distinct values, got d = {raw!r}")
        # exactly one of p/theta may be given; the other is derived from d
        p, theta, d = cfg.get("p"), cfg.get("theta"), cfg["d"]
        if p is not None and theta is not None:
            raise CliError(
                f"conflicting p and theta: give exactly one (got p={p!r}, "
                f"theta={theta!r}); the other is derived via theta = p*d")
        elif theta is not None and d is not None:
            cfg["p"] = theta / d
        elif p is not None and d is not None:
            cfg["theta"] = p * d
    if ns.seed is None and os.environ.get(SEED_ENV):
        try:
            ns.seed = int(os.environ[SEED_ENV])
        except ValueError:
            raise CliError(f"${SEED_ENV} is not an integer")
    # each value read lies in its flag's domain, every d of a scan's grid
    # too, and so does the p = theta / d a scan draws each graph at
    grid, theta, d = cfg.get("d_grid") or (), cfg.get("theta"), cfg.get("d")
    reads = [(dest, flag.domain, v) for dest, flag in flags.items()
             for v in (grid if dest == "d" and grid else (cfg[dest],))]
    reads += [("p", _UNIT, theta / g) for g in grid if g and theta is not None]
    # the planted k0-cycle must fit each graph; cycle counts need theta/d < 1
    d_min = min(grid or (d or math.inf,))
    reads.append(("k0", Domain(lambda v: v <= d_min, f"be <= d = {d_min}"), cfg.get("k0")))
    if entry == "experiment cycle-dist" and theta is not None and d:
        reads.append(("theta/d", Domain(lambda v: v < 1, "be < 1"), theta / d))
    # "" would name no file: the outputs would go to stdout, and no sidecar
    reads.append(("out", Domain(bool, "not be empty"), cfg.get("out")))
    if "h" in flags and cfg["h"]:  # h = 0 meets its own domain first
        reads.append(("t_max/h", _STEPS, cfg["t_max"] / cfg["h"]))
    for dest, domain, value in reads:
        if domain is not None and value is not None and not domain.ok(value):
            raise CliError(f"{dest} must {domain.text}, got {dest} = {value!r}")
    if ns.seed is None and cfg.get("matrix") is None:
        raise CliError(f"a seed is required (--seed, config, or ${SEED_ENV})")
    for dest, flag in flags.items() if cfg.get("matrix") is None else ():
        if entry in flag.required and cfg[dest] is None:
            raise CliError(f"--{dest.replace('_', '-')} is required for this command")
    return ns


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_meta(out: str, argv, wall_s: float) -> None:
    """Write the ``<out>.meta.json`` sidecar: host facts and resources used.

    ``peak_rss_mb`` is ``ru_maxrss``, the peak of the whole process so far,
    which in a process that ran several commands need not be this one's.
    """
    import resource  # here, not at the top: the import would add to start-up

    meta = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "argv": list(argv),
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": wall_s,
        # kilobytes on Linux, bytes on macOS
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    _write(out + ".meta.json", _json_text(meta))


def _emit(cfg: argparse.Namespace, outputs: dict) -> None:
    """Write the primary outputs, ``{suffix: text}`` with the main one first.

    With --out every entry goes to ``<out><suffix>``. Otherwise stdout
    gets the ``.csv`` text under --format csv, otherwise the first entry.
    """
    if cfg.out is not None:
        for suffix, text in outputs.items():
            _write(cfg.out + suffix, text)
    elif getattr(cfg, "format", "json") == "csv":
        sys.stdout.write(outputs[".csv"])
    else:
        sys.stdout.write(next(iter(outputs.values())))


@contextlib.contextmanager
def _csv_stream(cfg: argparse.Namespace):
    """The text stream ``integrate`` writes its CSV rows to as it runs.

    It is ``<out>.csv`` under --out, written as ``<out>.csv.part`` and
    renamed once the block ends, so that a failed run leaves no CSV; it
    is stdout under --format csv, which may hold rows of a run that then
    fails; and it is None when no CSV is asked for.
    """
    if cfg.out is None:
        yield sys.stdout if cfg.format == "csv" else None
        return
    path = cfg.out + ".csv"
    fh = open(path + ".part", "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(fh.name)
        raise
    os.replace(fh.name, path)


def _load_or_sample_matrix(cfg: argparse.Namespace) -> InteractionMatrix:
    if cfg.matrix is not None:
        try:
            return load_interaction_matrix(cfg.matrix, d=cfg.d)
        except OSError as exc:
            raise CliError(f"cannot read matrix file: {exc}")
    return sample_er_digraph(ModelParams(d=cfg.d, p=cfg.p), stream(cfg.seed))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_equilibrium(cfg: argparse.Namespace) -> int:
    """Solve one graph's equilibrium."""
    matrix = _load_or_sample_matrix(cfg)
    eq = equilibrium(matrix, analytic=(cfg.x0_mode == "analytic"))
    _emit(cfg, {".json": _json_text(equilibrium_to_json_dict(eq))})
    return 0


def _cmd_integrate(cfg: argparse.Namespace) -> int:
    """Integrate the simplex flow."""
    matrix = _load_or_sample_matrix(cfg)
    with _csv_stream(cfg) as csv:
        traj = integrate_to_csv(matrix, uniform_state(matrix.d), t_end=cfg.t_max,
                                h=cfg.h, out=csv)
    summary = {
        "t_end": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.states[-1]],
        "final_residual": float(traj.residuals[-1]),
        "mass_drift_rate": traj.mass_drift_rate,
    }
    if cfg.out is not None or cfg.format == "json":  # else stdout got the rows
        _emit(cfg, {".json": _json_text(summary)})
    return 0


def _cmd_adaptive_run(cfg: argparse.Namespace) -> int:
    """Run the adaptive loop."""
    trace = run_adaptive(ModelParams(d=cfg.d, p=cfg.p), seed=cfg.seed,
                         max_steps=cfg.max_steps, cycle_kind=cfg.cycle_kind,
                         x0_mode=cfg.x0_mode)
    _emit(cfg, {".jsonl": trace_to_json_lines(trace)})
    return 0


def _refuse_no_edges(name: str, value: float, d: int = 1, hint: str = "") -> None:
    """Exit 2, as an all-censored run would, on a p = value / d below 2**-53:
    ``rng.random()`` steps by 2**-53, so it draws no edge at such a p."""
    if value / d < 2.0 ** -53:
        bound = "2**-53" if d == 1 else f"{d} * 2**-53"
        got = "0" if value == 0 else f"{value!r} < {bound}"
        raise CliError(f"{name} = {got} never draws an edge, so every trial "
                       f"would be censored{hint}", status=2)


_RUN_ANYWAY = "; give --max-steps to run it anyway"


def _bounded_budget(budget: int, hint: str = "") -> int:
    """A default step budget; exit 2 above ``experiments.MAX_DEFAULT_BUDGET``,
    where a run could take years."""
    if budget > experiments.MAX_DEFAULT_BUDGET:
        raise CliError(f"the default budget of {budget} steps exceeds the bound "
                       f"of {experiments.MAX_DEFAULT_BUDGET} steps{hint}", status=2)
    return budget


def _experiment_result(cfg: argparse.Namespace):
    kind = cfg.kind
    if kind == "cycle-dist":
        return experiments.measure_cycle_counts(cfg.d, cfg.theta, cfg.k,
                                                cfg.trials, cfg.seed)
    if kind == "first-cycle":
        if cfg.max_steps is None:
            # the default scales with 1/p, but where no edge is drawn at p
            # no trial can end within any budget
            _refuse_no_edges("p", cfg.p, hint=_RUN_ANYWAY)
            # written back, so that the config block records the budget that ran
            cfg.max_steps = _bounded_budget(int(20 * cfg.d / cfg.p), _RUN_ANYWAY)
        return experiments.first_cycle_time_jk(cfg.d, cfg.p, cfg.trials,
                                               cfg.max_steps, cfg.seed,
                                               cycle_kind=cfg.cycle_kind,
                                               x0_mode=cfg.x0_mode, jobs=cfg.jobs)
    if kind in ("first-cycle-uniform", "first-cycle-permutation"):
        model = kind.rsplit("-", 1)[1]
        return experiments.first_cycle_edge_experiment(model, cfg.d, cfg.trials,
                                                       cfg.seed, jobs=cfg.jobs)
    if kind in ("acs-attach", "waiting-time"):
        _refuse_no_edges("p", cfg.p)
        if kind == "waiting-time":
            return experiments.waiting_time_experiment(cfg.k, cfg.p, cfg.trials, cfg.seed)
        return experiments.acs_attach_experiment(cfg.k, cfg.p, cfg.trials,
                                                 cfg.seed, jobs=cfg.jobs)
    if kind == "acs-growth":
        _refuse_no_edges("p", cfg.p)
        if cfg.max_steps is None:
            exact, _ = experiments.oracle_total_growth(cfg.d, cfg.p)
            cfg.max_steps = _bounded_budget(int(10 * max(exact, 50.0)), _RUN_ANYWAY)
        return experiments.acs_growth_time_jk(cfg.d, cfg.p, cfg.trials,
                                              cfg.seed, cfg.max_steps,
                                              k0=cfg.k0, x0_mode=cfg.x0_mode,
                                              jobs=cfg.jobs)


def _cmd_experiment(cfg: argparse.Namespace) -> int:
    """Seeded Monte Carlo experiment."""
    result = _experiment_result(cfg)
    payload = {"config": _config_dict(cfg), "result": result.to_json_dict()}
    _emit(cfg, {".json": _json_text(payload), ".csv": result.to_csv()})
    if result.trials > 0 and result.censored_count == result.trials:
        return 2
    return 0


def _cmd_conjecture_scan(cfg: argparse.Namespace) -> int:
    """Waiting-time scan over a d-grid."""
    _refuse_no_edges("theta", cfg.theta, max(cfg.d_grid))
    kind = cfg.kind.replace("-", "_")
    _bounded_budget(max(experiments.scan_budget(kind, cfg.theta, d)
                        for d in cfg.d_grid))
    # a cycle scan reads the cycle kind, a growth scan the planted cycle
    knob = ({"cycle_kind": cfg.cycle_kind} if kind == "first_cycle"
            else {"k0": cfg.k0})
    scan = experiments.conjecture_scan(kind, cfg.theta, cfg.d_grid, cfg.trials,
                                       cfg.seed, jobs=cfg.jobs, **knob)
    fit = {
        "kind": scan.kind,
        "slope": None if scan.fit is None else scan.fit.slope,
        "intercept": None if scan.fit is None else scan.fit.intercept,
        "r_squared": None if scan.fit is None else scan.fit.r_squared,
        "d_grid": [pt.d for pt in scan.points],
        "means": [float(pt.mean) for pt in scan.points],
        "config": _config_dict(cfg),
    }
    _emit(cfg, {".fit.json": _json_text(fit), ".csv": scan.to_csv()})
    return 0


def _cmd_appendix_demo(cfg: argparse.Namespace) -> int:
    """Demonstrate signed-model mass loss."""
    report = signed_model.demonstrate_inconsistency(cfg.d, cfg.p, cfg.trials,
                                                    cfg.seed, t_max=cfg.t_max,
                                                    h=cfg.h)
    _emit(cfg, {".json": _json_text(signed_model.report_to_json_dict(report))})
    return 0


def _config_dict(cfg: argparse.Namespace) -> dict:
    # jobs is an execution knob, not part of the experiment's identity;
    # keeping it out makes outputs byte-identical across worker counts
    return {key: list(val) if isinstance(val, tuple) else val
            for key, val in vars(cfg).items()
            if val is not None and key not in ("out", "format", "config", "jobs")}


_DISPATCH = {
    "equilibrium": _cmd_equilibrium,
    "integrate": _cmd_integrate,
    "adaptive-run": _cmd_adaptive_run,
    "experiment": _cmd_experiment,
    "conjecture-scan": _cmd_conjecture_scan,
    "appendix-demo": _cmd_appendix_demo,
}


def dispatch(cfg: argparse.Namespace, argv=()) -> int:
    start = time.perf_counter()
    status = _DISPATCH[cfg.command](cfg)
    if cfg.out is not None:
        _write_meta(cfg.out, argv, time.perf_counter() - start)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_and_validate(argv)
        return dispatch(cfg, argv)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return exc.status
    except Exception as exc:  # propagate module errors machine-readably
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

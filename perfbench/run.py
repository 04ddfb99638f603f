#!/usr/bin/env python3
"""jknet benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a jknet checkout:

    python3 perfbench/run.py --workload adapt_d400 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # checks of the benchmark
    python3 perfbench/run.py --record-reference      # rewrites reference.json

One process, one BLAS thread, ``jobs=1``. The program is imported from
``src/`` and driven through its public API and ``jknet.cli.main``. With
``--trace 0`` the run times instances untraced for about ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number
of instances both untraced and traced and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md beside this file.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
ROUNDS = 2
# instances recorded per workload by --record-reference
REFERENCE_INSTANCES = {"adapt_d400": 10, "scan_c09": 4, "flow_d200": 4}

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was imported before the BLAS thread "
                         "policy was set; run perfbench/run.py as the entry point")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_program():
    """Import numpy and jknet from the checkout's src/, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "jknet", "__init__.py")):
        sys.stderr.write(f"perfbench: no jknet sources under {SRC}; "
                         "run from the root of a jknet checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import numpy
    import jknet
    if os.path.dirname(os.path.abspath(jknet.__file__)) != os.path.join(SRC, "jknet"):
        sys.stderr.write(f"perfbench: imported jknet from {jknet.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    return numpy, jknet


def load():
    """Import the program, then the benchmark modules that use it."""
    global spans, workloads
    numpy, jknet = import_program()
    import spans
    import workloads
    return numpy, jknet


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "jobs": 1,
    }


def work_dir():
    """A scratch directory inside the benchmark's own, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=HERE)


def load_references(name: str) -> list:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(name, [])
    except FileNotFoundError:
        return []


class Runner:
    """Runs and checks the instances of one workload."""

    def __init__(self, workload_cls, seed: int, workdir: str, references: list):
        self.wl = workload_cls(seed, workdir)
        self.refs = references if seed == DEFAULT_SEED else []
        self.outcomes = []

    def instance(self, i: int, tracer=None):
        """Run instance i (traced if a tracer is given); returns (wall, outcome)."""
        wall = 0.0
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = self.wl.run(i)
            else:
                with tracer.installed():
                    out = self.wl.run(i)
            wall = time.perf_counter() - t0
            oc = self.wl.examine(i, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = wall or time.perf_counter() - t0
            n = self.wl.ops_per_instance
            oc = workloads.Outcome(ops=n, failed=n, steps=0, digest="", facts={},
                                   errors=[f"{type(exc).__name__}: {exc}"])
        else:
            self.check_reference(i, oc)
        self.outcomes.append(oc)
        for err in oc.errors[:5]:
            print(f"# {self.wl.name} instance {i}: {err}", file=sys.stderr)
        return wall, oc

    def check_reference(self, i: int, oc, refs=None) -> None:
        refs = self.refs if refs is None else refs
        # flow instances cycle over a few graphs, so their outputs repeat
        period = getattr(self.wl, "graphs", None)
        key = i % period if period else i
        if key < len(refs) and not workloads.same(refs[key], oc.facts):
            oc.errors.append("outputs differ from the reference for the default seed")
            oc.failed = oc.ops

    @property
    def attempted(self) -> int:
        return sum(oc.ops for oc in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(oc.failed for oc in self.outcomes)


def measure_setup(name: str, seed: int, workdir: str) -> float:
    """Median wall time of fresh interpreters that import and make inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        sub = os.path.join(workdir, f"setup{k}")
        os.makedirs(sub)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                 "--setup-only", "--workload", name, "--seed",
                                 str(seed), "--workdir", sub],
                                cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in 50 ms sleeps
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            status = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise SystemExit(f"perfbench: set-up of {name} exited with {status}")
        shutil.rmtree(sub)
    return statistics.median(times)


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Time a set of instances in ROUNDS rounds; keep each one's best.

    The first round runs instances until it has used its share of
    ``seconds``; the later rounds repeat that set. Host noise on a shared
    machine only ever adds time, so an instance's best round is its
    steadiest reading; every round must give identical outputs. ``wall_s``
    is the mean best time of an instance: on this kind of host the noise is
    bimodal, which moves a median of a few readings more than their mean.
    """
    wl = runner.wl
    best, steps, digests = [], [], []
    while not best or sum(best) + statistics.mean(best) <= seconds / ROUNDS:
        wall, oc = runner.instance(len(best))
        best.append(wall)
        steps.append(oc.steps)
        digests.append(oc.digest)
    for _ in range(ROUNDS - 1):
        for i in range(len(best)):
            wall, oc = runner.instance(i)
            best[i] = min(best[i], wall)
            if oc.digest != digests[i]:
                oc.errors.append("outputs differ between rounds")
                oc.failed = oc.ops
    if hasattr(wl, "nominal_wall_s"):
        wall_s = wl.nominal_wall_s()
        steps_per_s = wl.nominal_steps_total() / wall_s
    else:
        wall_s = statistics.mean(best)
        steps_per_s = sum(steps) / sum(best)
    print(f"# {wl.name}: {len(best)} instances x {ROUNDS} rounds, best-round mean "
          f"{statistics.mean(best):.4f} s, min {min(best):.4f} s, "
          f"max {max(best):.4f} s, {sum(steps)} steps per round")
    if hasattr(wl, "report"):
        print(f"# {wl.name}: {wl.report()}")
    return {"wall_s": wall_s, "steps_per_s": steps_per_s}


def _pct(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q)) if values else 0.0


def run_traced(runner: Runner, seconds: float, jknet) -> tuple[dict, list]:
    """Each instance untraced and traced; returns (metrics, self-check errors).

    The instance count follows from ``seconds`` and the workload's nominal
    instance time, not from the clock, so call counts repeat exactly.
    """
    tracer = spans.Tracer(jknet)
    wl = runner.wl
    count = max(1, round(seconds / (2 * wl.nominal_s)))
    plain, traced, traced_oc, errs = [], [], [], []
    for i in range(count):
        # alternate which side runs first, so drift does not bias the overhead
        if i % 2:
            wall_t, oc_t = runner.instance(i, tracer)
            wall_u, oc_u = runner.instance(i)
        else:
            wall_u, oc_u = runner.instance(i)
            wall_t, oc_t = runner.instance(i, tracer)
        plain.append(wall_u)
        traced.append(wall_t)
        traced_oc.append(oc_t)
        if oc_u.digest != oc_t.digest:
            errs.append(f"instance {i}: traced and untraced output digests differ")
            oc_t.failed = oc_t.ops
    s = tracer.summary()
    self_total = sum(a["self_s"] for a in s.values())
    if self_total > sum(traced):
        errs.append(f"layer self times sum to {self_total:.6f} s, more than the "
                    f"traced wall {sum(traced):.6f} s")

    def agg(name, key):
        return s.get(name, {}).get(key, 0)

    def durs_ms(name):
        return [1000.0 * v for v in s.get(name, {}).get("durations", [])]

    steps = agg("adaptation.jk_step", "calls")
    m = {}
    for name in ("graph.has_directed_cycle", "graph.strongly_connected_components",
                 "graph.is_acs", "dynamics.equilibrium", "graph.InteractionMatrix",
                 "graph.resample_vertex", "graph.sample_er_digraph",
                 "adaptation.jk_step", "adaptation.run_adaptive",
                 "dynamics.integrate", "graph.spectral_radius_pf", "cli.main"):
        m[f"{name}.calls"] = agg(name, "calls")
        m[f"{name}.self_s"] = agg(name, "self_s")
    m["graph.cycle_tests_per_step"] = (
        agg("graph.has_directed_cycle", "calls") / steps if steps else 0.0)
    eq = durs_ms("dynamics.equilibrium")
    m["dynamics.equilibrium.ms_p50"] = _pct(eq, 50)
    m["dynamics.equilibrium.ms_p90"] = _pct(eq, 90)
    m["adaptation.trace_to_json_lines.self_s"] = agg("adaptation.trace_to_json_lines", "self_s")
    m["adaptation.trace_to_json_lines.bytes"] = agg("adaptation.trace_to_json_lines", "count")
    m["adaptation.invariant_violations"] = agg("adaptation.run_adaptive", "count")
    trial = durs_ms("experiments.trial")
    m["experiments.trials"] = len(trial)
    m["experiments.trial_ms_p50"] = _pct(trial, 50)
    m["experiments.trial_ms_p90"] = _pct(trial, 90)
    m["experiments.censored_frac"] = (
        sum(oc.censored for oc in traced_oc) / len(trial) if trial else 0.0)
    rk4_s = agg("dynamics.integrate", "total_s")
    m["dynamics.rk4_steps_per_s"] = agg("dynamics.integrate", "count") / rk4_s if rk4_s else 0.0
    m["dynamics.trajectory_to_csv.self_s"] = agg("dynamics.trajectory_to_csv", "self_s")
    m["dynamics.trajectory_to_csv.bytes"] = agg("dynamics.trajectory_to_csv", "count")
    m["cli.bytes_written"] = sum(oc.bytes_written for oc in traced_oc)
    m["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    print(f"# {wl.name}: {count} instance pairs, untraced {sum(plain):.3f} s, "
          f"traced {sum(traced):.3f} s, {len(tracer.spans)} spans, "
          f"layer self time {self_total:.3f} s")
    return m, errs


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def emit(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0!r} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main_workload(args) -> int:
    numpy, jknet = load()
    cls = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(numpy), sort_keys=True))
    with work_dir() as workdir:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed,
                                                        workdir)
        runner = Runner(cls, args.seed, workdir, load_references(args.workload))
        if args.trace:
            metrics, errs = run_traced(runner, args.seconds, jknet)
            units = per_layer_units()
        else:
            metrics = run_untraced(runner, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {k: metrics[k] for k in END_TO_END}
            errs, units = [], END_TO_END
    for err in errs:
        print(f"# self-check failed: {err}", file=sys.stderr)
    failed = runner.failed
    emit(metrics, units, failed == 0 and not errs, runner.attempted, failed)
    return 0


def main_setup_only(args) -> int:
    load()
    workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    return 0


def main_all(args) -> int:
    """Every workload in its own process; one table of metrics with units."""
    rows, total_att, total_failed, correct, merged = [], 0, 0, True, {}
    for name in REFERENCE_INSTANCES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            correct = False
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        total_att += result["attempted"]
        total_failed += result["failed"]
        for metric, v in result["metrics"].items():
            merged[f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        frac = result["failed"] / result["attempted"]
        rows.append((name, "failed_frac", frac, "frac"))
    for name, metric, value, unit in rows:
        print(f"{name:<12} {metric:<42} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": total_att,
                      "failed": total_failed, "metrics": merged}))
    return 0 if correct else 1


def _leaves(node, path=()):
    """Paths to the scalar fields of a reference, in a fixed order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, path + (k,))
    else:
        yield path, node


def _corruptions(facts):
    """Copies of a reference, each with one scalar changed: the first
    integer, the first float (by 1e-9, far beyond the 1e-12 tolerance) and
    the first other field."""
    seen = set()
    for path, value in _leaves(facts):
        kind = (float if isinstance(value, float) else
                int if isinstance(value, int) and not isinstance(value, bool)
                else object)
        if kind in seen:
            continue
        seen.add(kind)
        bad = copy.deepcopy(facts)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = (value + 1e-9 * max(abs(value), 1.0) if kind is float
                          else value + 1 if kind is int else [value])
        yield ".".join(map(str, path)), bad


def main_self_test(args) -> int:
    """The traced and untraced runs agree, self times fit, corruption is caught."""
    _, jknet = load()
    names = [args.workload] if args.workload != "all" else list(REFERENCE_INSTANCES)
    problems = []
    with work_dir() as workdir:
        for name in names:
            refs = load_references(name)
            runner = Runner(workloads.WORKLOADS[name], DEFAULT_SEED, workdir, refs)
            tracer = spans.Tracer(jknet)
            _, plain = runner.instance(0)
            wall, traced = runner.instance(0, tracer)
            self_total = sum(a["self_s"] for a in tracer.summary().values())
            checks = {
                "outputs pass every check": runner.failed == 0,
                "reference recorded": bool(refs),
                "traced digest == untraced digest": plain.digest == traced.digest,
                "layer self times <= wall": self_total <= wall,
            }
            for where, corrupted in _corruptions(refs[0] if refs else {}):
                bad = copy.copy(traced)
                bad.errors, bad.failed = [], 0
                runner.check_reference(0, bad, [corrupted])
                checks[f"reference with {where} corrupted gives failed_frac > 0"] = (
                    bad.failed / bad.ops > 0)
            for what, ok in checks.items():
                print(f"{name:<12} {'ok  ' if ok else 'FAIL'} {what}")
                if not ok:
                    problems.append(f"{name}: {what}")
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": problems}))
    return 1 if problems else 0


def main_record_reference(args) -> int:
    load()
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    with work_dir() as workdir:
        for name, count in REFERENCE_INSTANCES.items():
            runner = Runner(workloads.WORKLOADS[name], DEFAULT_SEED, workdir, [])
            facts = []
            for i in range(count):
                _, oc = runner.instance(i)
                if oc.failed:
                    raise SystemExit(f"{name} instance {i} fails its checks: {oc.errors}")
                facts.append(oc.facts)
            out["workloads"][name] = facts
            print(f"{name}: {count} instances recorded")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *REFERENCE_INSTANCES])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    if args.setup_only:
        return main_setup_only(args)
    if args.self_test:
        return main_self_test(args)
    if args.record_reference:
        return main_record_reference(args)
    if args.workload == "all":
        return main_all(args)
    return main_workload(args)


if __name__ == "__main__":
    sys.exit(main())

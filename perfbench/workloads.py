"""The benchmark's workloads: inputs from a seed, the timed work, checks.

Each workload generates its inputs in ``__init__`` (the set-up that
``setup_s`` times) and runs one *instance* per ``run(i)`` call (the work
that ``wall_s`` times). ``examine`` then checks that instance's outputs
with the clock stopped and returns an ``Outcome``: the operations it
counted (a run, a trial or a CLI call), how many failed a check, the
adaptive or RK4 steps done, a digest of the primary outputs and the
fields compared against the references recorded for the default seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from jknet import adaptation, cli, dynamics, experiments, graph
from jknet.rng import stream

REL_TOL = 1e-12


@dataclass
class Outcome:
    ops: int
    failed: int
    steps: int
    digest: str
    facts: dict
    errors: list = field(default_factory=list)
    bytes_written: int = 0
    censored: int = 0


def sub_seed(seed: int, i: int) -> int:
    """Seed of instance i, derived from the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def same(ref, got) -> bool:
    """Exact for ints, bools, strings and None; floats to 1e-12 relative.

    A list of floats is compared norm-wise: the largest difference must
    be within 1e-12 of the largest magnitude, so components decayed to
    ~0 are judged against the vector's scale.
    """
    if isinstance(ref, dict):
        return (isinstance(got, dict) and ref.keys() == got.keys()
                and all(same(ref[k], got[k]) for k in ref))
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return False
        if ref and all(isinstance(v, float) for v in ref):
            if not all(isinstance(v, float) for v in got):
                return False
            a, b = np.asarray(ref), np.asarray(got)
            return bool(np.abs(a - b).max() <= REL_TOL * np.abs(a).max())
        return all(same(r, g) for r, g in zip(ref, got))
    if isinstance(ref, float) and isinstance(got, float):
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))
    return type(ref) is type(got) and ref == got


def _sha(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


class AdaptD400:
    name = "adapt_d400"
    d, theta, steps_per_run = 400, 0.5, 50
    nominal_s = 1.9
    ops_per_instance = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.params = graph.ModelParams.from_theta(self.d, self.theta)

    def run(self, i: int):
        trace = adaptation.run_adaptive(self.params, seed=sub_seed(self.seed, i),
                                        max_steps=self.steps_per_run,
                                        stop="none", plant_cycle=2)
        return trace, adaptation.trace_to_json_lines(trace)

    def examine(self, i: int, out) -> Outcome:
        trace, text = out
        recs = trace.records
        errs = []
        if trace.invariant_violations != 0:
            errs.append(f"invariant_violations={trace.invariant_violations}")
        if adaptation.trace_to_json_lines(
                adaptation.trace_from_json_lines(text)) != text:
            errs.append("trace does not round-trip through JSON lines")
        if len(recs) != self.steps_per_run + 1:
            errs.append(f"{len(recs)} records for {self.steps_per_run} steps")
        for k, rec in enumerate(recs):
            last = k == len(recs) - 1
            if rec.s != k or (rec.chosen is None) != last \
                    or (not last and rec.chosen not in rec.j_min_set):
                errs.append(f"record {k} is malformed")
                break
            if not rec.directed_cycle or rec.lam < 1.0 - 1e-9:
                errs.append(f"record {k} lost the planted cycle")
                break
        if not errs:
            errs += self._replay(i, trace)
        facts = {
            "chosen": [r.chosen for r in recs],
            "support_size": [r.support_size for r in recs],
            "lambda": [r.lam for r in recs],
            "first_cycle_step": trace.first_cycle_step,
            "full_acs_step": trace.full_acs_step,
        }
        return Outcome(ops=1, failed=int(bool(errs)), steps=trace.steps,
                       digest=_sha(text), facts=facts, errors=errs)

    def _replay(self, i: int, trace) -> list:
        """Rebuild the final graph from the recorded choices and re-solve it."""
        rng = stream(sub_seed(self.seed, i))
        m = adaptation.plant_directed_cycle(
            graph.sample_er_digraph(self.params, rng), 2)
        for rec in trace.records[:-1]:
            if rec.j_min_set[int(rng.integers(len(rec.j_min_set)))] != rec.chosen:
                return [f"step {rec.s}: the choice does not replay"]
            m = graph.resample_vertex(m, rec.chosen, self.params.p, rng)
        eq = dynamics.equilibrium(m)
        last = trace.records[-1]
        lam = float((m.as_float() @ eq.x_star).sum())
        errs = []
        if eq.residual > 1e-9:
            errs.append(f"final equilibrium residual {eq.residual:.3e}")
        if eq.support.size != last.support_size or not same(last.lam, lam):
            errs.append("final record disagrees with the replayed equilibrium")
        return errs


class ScanC09:
    name = "scan_c09"
    theta = 0.5
    # Growth is scanned below d = 100: one growth trial there takes 2-3 s
    # with a 15 % spread in its time per step, so a run would rest on one
    # to three of them.
    grids = {"first_cycle": (25, 50, 100), "acs_growth": (12, 25, 50)}
    trials = {"first_cycle": (20, 10, 5), "acs_growth": (8, 4, 2)}
    # Mean adaptive steps per trial in each (kind, d) cell, measured at the
    # first baseline over 150 first-cycle and 60-200 growth trials per d.
    # They weight the measured seconds per step into the time of a nominal
    # scan, so that a run's figures do not swing with its seed's waits.
    nominal_steps = {"first_cycle": (57.0, 84.9, 179.4),
                     "acs_growth": (37.1, 99.2, 277.4)}
    nominal_s = 5.0
    ops_per_instance = sum(sum(n) for n in trials.values())

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # per instance, per trial in call order: [kind, d, steps, best seconds]
        self.trial_best: dict = {}

    def run(self, i: int):
        s = sub_seed(self.seed, i)
        log: list = []
        with mock.patch.object(experiments, "run_adaptive",
                               self._timed_trial(experiments.run_adaptive, log)):
            out = tuple(experiments.conjecture_scan(kind, self.theta,
                                                    self.grids[kind], n, s)
                        for kind, n in self.trials.items())
        best = self.trial_best.setdefault(i, log)
        for b, new in zip(best, log):
            b[3] = min(b[3], new[3])
        return out

    @staticmethod
    def _timed_trial(fn, log):
        """Time each trial's run_adaptive call, as experiments looks it up."""
        kinds = {"first_cycle": "first_cycle", "full_acs": "acs_growth"}

        def wrapper(params, *args, **kwargs):
            t0 = time.perf_counter()
            trace = fn(params, *args, **kwargs)
            log.append([kinds[kwargs["stop"]], params.d, trace.steps,
                        time.perf_counter() - t0])
            return trace
        return wrapper

    def cells(self) -> dict:
        """(kind, d) -> [trials, steps, best seconds summed over trials]."""
        cells: dict = {}
        for log in self.trial_best.values():
            for kind, d, steps, sec in log:
                cell = cells.setdefault((kind, d), [0, 0, 0.0])
                cell[0] += 1
                cell[1] += steps
                cell[2] += sec
        return cells

    def nominal_wall_s(self) -> float:
        """Seconds a nominal scan takes at the per-cell speeds measured.

        Each cell's speed is its trials' best seconds over the rounds,
        summed, per adaptive step they made.
        """
        cells = self.cells()
        return sum(n * mean * cells[(kind, d)][2] / cells[(kind, d)][1]
                   for kind, means in self.nominal_steps.items()
                   for d, n, mean in zip(self.grids[kind], self.trials[kind], means))

    def report(self) -> str:
        return ", ".join(f"{kind} d={d}: {n} trials {steps} steps "
                         f"{1000 * sec / max(steps, 1):.3f} ms/step"
                         for (kind, d), (n, steps, sec) in self.cells().items())

    def nominal_steps_total(self) -> float:
        return sum(n * mean for kind, means in self.nominal_steps.items()
                   for n, mean in zip(self.trials[kind], means))

    def _budget(self, kind: str, d: int) -> int:
        # the per-trial step budget conjecture_scan uses (max_steps_factor 8)
        if kind == "first_cycle":
            return int(8.0 * max(d * d / (3.0 * self.theta), 50.0))
        exact, _ = experiments.oracle_total_growth(d, self.theta / d)
        return int(8.0 * max(exact, 50.0))

    def examine(self, i: int, out) -> Outcome:
        errs, failed, censored = [], 0, 0
        for scan, (kind, counts) in zip(out, self.trials.items()):
            if scan.kind != kind or [pt.d for pt in scan.points] != list(self.grids[kind]):
                errs.append(f"{kind}: wrong scan shape")
                failed += sum(counts)
                continue
            for pt, n in zip(scan.points, counts):
                bad = self._point_errors(kind, pt, n)
                errs += bad
                failed += n if bad else 0
                censored += pt.censored_count
        facts = {scan.kind: {
            "mean": [float(pt.mean) for pt in scan.points],
            "std_error": [float(pt.std_error) for pt in scan.points],
            "censored_count": [pt.censored_count for pt in scan.points],
            "slope": None if scan.fit is None else float(scan.fit.slope),
        } for scan in out}
        ops = self.ops_per_instance
        steps = sum(trial[2] for trial in self.trial_best[i])
        return Outcome(ops=ops, failed=failed, steps=steps,
                       digest=_sha(*(s.to_csv() for s in out)), facts=facts,
                       errors=errs, censored=censored)

    def _point_errors(self, kind: str, pt, n: int) -> list:
        where = f"{kind} d={pt.d}"
        if not 0 <= pt.censored_count <= n or pt.p != self.theta / pt.d:
            return [f"{where}: bad point header"]
        used = n - pt.censored_count
        if used == 0:
            return []
        errs = []
        total = pt.mean * used
        if not (math.isfinite(pt.mean) and 0 <= pt.mean <= self._budget(kind, pt.d)
                and abs(total - round(total)) <= 1e-6 * max(1.0, total)):
            errs.append(f"{where}: mean {pt.mean!r} is not a mean of step counts")
        if used > 1 and not (math.isfinite(pt.std_error) and pt.std_error >= 0):
            errs.append(f"{where}: bad std_error {pt.std_error!r}")
        if kind == "acs_growth":
            exact, _ = experiments.oracle_total_growth(pt.d, pt.p)
            if pt.oracle is None or not same(exact, pt.oracle):
                errs.append(f"{where}: oracle {pt.oracle!r} != {exact!r}")
        return errs


class FlowD200:
    name = "flow_d200"
    d, theta, graphs = 200, 2.0, 4
    t_max, h = 50.0, 0.01
    nominal_s = 1.8
    ops_per_instance = 2

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        params = graph.ModelParams.from_theta(self.d, self.theta)
        self.matrices = []
        for g in range(self.graphs):
            m = graph.sample_er_digraph(params, stream(seed, g))
            with open(self._edges(g), "w", encoding="utf-8") as fh:
                fh.write(graph.dump_edge_list(m))
            self.matrices.append(m)

    def _edges(self, g: int) -> str:
        return os.path.join(self.workdir, f"g{g}.edges")

    def _stems(self, i: int):
        return (os.path.join(self.workdir, f"i{i}.flow"),
                os.path.join(self.workdir, f"i{i}.eq"))

    def run(self, i: int):
        edges = self._edges(i % self.graphs)
        flow, eq = self._stems(i)
        common = ["--matrix", edges, "--d", str(self.d)]
        rc_flow = cli.main(["integrate", *common, "--t-max", repr(self.t_max),
                            "--h", repr(self.h), "--out", flow])
        rc_eq = cli.main(["equilibrium", *common, "--x0-mode", "analytic",
                          "--out", eq])
        return rc_flow, rc_eq

    def examine(self, i: int, out) -> Outcome:
        flow, eq = self._stems(i)
        primary = [flow + ".csv", flow + ".json", eq + ".json"]
        # the .meta.json sidecars hold a clock reading and are not primary
        written = primary + [flow + ".meta.json", eq + ".meta.json"]
        nbytes = sum(os.path.getsize(p) for p in written if os.path.exists(p))
        m = self.matrices[i % self.graphs]
        rows, flow_errs, flow_facts = self._flow(flow, out[0], m)
        eq_errs, eq_facts = self._equilibrium(eq, out[1], m)
        digest = hashlib.sha256(repr(out).encode())
        for path in primary:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        return Outcome(ops=2, failed=int(bool(flow_errs)) + int(bool(eq_errs)),
                       steps=max(rows - 1, 0), digest=digest.hexdigest(),
                       facts={**flow_facts, "equilibrium": eq_facts},
                       errors=flow_errs + eq_errs, bytes_written=nbytes)

    def _flow(self, stem: str, rc: int, m):
        if rc != 0:
            return 0, [f"integrate: exit code {rc}"], {}
        rows, first, prev, last = 0, None, None, None
        with open(stem + ".csv", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            for line in fh:
                rows += 1
                prev, last = last, line
                first = first or line
        first, prev, last = ([float(v) for v in ln.split(",")] if ln else [0.0]
                             for ln in (first, prev, last))
        with open(stem + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
        want = round(self.t_max / self.h) + 1
        # Known defect: integrate adds a last step of ~1.4e-12 when the
        # accumulated time falls short of t_max by more than its 1e-12
        # guard, as it does at t_max=50, h=0.01. One such remainder row is
        # accepted; any other row count is a wrong time grid.
        remainder = rows == want + 1 and last[0] - prev[0] < 1e-9 * self.h
        errs = []
        if len(header) != self.d + 2 or (rows != want and not remainder):
            errs.append(f"integrate: {rows} rows of {len(header)} columns, "
                        f"expected {want} of {self.d + 2}")
        elif first[0] != 0.0 or last[0] != self.t_max or not last[-1] < 1e-6:
            # 1e-6, not 1e-9: about 1 in 40 of these graphs has a small
            # spectral gap and is still above 1e-9 at t = 50 (at most 8.4e-8
            # over 400 graphs), which is slow convergence, not an error
            errs.append(f"integrate: last row t={last[0]!r}, residual {last[-1]!r}")
        elif not same(last[-1], float(np.abs(dynamics.vector_field(
                m, np.asarray(last[1:-1]))).sum())):
            errs.append("integrate: the residual column is not |f(x)|_1 of its row")
        elif not (same(summary["final_residual"], last[-1])
                  and same(summary["final_state"], last[1:-1])
                  and abs(sum(summary["final_state"]) - 1.0) <= 1e-9):
            errs.append("integrate: summary JSON disagrees with the CSV")
        facts = {"rows": rows, "final_state": summary["final_state"],
                 "final_residual": summary["final_residual"]}
        return rows, errs, facts

    def _equilibrium(self, stem: str, rc: int, m):
        if rc != 0:
            return [f"equilibrium: exit code {rc}"], {}
        with open(stem + ".json", encoding="utf-8") as fh:
            res = json.load(fh)
        x = np.asarray(res["x_star"])
        errs = []
        if not res["residual"] <= 1e-9 or abs(x.sum() - 1.0) > 1e-9 or x.min() < 0:
            errs.append(f"equilibrium: residual {res['residual']!r}, mass {x.sum()!r}")
        if graph.has_directed_cycle(m) and (
                res["kind"] != dynamics.KIND_ACS
                or not graph.is_acs(m, res["support"])):
            errs.append("equilibrium: support of a cyclic graph is not an ACS")
        return errs, res


WORKLOADS = {w.name: w for w in (AdaptD400, ScanC09, FlowD200)}

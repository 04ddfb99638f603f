"""Monte Carlo experiments and their closed-form oracles.

Covers the cycle-count distribution of sparse random graphs, the three
first-cycle processes (uniform multigraph, permutation, and the adaptive
update itself), attachment and growth waiting times for autocatalytic
sets, and log-log scaling fits over vertex-count grids. Every driver
but the vectorised ``waiting_time_experiment`` runs its trials through
``_run_trials``, one RNG stream per trial from (seed, trial index), so
results are reproducible and independent of execution order; censored
trials are counted separately and never silently averaged in.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .adaptation import run_adaptive
from .graph import ModelParams
from .rng import stream

__all__ = [
    "ExperimentResult",
    "ScalingFit",
    "ScanPoint",
    "ScanResult",
    "UnionFind",
    "oracle_cycle_mean",
    "oracle_attach_prob",
    "oracle_mean_waiting",
    "oracle_total_growth",
    "sample_er_undirected",
    "count_cycles_of_length",
    "measure_cycle_counts",
    "first_cycle_uniform_model",
    "first_cycle_permutation_model",
    "first_cycle_edge_experiment",
    "first_cycle_time_jk",
    "acs_attach_experiment",
    "acs_growth_time_jk",
    "waiting_time_experiment",
    "scaling_fit",
    "conjecture_scan",
]

MAX_CYCLE_LENGTH = 5
SCAN_BUDGET_FACTOR = 8.0
ATTACH_MAX_STEPS = 10_000_000  # redraws before an acs-attach trial is censored
# the largest step budget a default may set: beyond it a trial could run
# for years, so the default is refused (an explicit budget is not bounded)
MAX_DEFAULT_BUDGET = 10 ** 12


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Per-trial measurements plus aggregates against an analytic oracle.

    Aggregates are over the uncensored trials; ``std_error =
    sqrt(variance / n_used)`` and the z-score compares the mean against
    ``oracle_value`` when present.
    """

    per_trial: np.ndarray
    censored: np.ndarray
    mean: float
    variance: float
    std_error: float
    oracle_value: float | None
    z_score: float | None
    n_used: int

    @property
    def trials(self) -> int:
        return self.per_trial.size

    @property
    def censored_count(self) -> int:
        return int(self.censored.sum())

    @classmethod
    def from_measurements(cls, values, censored=None,
                          oracle_value=None) -> "ExperimentResult":
        values = np.asarray(values, dtype=float)
        if censored is None:
            censored = np.zeros(values.size, dtype=bool)
        censored = np.asarray(censored, dtype=bool)
        used = values[~censored]
        if used.size == 0:
            mean = variance = std_error = float("nan")
        else:
            mean = float(used.mean())
            variance = float(used.var(ddof=1)) if used.size > 1 else 0.0
            std_error = math.sqrt(variance / used.size)
        z = None
        if oracle_value is not None and used.size > 1 and std_error > 0:
            z = (mean - oracle_value) / std_error
        return cls(per_trial=values, censored=censored, mean=mean,
                   variance=variance, std_error=std_error,
                   oracle_value=None if oracle_value is None else float(oracle_value),
                   z_score=z, n_used=int(used.size))

    def to_json_dict(self) -> dict:
        return {
            "per_trial": [float(v) for v in self.per_trial],
            "censored": [bool(c) for c in self.censored],
            "mean": float(self.mean),
            "variance": float(self.variance),
            "std_error": float(self.std_error),
            "oracle_value": self.oracle_value,
            "z_score": self.z_score,
            "n_used": self.n_used,
            "censored_count": self.censored_count,
        }

    def to_csv(self) -> str:
        lines = ["trial,measurement,censored"]
        for i, (v, c) in enumerate(zip(self.per_trial, self.censored)):
            lines.append(f"{i},{float(v)!r},{int(c)}")
        return "\n".join(lines) + "\n"


def _run_trials(task, trials: int, jobs: int = 1,
                oracle_value=None) -> ExperimentResult:
    """Aggregate the ``(value, censored)`` pairs ``task(t)`` returns for
    t < trials, in ``jobs`` processes; trial t reads only its own stream."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if jobs <= 1:
        pairs = [task(t) for t in range(trials)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, trials // (4 * jobs))
            pairs = list(pool.map(task, range(trials), chunksize=chunk))
    return ExperimentResult.from_measurements([v for v, _ in pairs], [c for _, c in pairs],
                                              oracle_value=oracle_value)


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Ordinary least squares of log(y) against log(x)."""

    xs: np.ndarray
    ys: np.ndarray
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ScanPoint:
    d: int
    p: float
    theta: float
    mean: float
    std_error: float
    oracle: float | None
    z: float | None
    censored_count: int


@dataclass(frozen=True, eq=False)
class ScanResult:
    kind: str
    points: tuple
    fit: ScalingFit | None

    def to_csv(self) -> str:
        lines = ["d,p,theta,mean,std_error,oracle,z"]
        for pt in self.points:
            oracle = "" if pt.oracle is None else repr(float(pt.oracle))
            z = "" if pt.z is None else repr(float(pt.z))
            lines.append(f"{pt.d},{pt.p!r},{pt.theta!r},{pt.mean!r},"
                         f"{pt.std_error!r},{oracle},{z}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def oracle_cycle_mean(theta: float, k: int) -> float:
    """Poisson mean theta^k / (2k) of the length-k cycle count."""
    if k < 3:
        raise ValueError("cycle length must be >= 3")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    return theta ** k / (2 * k)


def oracle_attach_prob(k: int, p: float) -> float:
    """r(k, p) = 1 - (1-p)^k: chance a resampled vertex gains an edge
    from a k-vertex autocatalytic set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return 1.0 - (1.0 - p) ** k


def oracle_mean_waiting(k: int, p: float) -> float:
    """Geometric mean waiting time 1 / r(k, p) until attachment."""
    r = oracle_attach_prob(k, p)
    if r == 0:
        raise ZeroDivisionError("attachment probability is zero")
    return 1.0 / r


def oracle_total_growth(d: int, p: float) -> tuple[float, float]:
    """Total mean waiting time to absorb d vertices one by one.

    Returns (exact_sum, integral_approx) where
    exact_sum = sum_{k=1..d} 1 / (1 - (1-p)^k) and the approximation is
    the closed-form integral of 1/(1 - (1-p)^x) over [1, d], i.e.
    d - 1 - [ln(1 - (1-p)^d) - ln p] / ln(1-p). Both diverge like
    (1/p) ln(1/p) as p -> 0.
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if d < 1:
        raise ValueError("d must be >= 1")
    if p == 1.0:
        return float(d), float(d - 1)
    ks = np.arange(1, d + 1)
    exact = float((1.0 / (1.0 - (1.0 - p) ** ks)).sum())
    a = math.log(1.0 - p)
    upper = d - math.log(1.0 - (1.0 - p) ** d) / a
    lower = 1 - math.log(p) / a
    return exact, float(upper - lower)


# ---------------------------------------------------------------------------
# Cycle counts in sparse random graphs
# ---------------------------------------------------------------------------

def sample_er_undirected(d: int, p: float, rng: np.random.Generator) -> list:
    """Undirected Erdos-Renyi graph as adjacency sets."""
    iu, ju = np.triu_indices(d, k=1)
    mask = rng.random(iu.size) < p
    adj = [set() for _ in range(d)]
    for u, v in zip(iu[mask].tolist(), ju[mask].tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def count_cycles_of_length(adj: list, k: int) -> int:
    """Number of simple cycles of length exactly k (undirected, 3 <= k <= 5).

    Enumerates paths anchored at each cycle's smallest vertex and counts
    each cycle once by requiring the second vertex to be smaller than the
    last.
    """
    if not 3 <= k <= MAX_CYCLE_LENGTH:
        raise ValueError(f"supported cycle lengths are 3..{MAX_CYCLE_LENGTH}")
    d = len(adj)
    count = 0
    for s in range(d):
        todo = [(s, (s,))]
        while todo:
            v, path = todo.pop()
            if len(path) == k:
                if s in adj[v] and path[1] < path[-1]:
                    count += 1
                continue
            for w in adj[v]:
                if w > s and w not in path:
                    todo.append((w, path + (w,)))
    return count


def _cycle_count_trial(d: int, p: float, k: int, seed: int, t: int):
    adj = sample_er_undirected(d, p, stream(seed, t))
    return float(count_cycles_of_length(adj, k)), False


def measure_cycle_counts(d: int, theta: float, k: int, trials: int,
                         seed: int) -> ExperimentResult:
    """Count length-k cycles in sampled ER(d, theta/d) graphs."""
    p = theta / d
    if not 0 <= p < 1:
        raise ValueError("theta/d must lie in [0, 1)")
    return _run_trials(partial(_cycle_count_trial, d, p, k, seed), trials,
                       oracle_value=oracle_cycle_mean(theta, k))


# ---------------------------------------------------------------------------
# First-cycle edge processes
# ---------------------------------------------------------------------------

class UnionFind:
    """Disjoint sets over 0..n-1 with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def first_cycle_uniform_model(d: int, rng: np.random.Generator) -> int:
    """Edges accepted until the uniform multigraph process closes a cycle.

    Each step draws an ordered pair (i, j) uniformly from {0..d-1}^2 and
    adds the edge; a self-loop (i = j) and a repeated pair both count as
    multigraph cycles and stop the process immediately, as does any edge
    joining two already-connected vertices. A repeated pair is one of
    those: it was joined when first drawn. The count includes the
    closing edge.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    uf = UnionFind(d)
    edges = 0
    while True:
        i = int(rng.integers(d))
        j = int(rng.integers(d))
        edges += 1
        if i == j or not uf.union(i, j):
            return edges


def first_cycle_permutation_model(d: int, rng: np.random.Generator) -> int:
    """Edges added until the permutation process closes a cycle.

    The process walks the C(d, 2) simple pairs in uniformly random order,
    adding each; only the prefix up to the first cycle is ever consumed,
    so the order is realised lazily by rejection sampling of unseen
    pairs. Returns the count including the closing edge.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    uf = UnionFind(d)
    seen = set()
    edges = 0
    # a forest on d vertices has at most d - 1 edges, so edge d at the
    # latest closes a cycle, and C(d, 2) >= d pairs are there to draw
    while True:
        while True:
            i = int(rng.integers(d))
            j = int(rng.integers(d))
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            if key not in seen:
                break
        seen.add(key)
        edges += 1
        if not uf.union(key[0], key[1]):
            return edges


_EDGE_MODELS = {
    "uniform": first_cycle_uniform_model,
    "permutation": first_cycle_permutation_model,
}


def _edge_model_trial(model: str, d: int, seed: int, t: int):
    return float(_EDGE_MODELS[model](d, stream(seed, t))), False


def first_cycle_edge_experiment(model: str, d: int, trials: int, seed: int,
                                jobs: int = 1) -> ExperimentResult:
    """Repeat an edge-process first-cycle model; measurement = edge count."""
    if model not in _EDGE_MODELS:
        raise ValueError(f"model must be one of {sorted(_EDGE_MODELS)}")
    return _run_trials(partial(_edge_model_trial, model, d, seed), trials, jobs)


# ---------------------------------------------------------------------------
# Adaptive-update waiting times
# ---------------------------------------------------------------------------

def _checked(trace):
    if trace.invariant_violations:
        raise RuntimeError(
            f"adaptive run violated the support-preservation invariant "
            f"{trace.invariant_violations} time(s)")
    return trace


def _adaptive_trial(d, p, max_steps, stop, run_kw, seed, t):
    """Steps until the ``stop`` event of one run, censored at the budget."""
    trace = _checked(run_adaptive(ModelParams(d=d, p=p), seed=_trial_seed(seed, t),
                                  max_steps=max_steps, stop=stop, **run_kw))
    s = getattr(trace, f"{stop}_step")
    return (float(max_steps), True) if s is None else (float(s), False)


def _trial_seed(seed: int, t: int) -> int:
    # run_adaptive owns stream derivation from its seed; give each trial
    # a distinct child seed derived the same deterministic way.
    return int(np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(1)[0])


def first_cycle_time_jk(d: int, p: float, trials: int, max_steps: int,
                        seed: int, cycle_kind: str = "directed",
                        x0_mode: str = "uniform", jobs: int = 1) -> ExperimentResult:
    """Steps until the adaptive update first creates a cycle.

    Trials that exhaust ``max_steps`` are recorded at the budget with a
    censoring flag and excluded from the aggregates.
    """
    task = partial(_adaptive_trial, d, p, max_steps, "first_cycle",
                   {"cycle_kind": cycle_kind, "x0_mode": x0_mode}, seed)
    return _run_trials(task, trials, jobs)


def acs_growth_time_jk(d: int, p: float, trials: int, seed: int,
                       max_steps: int, k0: int = 2, x0_mode: str = "uniform",
                       jobs: int = 1) -> ExperimentResult:
    """Steps until the autocatalytic set spans all d vertices.

    The initial graph is an ER sample with a directed k0-cycle planted on
    the first vertices, so growth starts from an existing seed set. The
    oracle is the summed geometric waiting times of vertex-by-vertex
    attachment.
    """
    task = partial(_adaptive_trial, d, p, max_steps, "full_acs",
                   {"x0_mode": x0_mode, "plant_cycle": k0}, seed)
    exact, _ = oracle_total_growth(d, p)
    return _run_trials(task, trials, jobs, oracle_value=exact)


def _acs_attach_trial(k, p, seed, t):
    # count redraws of a vertex's k potential in-edges until one appears
    rng = stream(seed, t)
    for step in range(1, ATTACH_MAX_STEPS + 1):
        if (rng.random(k) < p).any():
            return float(step), False
    return float(ATTACH_MAX_STEPS), True


def acs_attach_experiment(k: int, p: float, trials: int, seed: int,
                          jobs: int = 1) -> ExperimentResult:
    """Resampling rounds until a vertex gains an in-edge from a k-set.

    Directly exercises the per-step attachment trial: each round redraws
    the k potential in-edges Bernoulli(p), succeeding with probability
    r(k, p); the waiting time is geometric with mean 1/r.
    """
    return _run_trials(partial(_acs_attach_trial, k, p, seed), trials, jobs,
                       oracle_value=oracle_mean_waiting(k, p))


def waiting_time_experiment(k: int, p: float, trials: int, seed: int) -> ExperimentResult:
    """Geometric sampler for the attachment waiting time, versus 1/r(k, p)."""
    r = oracle_attach_prob(k, p)
    values = stream(seed).geometric(r, size=trials).astype(float)
    return ExperimentResult.from_measurements(
        values, oracle_value=oracle_mean_waiting(k, p))


# ---------------------------------------------------------------------------
# Scaling fits and conjecture scans
# ---------------------------------------------------------------------------

def scaling_fit(xs, ys) -> ScalingFit:
    """OLS fit of log y = slope * log x + intercept."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 3:
        raise ValueError("need at least 3 (x, y) points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("log-log fit requires positive values")
    if not (np.diff(xs) > 0).all():
        raise ValueError("xs must be strictly increasing")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(xs=xs, ys=ys, slope=float(slope),
                      intercept=float(intercept), r_squared=r2)


def scan_budget(kind: str, theta: float, d: int) -> int:
    """Steps a scan trial at (theta, d) runs before it is censored:
    ``SCAN_BUDGET_FACTOR`` times the heuristic, d^2/(3 theta) for cycles
    and the summed attachment times for growth, and at least 50."""
    if kind == "first_cycle":
        return int(SCAN_BUDGET_FACTOR * max(d * d / (3.0 * theta), 50.0))
    exact, _ = oracle_total_growth(d, theta / d)
    return int(SCAN_BUDGET_FACTOR * max(exact, 50.0))


def conjecture_scan(kind: str, theta: float, d_grid, trials, seed: int,
                    k0: int = 2, cycle_kind: str = "directed",
                    jobs: int = 1) -> ScanResult:
    """Waiting-time scan over a d-grid at fixed theta = p*d.

    kind "first_cycle" measures steps to the first cycle from scratch;
    kind "acs_growth" measures steps until the planted seed set spans the
    graph. The budget per trial is ``scan_budget``'s; a grid where it
    exceeds ``MAX_DEFAULT_BUDGET`` is refused before any trial runs.
    ``trials`` may be a single count or one count per grid point (small
    graphs are cheap, so oversampling them stabilises the fit).
    """
    if kind not in ("first_cycle", "acs_growth"):
        raise ValueError("kind must be 'first_cycle' or 'acs_growth'")
    points = []
    means = []
    ds = sorted(int(d) for d in d_grid)
    if len(set(ds)) < len(ds):
        raise ValueError("d_grid must not repeat a value")
    if np.ndim(trials) == 0:
        trial_counts = [int(trials)] * len(ds)
    else:
        trial_counts = [int(t) for t in trials]
        if len(trial_counts) != len(ds):
            raise ValueError("need one trial count per grid point")
    if min(trial_counts, default=1) < 1:
        raise ValueError("trials must be >= 1 at every grid point")
    budgets = [scan_budget(kind, theta, d) for d in ds]
    if max(budgets, default=0) > MAX_DEFAULT_BUDGET:
        raise ValueError(f"a scan budget of {max(budgets)} steps exceeds the "
                         f"bound of {MAX_DEFAULT_BUDGET} steps")
    for i, (d, n, budget) in enumerate(zip(ds, trial_counts, budgets)):
        p = theta / d
        if kind == "first_cycle":
            res = first_cycle_time_jk(d, p, n, budget, _trial_seed(seed, i),
                                      cycle_kind=cycle_kind, jobs=jobs)
            oracle = None
        else:
            res = acs_growth_time_jk(d, p, n, _trial_seed(seed, i), budget,
                                     k0=k0, jobs=jobs)
            oracle = res.oracle_value
        points.append(ScanPoint(d=d, p=p, theta=theta, mean=res.mean,
                                std_error=res.std_error, oracle=oracle,
                                z=res.z_score, censored_count=res.censored_count))
        means.append(res.mean)
    # a fit needs 3 points and positive means (an event can come at step 0)
    fit = scaling_fit(ds, means) if len(ds) > 2 and all(m > 0 for m in means) else None
    return ScanResult(kind=kind, points=tuple(points), fit=fit)

"""Discrete-time graph adaptation: eliminate the weakest species, resample.

One update: read the equilibrium of the current graph, collect the
minimum-prevalence vertices, pick one uniformly at random, redraw its row
and column with edge probability p, and solve the new equilibrium (the
vertex dynamics are treated as infinitely fast, so each graph is seen
only through its equilibrium). Traces record per-step structure metrics
plus the first steps at which a cycle and a graph-spanning autocatalytic
set appear.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .dynamics import KIND_ACS, ZERO_TOL, EquilibriumResult, equilibrium
from .graph import (
    TOL,
    InteractionMatrix,
    ModelParams,
    _induced,
    _Record,
    has_undirected_cycle,
    resample_vertex,
    sample_er_digraph,
)
from .rng import stream

__all__ = [
    "AdaptiveState",
    "StepRecord",
    "AdaptiveTrace",
    "min_prevalence_set",
    "jk_step",
    "run_adaptive",
    "plant_directed_cycle",
    "trace_to_json_lines",
    "trace_from_json_lines",
]

STOP_MODES = ("none", "first_cycle", "full_acs")
CYCLE_KINDS = ("directed", "undirected")
X0_MODES = ("uniform", "carry")
REL_TOL = 1e-9  # within REL_TOL * max(1, min) of the minimum ties for it


@dataclass(frozen=True, eq=False)
class AdaptiveState:
    """Graph and its equilibrium at discrete step s.

    The two structure flags are read off the state, with no graph search.

    ``directed_cycle`` is the equilibrium's kind. On a cyclic graph the
    flow limit is a non-negative eigenvector of some cycle-carrying
    class, so |C x_*|_1 = rho >= 1 (a 0/1 cycle has radius at least 1)
    and the kind is ``acs_supported``. On an acyclic graph the nilpotent
    limit gives C x_* = 0 exactly. This needs the start to reach a cycle
    whenever the graph has one. The uniform start covers every vertex.
    The carried start of ``jk_step`` keeps the old equilibrium's support:
    that is every vertex when the zero set is empty, and otherwise the
    update of a zero vertex leaves the support's cycles intact. It also
    gives the resampled vertex, through which every new cycle passes,
    mass 1/d.

    ``full_acs`` is the in-degree test: the whole vertex set is
    autocatalytic iff every vertex has an in-edge, that is iff every
    vertex is the target of some arc of ``matrix.arcs``. The in-degrees
    are one ``bincount`` over the edge list, not a pass over d x d.
    """

    s: int
    matrix: InteractionMatrix
    x_star: EquilibriumResult

    @property
    def directed_cycle(self) -> bool:
        return self.x_star.kind == KIND_ACS

    @cached_property
    def full_acs(self) -> bool:
        dst, _ = self.matrix.arcs
        return bool(np.bincount(dst, minlength=self.matrix.d).all())


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Metrics of the state at step s and the vertex chosen to leave it.

    ``chosen`` is None for the final state of a run (no further update).
    ``lam`` is |C x_*|_1, which equals the leading eigenvalue on an
    ACS-supported equilibrium and 0 on a terminal-supported one.
    """

    s: int
    j_min_set: tuple
    chosen: int | None
    lam: float
    support_size: int
    directed_cycle: bool
    full_acs: bool


@dataclass(eq=False)
class AdaptiveTrace:
    """Full record of one adaptive run."""

    params: ModelParams
    seed: int
    records: list = field(default_factory=list)
    first_cycle_step: int | None = None
    full_acs_step: int | None = None
    options: dict = field(default_factory=dict)
    invariant_violations: int = 0

    @property
    def steps(self) -> int:
        return len(self.records) - 1


def min_prevalence_set(x_star) -> np.ndarray:
    """Floating-point tie set of the minimum concentration.

    Returns {j : x_j <= min_k x_k + REL_TOL * max(1, min_k)}.
    """
    x = np.asarray(x_star, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the state must be a non-empty vector")
    m = float(x.min())
    return np.flatnonzero(x <= m + REL_TOL * max(1.0, m))


def _carry_state(prev: np.ndarray, j: int) -> np.ndarray:
    x = prev.copy()
    x[j] = 1.0 / x.size
    return x / x.sum()


def jk_step(state: AdaptiveState, p: float, rng: np.random.Generator,
            x0_mode: str = "uniform"):
    """One adaptive update; returns (next state, record of this state).

    ``x0_mode`` picks the initial condition the new equilibrium is read
    from: "uniform" restarts at the barycentre every epoch, "carry"
    reuses the previous equilibrium with the resampled vertex reset to
    1/d (then renormalised). A uniform step whose redraw left the graph
    unchanged (``resample_vertex`` returned it as is) keeps
    ``state.x_star``: the solve of the same graph from the same start
    would give the same bits. A carried start is solved every step.
    """
    if x0_mode not in X0_MODES:
        raise ValueError(f"x0_mode must be one of {X0_MODES}")
    x = state.x_star.x_star
    jset = min_prevalence_set(x)
    chosen = int(jset[rng.integers(jset.size)])
    new_matrix = resample_vertex(state.matrix, chosen, p, rng)
    x0 = _carry_state(x, chosen) if x0_mode == "carry" else None
    new_eq = (state.x_star if x0 is None and new_matrix is state.matrix
              else equilibrium(new_matrix, x0=x0))
    record = _record_state(state, chosen, jset)
    return AdaptiveState(state.s + 1, new_matrix, new_eq), record


def _record_state(state: AdaptiveState, chosen: int | None,
                  jset: np.ndarray) -> StepRecord:
    return StepRecord(
        s=state.s,
        j_min_set=tuple(jset.tolist()),
        chosen=chosen,
        lam=state.x_star.lam,
        support_size=int(state.x_star.support.size),
        directed_cycle=state.directed_cycle,
        full_acs=state.full_acs,
    )


def plant_directed_cycle(C: InteractionMatrix, length: int = 2) -> InteractionMatrix:
    """Overlay a directed cycle on vertices 0..length-1."""
    if not 2 <= length <= C.d:
        raise ValueError("cycle length must be in [2, d]")
    d, (dst, src) = C.d, C.arcs
    ring = np.arange(length)
    keys = np.sort(np.concatenate([dst * d + src, (ring + 1) % length * d + ring]),
                   kind="stable")
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # once each
    return InteractionMatrix._from_arcs(d, *np.divmod(keys, d), _Record(ring))


def run_adaptive(params: ModelParams, seed: int, max_steps: int,
                 stop: str = "none", cycle_kind: str = "directed",
                 x0_mode: str = "uniform",
                 plant_cycle: int | None = None) -> AdaptiveTrace:
    """Run the adaptive loop from a freshly sampled graph.

    Stops at ``max_steps`` updates or as soon as the stop condition holds:
    ``first_cycle`` waits for a cycle of ``cycle_kind`` ("directed" or
    "undirected" simple projection), ``full_acs`` for the whole vertex
    set to be autocatalytic. Events are recorded either way; a trace that
    exhausted the budget simply leaves them None (censored).

    ``invariant_violations`` counts violations of the preservation law: while
    some species sits at zero concentration, the chosen vertex must be one
    of them, the induced subgraph on the support must survive the update
    unchanged, and a directed cycle must persist.
    """
    if stop not in STOP_MODES:
        raise ValueError(f"stop must be one of {STOP_MODES}")
    if cycle_kind not in CYCLE_KINDS:
        raise ValueError(f"cycle_kind must be one of {CYCLE_KINDS}")
    if x0_mode not in X0_MODES:
        raise ValueError(f"x0_mode must be one of {X0_MODES}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    rng = stream(seed)
    matrix = sample_er_digraph(params, rng)
    if plant_cycle is not None:
        matrix = plant_directed_cycle(matrix, plant_cycle)
    state = AdaptiveState(0, matrix, equilibrium(matrix))

    options = {"max_steps": max_steps, "stop": stop, "cycle_kind": cycle_kind,
               "x0_mode": x0_mode, "plant_cycle": plant_cycle, "tol": TOL,
               "zero_tol": ZERO_TOL, "rel_tol": REL_TOL}
    trace = AdaptiveTrace(params=params, seed=seed, options=options)

    while True:
        if trace.first_cycle_step is None and (
                state.directed_cycle if cycle_kind == "directed"
                else has_undirected_cycle(state.matrix)):
            trace.first_cycle_step = state.s
        if trace.full_acs_step is None and state.full_acs:
            trace.full_acs_step = state.s

        done = (
            state.s >= max_steps
            or (stop == "first_cycle" and trace.first_cycle_step is not None)
            or (stop == "full_acs" and trace.full_acs_step is not None)
        )
        if done:
            jset = min_prevalence_set(state.x_star.x_star)
            trace.records.append(_record_state(state, None, jset))
            break

        new_state, record = jk_step(state, params.p, rng, x0_mode=x0_mode)
        trace.records.append(record)

        if state.x_star.zero_set.size > 0:
            sup = state.x_star.support
            ok = bool((state.x_star.zero_set == record.chosen).any())
            # the arcs (dst, src) among the support, which a graph the
            # redraw left unchanged keeps
            ok = ok and (new_state.matrix is state.matrix or all(map(
                np.array_equal, _induced(state.matrix, sup)[1:],
                _induced(new_state.matrix, sup)[1:])))
            if state.directed_cycle:
                ok = ok and new_state.directed_cycle
            if not ok:
                trace.invariant_violations += 1

        state = new_state
    return trace


# ---------------------------------------------------------------------------
# Trace serialisation (JSON lines: one header, then one record per line)
# ---------------------------------------------------------------------------

# (attribute, JSON key) of each StepRecord field; lam is written as "lambda"
_RECORD_KEYS = tuple((f.name, "lambda" if f.name == "lam" else f.name)
                     for f in fields(StepRecord))


def trace_to_json_lines(trace: AdaptiveTrace) -> str:
    """The trace as JSON lines: the header, then one record per line, each
    ``json.dumps(..., sort_keys=True)`` of its fields with ``lam`` keyed
    "lambda". Consecutive records mostly hold an equal tie set of hundreds
    of vertices, so each distinct ``j_min_set`` is encoded once and put in
    its record's line in place of a null; the bytes are the same."""
    header = {
        "d": trace.params.d,
        "p": trace.params.p,
        "theta": trace.params.theta,
        "seed": trace.seed,
        "options": trace.options,
        "first_cycle_step": trace.first_cycle_step,
        "full_acs_step": trace.full_acs_step,
        "invariant_violations": trace.invariant_violations,
    }
    lines = [json.dumps(header, sort_keys=True)]
    ties = {}  # each distinct tie set's JSON text
    for r in trace.records:
        tie = ties.get(r.j_min_set)
        if tie is None:
            tie = ties[r.j_min_set] = '"j_min_set": ' + json.dumps(r.j_min_set)
        fields = {key: getattr(r, name) for name, key in _RECORD_KEYS}
        fields["j_min_set"] = None  # no value is a string, so its key's text is unique
        lines.append(json.dumps(fields, sort_keys=True).replace(
            '"j_min_set": null', tie, 1))
    return "\n".join(lines) + "\n"


def trace_from_json_lines(text: str) -> AdaptiveTrace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("trace text has no header line")
    header = json.loads(lines[0])
    trace = AdaptiveTrace(
        params=ModelParams(d=header["d"], p=header["p"]),
        seed=header["seed"],
        options=header.get("options", {}),
        first_cycle_step=header.get("first_cycle_step"),
        full_acs_step=header.get("full_acs_step"),
        invariant_violations=header.get("invariant_violations", 0),
    )
    for ln in lines[1:]:
        obj = json.loads(ln)
        obj["lam"], obj["j_min_set"] = obj.pop("lambda"), tuple(obj["j_min_set"])
        trace.records.append(StepRecord(**obj))
    return trace

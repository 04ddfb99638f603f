"""Concentration dynamics on a fixed interaction graph.

The vector field is x' = Cx - |Cx|_1 x on the probability simplex. The
same flow lifts to the linear cone system y' = Cy - phi*y for any phi;
projecting y by its 1-norm recovers x(t). That linearity is what the
equilibrium solver exploits: the t -> infinity limit of the flow from x0
is the dominant direction of exp(tC) x0, computed here by repeated
squaring of I + C (cyclic case) or by the last nonvanishing power C^m x0
(nilpotent case), far past where explicit time stepping could reach.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    InteractionMatrix,
    NonConvergenceError,
    _reachable_from,
    has_directed_cycle,
    path_counts,
    spectral_radius_pf,
    terminal_vertices,
)

__all__ = [
    "Trajectory",
    "EquilibriumResult",
    "EquilibriumSetBasis",
    "AndiVariables",
    "uniform_state",
    "simplex_vector",
    "vector_field",
    "integrate",
    "integrate_projective",
    "equilibrium",
    "equilibrium_set_basis",
    "andi_sequences",
    "andi_residual",
    "trajectory_to_csv",
    "equilibrium_to_json_dict",
]

KIND_ACS = "acs_supported"
KIND_TERMINAL = "terminal_supported"
KIND_DEGENERATE = "degenerate_no_edges"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times, simplex states, residuals ||f(x)||_1.

    ``mass_drift_rate`` is the largest pre-renormalisation |sum(x) - 1|
    per unit time seen along the way, ``min_component`` the most negative
    pre-clamp component.
    """

    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    mass_drift_rate: float
    min_component: float


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Converged equilibrium with support classification.

    kind is one of ``acs_supported`` (a directed cycle carries the mass),
    ``terminal_supported`` (acyclic graph, mass on terminal vertices) or
    ``degenerate_no_edges`` (zero matrix, every point is stationary).
    ``non_unique`` flags an analytic answer picked from an equilibrium
    set of dimension >= 1.
    """

    x_star: np.ndarray
    residual: float
    support: np.ndarray
    zero_set: np.ndarray
    kind: str
    non_unique: bool


@dataclass(frozen=True, eq=False)
class EquilibriumSetBasis:
    """Basis of the attracting equilibrium set.

    Every convex combination of ``vectors`` is an equilibrium (this is
    verified at construction): for a cyclic graph the vectors span the
    non-negative leading eigenspace, for an acyclic graph they are the
    unit vectors of the maximal-input terminal vertices.
    """

    kind: str
    vectors: tuple
    non_unique: bool


@dataclass(frozen=True, eq=False)
class AndiVariables:
    """Power-weighted observables r_n = sum_j (C^n x)_j and R_n = C^n x."""

    r: np.ndarray
    R: np.ndarray

    @property
    def depth(self) -> int:
        return self.r.shape[0]


# ---------------------------------------------------------------------------
# States and the vector field
# ---------------------------------------------------------------------------

def uniform_state(d: int) -> np.ndarray:
    return np.full(d, 1.0 / d)


def simplex_vector(x, atol: float = 1e-9) -> np.ndarray:
    """Validate, clamp (>= -1e-12) and exactly renormalise a state."""
    x = np.asarray(x, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("state must be a vector")
    if x.min() < -1e-12:
        raise ValueError(f"negative component {x.min():.3e} below -1e-12")
    if abs(x.sum() - 1.0) > atol:
        raise ValueError(f"mass {x.sum()!r} deviates from 1 beyond {atol}")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _field(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    cx = a @ x
    return cx - cx.sum() * x


def vector_field(C: InteractionMatrix, x) -> np.ndarray:
    """f(x) = Cx - |Cx|_1 x, with a single matrix-vector product."""
    x = np.asarray(x, dtype=float)
    if x.shape != (C.d,):
        raise ValueError(f"state has length {x.shape}, expected {C.d}")
    return _field(C.as_float(), x)


def _residual(a: np.ndarray, x: np.ndarray) -> float:
    return float(np.abs(_field(a, x)).sum())


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _rk4_step(a: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    k1 = _field(a, x)
    k2 = _field(a, x + 0.5 * h * k1)
    k3 = _field(a, x + 0.5 * h * k2)
    k4 = _field(a, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(C: InteractionMatrix, x0, t_end: float, h: float = 0.01,
              adaptive: bool = False, tol: float = 1e-9,
              record_every: int = 1,
              stop_residual: float | None = None) -> Trajectory:
    """Integrate the simplex flow with classical RK4.

    Each accepted step is renormalised back onto the simplex; the drift
    removed that way is tracked and reported per unit time. With
    ``adaptive=True`` the step size is controlled by step doubling
    against ``tol``. ``stop_residual`` ends the run early once
    ||f(x)||_1 falls below it.
    """
    a = C.as_float()
    x = simplex_vector(x0)
    times = [0.0]
    states = [x.copy()]
    residuals = [_residual(a, x)]
    max_drift_rate = 0.0
    min_component = float(x.min())

    def accept(x_new: np.ndarray, dt: float) -> np.ndarray:
        nonlocal max_drift_rate, min_component
        drift = abs(x_new.sum() - 1.0)
        max_drift_rate = max(max_drift_rate, drift / dt)
        mc = float(x_new.min())
        min_component = min(min_component, mc)
        if mc < -1e-9:
            raise FloatingPointError(f"component undershoot {mc:.3e}")
        x_new = np.clip(x_new, 0.0, None)
        return x_new / x_new.sum()

    t = 0.0
    step = 0
    h_cur = min(h, t_end) if t_end > 0 else h
    if h_cur <= 0:
        raise ValueError("step size underflow")
    while t < t_end - 1e-12:
        h_step = min(h_cur, t_end - t)
        if not adaptive:
            x = accept(_rk4_step(a, x, h_step), h_step)
            t += h_step
        else:
            full = _rk4_step(a, x, h_step)
            half = _rk4_step(a, _rk4_step(a, x, h_step / 2), h_step / 2)
            err = np.abs(full - half).sum() / 15.0
            if err > tol and h_step > 1e-8:
                h_cur = h_step / 2
                continue
            x = accept(half, h_step)
            t += h_step
            if err < tol / 32.0:
                h_cur = min(h_step * 2, h)
        if h_cur < 1e-10:
            raise NonConvergenceError("step size underflow")
        step += 1
        if step % record_every == 0 or t >= t_end - 1e-12:
            times.append(t)
            states.append(x.copy())
            residuals.append(_residual(a, x))
            if stop_residual is not None and residuals[-1] < stop_residual:
                break

    return Trajectory(times=np.array(times), states=np.array(states),
                      residuals=np.array(residuals),
                      mass_drift_rate=max_drift_rate,
                      min_component=min_component)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Taylor series."""
    norm = np.abs(a).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1) if norm > 0.5 else 0
    m = a / (2 ** s)
    term = np.eye(a.shape[0])
    out = term.copy()
    for n in range(1, 30):
        term = term @ m / n
        out += term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def integrate_projective(C: InteractionMatrix, y0, phi: float = -1.0,
                         t_end: float = 50.0, h: float = 0.01,
                         method: str = "rk4",
                         record_every: int = 1) -> Trajectory:
    """Integrate the cone system y' = Cy - phi*y, renormalising each step.

    Renormalisation is legitimate because every point of a ray projects
    to the same simplex state, so the recorded states are already the
    projections y/|y|_1. ``method="expm"`` advances with the exact step
    propagator exp(h(C - phi I)) instead of RK4.
    """
    a = C.as_float()
    y = np.asarray(y0, dtype=float).copy()
    if y.shape != (C.d,):
        raise ValueError("dimension mismatch")
    if y.min() < 0 or y.sum() <= 0:
        raise ValueError("y0 must be non-negative and nonzero")
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    gen = a - phi * np.eye(C.d)
    y = y / y.sum()
    times = [0.0]
    states = [y.copy()]
    residuals = [_residual(a, y)]
    n_steps = int(np.ceil(t_end / h - 1e-12))
    if method == "expm":
        prop = _expm(h * gen)
    elif method != "rk4":
        raise ValueError(f"unknown method {method!r}")
    for step in range(1, n_steps + 1):
        dt = min(h, t_end - (step - 1) * h)
        if method == "expm":
            y = prop @ y if dt == h else _expm(dt * gen) @ y
        else:
            k1 = gen @ y
            k2 = gen @ (y + 0.5 * dt * k1)
            k3 = gen @ (y + 0.5 * dt * k2)
            k4 = gen @ (y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        mass = y.sum()
        if not (np.isfinite(mass) and mass > 1e-300):
            raise NonConvergenceError(
                f"cone trajectory mass {mass:.3e} collapsed or overflowed "
                f"at step {step}; reduce h or |phi|")
        y = np.clip(y, 0.0, None)
        y /= y.sum()
        if step % record_every == 0 or step == n_steps:
            times.append(min(step * h, t_end))
            states.append(y.copy())
            residuals.append(_residual(a, y))
    return Trajectory(times=np.array(times), states=np.array(states),
                      residuals=np.array(residuals),
                      mass_drift_rate=0.0, min_component=float(min(s.min() for s in states)))


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------

def _nilpotent_limit(a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Limit direction of exp(tC) x0 for nilpotent C: last nonzero C^n x0."""
    best = x0 / x0.sum()
    for _ in range(a.shape[0]):
        nxt = a @ best
        s = nxt.sum()
        if s <= 0.0:
            break
        best = nxt / s
    return best


def _weak_component_labels(a: np.ndarray) -> np.ndarray:
    """Label every vertex with the smallest vertex of its weak component.

    Min-label propagation with pointer jumping, vectorised over the
    edges: each edge hooks the larger of its endpoints' roots under the
    smaller, then every vertex jumps to its root. Labels only decrease
    and every label names a root that labels itself, so when no edge
    joins two labels each component is labelled by its smallest vertex.
    """
    d = a.shape[0]
    # flatnonzero of a bool array is several times faster than 2-D nonzero
    rows, cols = np.divmod(np.flatnonzero(a > 0), d)
    label = np.arange(d)
    while True:
        lo = np.minimum(label[rows], label[cols])
        hi = np.maximum(label[rows], label[cols])
        if (lo == hi).all():
            return label
        np.minimum.at(label, hi, lo)
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]


# Width of the shared blocks that small components are packed into, and
# the largest graph that is one block; see _block_layout.
_TILE = 32
_ONE_BLOCK = 64


def _block_layout(a: np.ndarray) -> list | None:
    """Diagonal blocks of I + C that cover every weak component of C.

    Returns int index arrays of shape (n, s), row k listing the vertices
    of the k-th (s, s) block, so that
    ``a[idx[:, :, None], idx[:, None, :]]`` is the (n, s, s) stack of
    those blocks of C. No edge joins two blocks, so squaring the stack
    squares I + C. None means one block of all d vertices in order: up
    to ``_ONE_BLOCK`` vertices the labelling costs more than the
    squaring it would save.

    A component larger than ``_TILE`` is a block of its own, stacked
    with the others of its size. The rest share tiles of at most
    ``_TILE`` slots: each is padded to a power of two and laid out
    largest first, so that none straddles two tiles, and padding slots
    hold the index d, which the caller maps to a zero row and column.
    Tiles keep the number of stacks, and with it the per-squaring
    Python overhead, small when a graph has many little components.
    """
    d = a.shape[0]
    if d <= _ONE_BLOCK:
        return None
    label = _weak_component_labels(a)
    size = np.bincount(label)[label]
    big = size > _TILE
    groups = []
    if big.any():
        order = np.flatnonzero(big)[np.lexsort((label[big], size[big]))]
        sizes, firsts = np.unique(size[order], return_index=True)
        groups += [chunk.reshape(-1, s)
                   for s, chunk in zip(sizes, np.split(order, firsts[1:]))]
    if not big.all():
        small = np.flatnonzero(~big)
        pad = 2 ** np.ceil(np.log2(size[small])).astype(np.int64)
        order = np.lexsort((label[small], -pad))  # stable: vertex order kept
        verts, pad, lab = small[order], pad[order], label[small][order]
        opens = np.r_[True, lab[1:] != lab[:-1]]  # a component starts here
        first = np.flatnonzero(opens)
        comp = np.cumsum(opens) - 1
        offset = np.cumsum(pad[first]) - pad[first]
        slot = offset[comp] + np.arange(verts.size) - first[comp]
        total = int(offset[-1] + pad[first[-1]])
        tile = min(_TILE, 1 << (total - 1).bit_length())
        flat = np.full(-(-total // tile) * tile, d)
        flat[slot] = verts
        groups.append(flat.reshape(-1, tile))
    return groups


def _dominant_direction(a: np.ndarray, x0: np.ndarray, tol: float,
                        zero_tol: float, max_doublings: int) -> np.ndarray:
    """Limit direction of exp(tC) x0 by repeated squaring of I + C.

    I + C has the strictly dominant eigenvalue 1 + rho(C), with the same
    leading invariant subspace as the exponential, so normalised powers
    applied to x0 converge to the flow's limit even when the leading
    eigenvalue is defective (where the decay is only ~t^-1 in real time
    but halves per squaring here). After the residual tolerance is met,
    extra squarings run until no component is stranded near the support
    threshold, so the zero set is classified cleanly.

    I + C is block-diagonal over the weak components of C, and so is
    every power of it, so only the blocks of ``_block_layout`` are
    squared, one batched matmul per stack, and all are divided by the
    one global maximum as the dense squaring divides its matrix. The
    iterate, the number of squarings and the stop test are the dense
    ones; only the summation order inside each product changes. A
    squaring costs O(sum s^3) over the blocks instead of O(d^3).
    """
    d = a.shape[0]
    groups = _block_layout(a)
    if groups is None:  # one block, held as a plain matrix
        blocks, starts, pos = [np.eye(d) + a], [x0], slice(None)
    else:
        # slot of each vertex in the concatenated blocks; padding sorts last
        pos = np.argsort(np.concatenate([idx.ravel() for idx in groups]),
                         kind="stable")[:d]
        one = np.zeros((d + 1, d + 1))  # I + C, with a zero padding vertex d
        one[:d, :d] = a
        one.flat[:d * (d + 2):d + 2] = 1.0
        blocks = [one[idx[:, :, None], idx[:, None, :]] for idx in groups]
        x_pad = np.concatenate([x0, [0.0]])
        starts = [x_pad[idx][:, :, None] for idx in groups]
    slots = np.empty(sum(start.size for start in starts))  # M x0 by stack
    outs, at = [], 0
    for start in starts:
        outs.append(slots[at:at + start.size].reshape(start.shape))
        at += start.size

    # one squaring: M <- M^2 / max(M^2), then M x0 into the slots
    if len(blocks) == 1:
        # the same step without the list handling: on graphs of up to
        # _ONE_BLOCK vertices, where a whole solve takes 0.1-0.2 ms,
        # that handling alone made the small adaptive steps 5-20 % slower
        (m,), (start,), (out,) = blocks, starts, outs

        def square():
            nonlocal m
            m = m @ m
            m /= m.max()
            np.matmul(m, start, out=out)
    else:
        def square():
            nonlocal blocks
            blocks = [m @ m for m in blocks]
            top = max([m.max() for m in blocks])
            for block, block_start, block_out in zip(blocks, starts, outs):
                block /= top
                np.matmul(block, block_start, out=block_out)

    y = x0 / x0.sum()
    # defective leading eigenvalues leave slowly decaying components that
    # shrink only ~2x per squaring; keep going until none is stranded in
    # the ambiguous band around the support threshold
    band_lo, band_hi = zero_tol * 1e-3, 1e-4
    polish_left = 32
    for _ in range(max_doublings):
        square()
        y = slots[pos]
        y = y / y.sum()
        if _residual(a, y) <= tol:
            in_band = bool(((y > band_lo) & (y < band_hi)).any())
            if not in_band or polish_left == 0:
                return y
            polish_left -= 1
    raise NonConvergenceError(
        f"projective iteration residual {_residual(a, y):.3e} > tol={tol}")


def _flow_limit(C: InteractionMatrix, a: np.ndarray, start: np.ndarray,
                tol: float, zero_tol: float, max_doublings: int) -> np.ndarray:
    """Limit direction of exp(tC) start, solved where the flow can go.

    The flow never leaves the vertices reachable from supp(start), so a
    start with zeros is solved on that subgraph alone: the squaring on
    the whole graph would take its scale from a faster-growing block the
    start never reaches and underflow the blocks it does reach to 0/0.
    The subgraph decides between the squaring and the nilpotent limit.
    """
    live, sub = slice(None), C
    if not start.all():
        live = np.array(sorted(
            _reachable_from(C.entries, np.flatnonzero(start))))
        if live.size == 1:  # a start on one sink is already stationary
            return start
        sub = InteractionMatrix(C.entries[np.ix_(live, live)])
        a = a[np.ix_(live, live)]
    x = np.zeros(C.d)
    if has_directed_cycle(sub):
        x[live] = _dominant_direction(a, start[live], tol, zero_tol, max_doublings)
    else:
        x[live] = _nilpotent_limit(a, start[live])
    return x


def _classify(a: np.ndarray, x: np.ndarray, zero_tol: float, has_edges: bool):
    support = np.flatnonzero(x > zero_tol)
    zero_set = np.flatnonzero(x <= zero_tol)
    if not has_edges:
        kind = KIND_DEGENERATE
    elif (a @ x).sum() >= 0.5:
        kind = KIND_ACS
    else:
        kind = KIND_TERMINAL
    return support, zero_set, kind


def equilibrium(C: InteractionMatrix, x0=None, analytic: bool = False,
                tol: float = 1e-10, zero_tol: float = 1e-9,
                max_doublings: int = 70) -> EquilibriumResult:
    """Equilibrium of the simplex flow for the given graph.

    Default mode returns the limit of the flow started at ``x0``
    (uniform when omitted), computed through the linear cone system.
    ``analytic=True`` instead answers from the structure alone: the
    equal-weight combination of the leading-eigenspace basis (cyclic
    case) or of the maximal-input terminal vertices (acyclic case),
    flagged ``non_unique`` when that set has more than one generator.
    For the zero matrix every state is stationary and x0 itself is
    returned with kind ``degenerate_no_edges``.
    """
    a = C.as_float()
    has_edges = C.edge_count() > 0
    non_unique = False

    if not has_edges:
        if analytic or x0 is None:
            x = uniform_state(C.d)
            non_unique = True
        else:
            x = simplex_vector(x0)
    elif analytic:
        if has_directed_cycle(C):
            sd = spectral_radius_pf(C, tol=tol)
            x = np.mean(sd.pf_basis, axis=0)
            x /= x.sum()
            non_unique = sd.multiplicity > 1
        else:
            pc = path_counts(C)
            term = terminal_vertices(C)
            best = term[pc[term] == pc[term].max()]
            x = np.zeros(C.d)
            x[best] = 1.0 / best.size
            non_unique = best.size > 1
    else:
        start = uniform_state(C.d) if x0 is None else simplex_vector(x0)
        x = _flow_limit(C, a, start, tol, zero_tol, max_doublings)

    residual = _residual(a, x)
    if residual > max(tol, 1e-9):
        raise NonConvergenceError(f"equilibrium residual {residual:.3e} > {tol}")
    support, zero_set, kind = _classify(a, x, zero_tol, has_edges)
    return EquilibriumResult(x_star=x, residual=residual, support=support,
                             zero_set=zero_set, kind=kind, non_unique=non_unique)


def equilibrium_set_basis(C: InteractionMatrix, tol: float = 1e-10) -> EquilibriumSetBasis:
    """Generators of the attracting equilibrium set X_*.

    Cyclic graph: the non-negative unit-1-norm basis of the leading
    eigenspace. Acyclic with edges: the unit vectors e_j of terminal
    vertices with maximal input count p(j). Zero matrix: all unit
    vectors (the whole simplex is stationary). Every convex combination
    of the returned vectors is itself an equilibrium; spot combinations
    are verified against ``tol`` before returning.
    """
    a = C.as_float()
    if C.edge_count() == 0:
        vectors = tuple(np.eye(C.d))
        kind = KIND_DEGENERATE
    elif has_directed_cycle(C):
        sd = spectral_radius_pf(C, tol=tol)
        vectors = sd.pf_basis
        kind = KIND_ACS
    else:
        pc = path_counts(C)
        term = terminal_vertices(C)
        best = term[pc[term] == pc[term].max()]
        vectors = tuple(np.eye(C.d)[j] for j in best)
        kind = KIND_TERMINAL

    checks = [np.mean(vectors, axis=0)] + list(vectors)
    if len(vectors) > 1:
        checks.append(0.5 * (vectors[0] + vectors[-1]))
    for v in checks:
        v = v / v.sum()
        if _residual(a, v) > max(tol, 1e-9):
            raise NonConvergenceError(
                "combination of basis vectors fails the equilibrium check")
    return EquilibriumSetBasis(kind=kind, vectors=vectors,
                               non_unique=len(vectors) > 1)


# ---------------------------------------------------------------------------
# Power-weighted observables
# ---------------------------------------------------------------------------

def andi_sequences(C: InteractionMatrix, x, n_max: int) -> AndiVariables:
    """r_n = sum_j (C^n x)_j and R_n = C^n x for n = 1..n_max.

    Along any solution these satisfy the closed hierarchy
    r_n' = r_{n+1} - r_n r_1, which ties the cycle structure of the
    graph to the vertex dynamics.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = C.as_float()
    x = np.asarray(x, dtype=float)
    if x.shape != (C.d,):
        raise ValueError("dimension mismatch")
    R = np.empty((n_max, C.d))
    cur = x
    for n in range(n_max):
        cur = a @ cur
        R[n] = cur
    return AndiVariables(r=R.sum(axis=1), R=R)


def andi_residual(C: InteractionMatrix, trajectory: Trajectory, n: int,
                  h: float | None = None) -> float:
    """max |dr_n/dt - (r_{n+1} - r_n r_1)| via central differences.

    The trajectory must be uniformly sampled; the finite-difference
    error is O(h^2), which halving h shrinks fourfold.
    """
    times = trajectory.times
    if times.size < 3:
        raise ValueError("need at least 3 samples")
    gaps = np.diff(times)
    if h is None:
        h = float(gaps[0])
    if not np.allclose(gaps, h, rtol=1e-8, atol=1e-12):
        raise ValueError("trajectory is not uniformly sampled")
    a = C.as_float()
    powers = trajectory.states @ a.T
    r = [powers.sum(axis=1)]
    for _ in range(n):
        powers = powers @ a.T
        r.append(powers.sum(axis=1))
    r1, rn, rn1 = r[0], r[n - 1], r[n]
    lhs = (rn[2:] - rn[:-2]) / (2.0 * h)
    rhs = rn1[1:-1] - rn[1:-1] * r1[1:-1]
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    d = traj.states.shape[1]
    header = "t," + ",".join(f"x_{j}" for j in range(d)) + ",residual"
    lines = [header]
    for t, row, res in zip(traj.times, traj.states, traj.residuals):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(v)) for v in row]
                              + [repr(float(res))]))
    return "\n".join(lines) + "\n"


def equilibrium_to_json_dict(eq: EquilibriumResult) -> dict:
    return {
        "x_star": [float(v) for v in eq.x_star],
        "residual": float(eq.residual),
        "support": [int(v) for v in eq.support],
        "kind": eq.kind,
        "non_unique": bool(eq.non_unique),
    }

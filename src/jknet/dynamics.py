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

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._csvtext import csv_block
from .graph import (
    RESIDUAL_FLOOR,
    TOL,
    InteractionMatrix,
    NonConvergenceError,
    _arc_product,
    _Block,
    _induced,
    _reachable_from,
    _Record,
    path_counts,
    spectral_radius_pf,
)

__all__ = [
    "Trajectory",
    "EquilibriumResult",
    "EquilibriumSetBasis",
    "uniform_state",
    "simplex_vector",
    "vector_field",
    "integrate",
    "integrate_projective",
    "integrate_to_csv",
    "equilibrium",
    "equilibrium_set_basis",
    "andi_residual",
    "trajectory_to_csv",
    "equilibrium_to_json_dict",
]

KIND_ACS = "acs_supported"
KIND_TERMINAL = "terminal_supported"
KIND_DEGENERATE = "degenerate_no_edges"

ZERO_TOL = 1e-9  # a concentration at or below it is outside the support
MAX_DOUBLINGS = 70  # squarings of I + C before the flow-limit solve gives up
STALL = 0.75  # a near-threshold entry above STALL x its last value has stalled
MASS_ATOL = 1e-9  # how far a state's mass may stray from 1 to be renormalised
_CSV_BLOCK = 2048  # values the CSV writers format at once: it bounds their memory


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times, simplex states, residuals ||f(x)||_1.

    ``mass_drift_rate`` is the largest pre-renormalisation |sum(x) - 1|
    per unit time seen along the way, ``min_component`` the least
    pre-clamp component. From ``integrate_projective`` both are the cone
    state's: its mass change per unit time and its least component.
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
    set of dimension >= 1. ``lam`` is |C x_*|_1: the leading eigenvalue
    on an ACS-supported equilibrium, 0 otherwise.
    """

    x_star: np.ndarray
    residual: float
    support: np.ndarray
    zero_set: np.ndarray
    kind: str
    non_unique: bool
    lam: float


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


# ---------------------------------------------------------------------------
# States and the vector field
# ---------------------------------------------------------------------------

def uniform_state(d: int) -> np.ndarray:
    return np.full(d, 1.0 / d)


def simplex_vector(x) -> np.ndarray:
    """Validate, clamp (>= -1e-12) and exactly renormalise a state."""
    x = np.asarray(x, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("state must be a vector")
    if not np.isfinite(x).all():
        raise ValueError("state has a non-finite component")
    if x.min() < -1e-12:
        raise ValueError(f"negative component {x.min():.3e} below -1e-12")
    if abs(x.sum() - 1.0) > MASS_ATOL:
        raise ValueError(f"mass {x.sum()!r} deviates from 1 beyond {MASS_ATOL}")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _start(C: InteractionMatrix, x0) -> np.ndarray:
    """``simplex_vector(x0)``, refused unless it has one entry per vertex."""
    x = simplex_vector(x0)
    if x.size != C.d:
        raise ValueError(f"x0 must have length {C.d}, got {x.size}")
    return x


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


def _arc_residual(C: InteractionMatrix, x: np.ndarray) -> float:
    """||f(x)||_1 with C x from ``_arc_product``."""
    cx = _arc_product(C, x)
    return float(np.abs(cx - cx.sum() * x).sum())


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _rk4_step(field, x: np.ndarray, h: float, k1=None) -> np.ndarray:
    """One classical RK4 step of x' = field(x); ``k1`` is field(x) if known."""
    k1 = field(x) if k1 is None else k1
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_span(t_end: float, h: float, name: str = "t_end") -> None:
    """Refuse a run span the RK4 loop cannot finish: ``t_end``, passed
    as ``name``, must be finite and non-negative, ``h`` positive."""
    if not 0 <= t_end < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {t_end!r}")
    if not h > 0:
        raise ValueError(f"h must be positive, got {h!r}")


def _rk4_run(field, x: np.ndarray, t_end: float, h: float, record,
             adaptive: bool = False, tol: float = 1e-9,
             stop_residual: float | None = None) -> tuple[float, float]:
    """``integrate``'s RK4 run of x' = field(x) from the simplex state x.

    Once the span is checked, each row ``(t, x, ||field(x)||_1)`` goes to
    ``record``, x a fresh array each time. Returns the run's
    ``(mass_drift_rate, min_component)``.
    """
    _check_span(t_end, h)
    if adaptive and not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    fx = field(x)  # the residual's f(x) is the next step's k1
    max_drift_rate = 0.0
    min_component = float(x.min())

    def accept(x_new: np.ndarray, dt: float) -> np.ndarray:
        nonlocal max_drift_rate, min_component
        mass = x_new.sum()
        if not (math.isfinite(mass) and mass > 1e-300):
            raise NonConvergenceError(f"state mass {mass:.3e} collapsed or "
                                      f"overflowed in a step of {dt!r}; reduce h")
        max_drift_rate = max(max_drift_rate, abs(mass - 1.0) / dt)
        mc = float(x_new.min())
        min_component = min(min_component, mc)
        if mc < -1e-9:
            raise FloatingPointError(f"component undershoot {mc:.3e}")
        x_new = np.maximum(x_new, 0.0)
        return x_new / x_new.sum()

    t = 0.0
    h_cur = min(h, t_end) if t_end > 0 else h
    record((t, x, np.abs(fx).sum()))
    while t < t_end - 1e-12:
        h_step = min(h_cur, t_end - t)
        if not adaptive:
            x = accept(_rk4_step(field, x, h_step, fx), h_step)
            t += h_step
        else:
            full = _rk4_step(field, x, h_step, fx)
            half = _rk4_step(field, _rk4_step(field, x, h_step / 2, fx), h_step / 2)
            err = np.abs(full - half).sum() / 15.0
            if err > tol and h_step > 1e-8:
                h_cur = h_step / 2
                continue
            x = accept(half, h_step)
            t += h_step
            if err < tol / 32.0:
                h_cur = min(h_step * 2, h)
        fx = field(x)
        residual = np.abs(fx).sum()
        record((t, x, residual))
        if stop_residual is not None and residual < stop_residual:
            break
    return max_drift_rate, min_component


def _trajectory(rows: list, stats: tuple[float, float]) -> Trajectory:
    """The ``Trajectory`` of ``_rk4_run``'s rows and returned stats."""
    times, states, residuals = zip(*rows)
    return Trajectory(np.array(times), np.array(states), np.array(residuals), *stats)


def integrate(C: InteractionMatrix, x0, t_end: float, h: float = 0.01,
              adaptive: bool = False, tol: float = 1e-9,
              stop_residual: float | None = None) -> Trajectory:
    """Integrate the simplex flow with classical RK4.

    Each accepted step is renormalised back onto the simplex; the drift
    removed that way is tracked and reported per unit time. With
    ``adaptive=True`` the step size is controlled by step doubling
    against ``tol``, which must then be positive and finite.
    ``stop_residual`` ends the run early once ||f(x)||_1 falls below it.
    """
    rows = []
    stats = _rk4_run(partial(_field, C.as_float()), _start(C, x0), t_end, h,
                     rows.append, adaptive, tol, stop_residual)
    return _trajectory(rows, stats)


def integrate_to_csv(C: InteractionMatrix, x0, t_end: float, h: float = 0.01,
                     out=None) -> Trajectory:
    """``integrate``'s fixed-step run, written to the text stream ``out``
    as it goes: the text ``trajectory_to_csv`` would give for the whole
    trajectory (no CSV if ``out`` is None). Accepted rows wait in a block
    of at most ``_CSV_BLOCK`` values, written when it fills and when the
    run ends, so memory does not grow with ``t_end / h``; the returned
    ``Trajectory`` holds the last row alone. A run that fails part way
    has written every row accepted before the failure.
    """
    last = []
    block = np.empty((max(1, _CSV_BLOCK // (C.d + 2)), C.d + 2))
    n = 0

    def flush() -> None:
        nonlocal n
        if n:
            text, n = csv_block(block[:n]), 0
            out.write(text)

    def record(row: tuple) -> None:
        nonlocal n
        if out is not None:
            if not last:  # the first row: the span has passed its check
                out.write(_csv_header(C.d))
            block[n, 0], block[n, 1:-1], block[n, -1] = row
            n += 1
            if n == len(block):
                flush()
        last[:] = [row]

    try:
        stats = _rk4_run(partial(_field, C.as_float()), _start(C, x0), t_end, h,
                         record)
    finally:
        flush()
    return _trajectory(last, stats)


def integrate_projective(C: InteractionMatrix, y0, phi: float = -1.0,
                         t_end: float = 50.0, h: float = 0.01) -> Trajectory:
    """Integrate the cone system y' = Cy - phi*y with RK4, renormalising.

    Renormalisation is legitimate because every point of a ray projects
    to the same simplex state, so the recorded states are already the
    projections y/|y|_1. It runs on ``integrate``'s time grid for the same
    ``(t_end, h)``, and its residuals are the simplex flow's ||f(x)||_1.
    """
    a = C.as_float()
    y = np.asarray(y0, dtype=float)
    if y.shape != (C.d,):
        raise ValueError("dimension mismatch")
    if not np.isfinite(y).all() or y.min() < 0 or y.sum() <= 0:
        raise ValueError("y0 must be finite, non-negative and nonzero")
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    rows = []
    stats = _rk4_run(partial(np.matmul, a - phi * np.eye(C.d)), y / y.sum(), t_end, h,
                     rows.append)
    return _trajectory([(t, x, _residual(a, x)) for t, x, _ in rows], stats)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------

def _nilpotent_limit(C: InteractionMatrix, x0: np.ndarray) -> np.ndarray | None:
    """The last nonzero C^n x0, normalised, or None once x0 reaches a cycle:
    the support repeats, nonempty (each of its vertices has an in-neighbour
    in it), or ``C.d`` powers pass without a zero one (past them an acyclic
    graph's power is zero). Support sizes are compared before supports.

    A repeated support S is recorded as C's cycle certificate, which
    holds exactly: (C y)_v is 0 for a v with no in-neighbour in supp(y),
    and rounding can shrink a support but never grow it."""
    best = x0 / x0.sum()
    size = np.count_nonzero(best)
    for _ in range(C.d):
        nxt = _arc_product(C, best)
        s = nxt.sum()
        if s <= 0.0:
            return best
        nxt /= s
        nxt_size = np.count_nonzero(nxt)
        if nxt_size == size and ((nxt > 0.0) == (best > 0.0)).all():
            C._record.cycle = np.flatnonzero(nxt)
            return None
        best, size = nxt, nxt_size
    return None


# The largest graph that is squared as one block, unlabelled; see
# _dominant_direction.
_ONE_BLOCK = 64


def _krylov(n: int, dst: np.ndarray, src: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """Rows N^i x, i = 0, 1, ... up to the last nonzero one, for N the
    acyclic graph on n vertices with the edges ``(dst, src)``."""
    rows = [x]
    for _ in range(n):  # N^n is zero
        nxt = np.bincount(dst, weights=rows[-1][src], minlength=n)
        if not np.count_nonzero(nxt):
            break
        rows.append(nxt)
    return np.array(rows)


def _square(m: np.ndarray) -> np.ndarray:
    """m @ m: each squaring of a dense block of I + C is made here."""
    return m @ m


class _Powers:
    """One block's normalised powers through one solve, applied to its start.

    With M_0 the block (``_Block.matrix``), squaring k forms M_k @ M_k,
    whose largest entry is ``raw``, and divides it by the solve's top to
    give M_(k+1). Level k of the block's ``squarings`` holds that raw
    and top and M_(k+1) @ start. It is read only while the start has the
    carried start's bits and every earlier top equals the carried one:
    then M_k is the matrix the carry was made from, and so raw is, and
    with an equal top the image is too. At the first level where that
    fails, or past the carried levels, M_k is rebuilt by replaying the
    carried tops from M_0, the carry is cut there, and each level from
    there on is squared and written. So the images are the bits a fresh
    squaring gives, and a block is squared either not at all or exactly
    as often as without a carry.
    """

    __slots__ = ("block", "start", "key", "levels", "power", "raw")

    def __init__(self, block: _Block, start: np.ndarray):
        self.block, self.start = block, start
        self.key = start.tobytes()
        carried = block.squarings
        self.levels = (carried[1] if carried is not None and carried[0] == self.key
                       else ())
        self.power = None  # M_k @ M_k, then M_(k+1), once this solve squares

    def _replay(self, k: int) -> np.ndarray:
        """M_k @ M_k, from M_0 and the first k carried tops."""
        m = self.block.matrix
        for _, top, _ in self.levels[:k]:
            m = _square(m)
            m /= top
        return _square(m)

    def square(self, k: int):
        """The largest entry of M_k @ M_k: read while level k holds."""
        if self.power is not None:
            self.power = _square(self.power)
        elif k < len(self.levels):
            return self.levels[k][0]
        else:
            self.power = self._replay(k)
        self.raw = self.power.max()
        return self.raw

    def scale(self, k: int, top) -> np.ndarray:
        """M_(k+1) @ start, for M_(k+1) = M_k @ M_k / top."""
        if self.power is None:
            raw, carried, image = self.levels[k]
            if carried == top:
                return image
            self.power, self.raw = self._replay(k), raw
        self.power /= top
        image = (self.power @ self.start).ravel()
        image.setflags(write=False)
        self.levels = self.levels[:k] + ((self.raw, top, image),)
        self.block.squarings = (self.key, self.levels)
        return image


def _dominant_direction(C: InteractionMatrix, x0: np.ndarray) -> np.ndarray:
    """Limit direction of exp(tC) x0 by repeated squaring of I + C.

    I + C has the strictly dominant eigenvalue 1 + rho(C), with the same
    leading invariant subspace as the exponential, so normalised powers
    applied to x0 converge to the flow's limit even when the leading
    eigenvalue is defective (where the decay is only ~t^-1 in real time
    but halves per squaring here). After the residual ``TOL`` is met,
    extra squarings run, up to 32, while a component near the support
    threshold still falls below ``STALL`` times its previous value, so
    the zero set is classified cleanly.

    I + C is block-diagonal over the weak components of C, and so is
    every power of it. A graph of up to ``_ONE_BLOCK`` vertices is
    squared whole. On a larger one, each component with an undirected
    cycle (every component with a directed one among them) is a dense
    block of I + C, cut from the edge list (``_induced``) and squared.
    The blocks and the trees' vertices are read from C's ``_Record``:
    ``_Record.form`` fills it on first use unless it was formed from the
    record of the graph C was redrawn from.

    On the trees C is nilpotent, N with N^(L+1) = 0, and the iterate is
    p(N) for a polynomial p of degree L: 1 + z at first, and each
    squaring sets p <- (p * p truncated at degree L) / top. So that part
    of M x0 is sum_i p[i] N^i x0: one convolution and one small matvec
    per squaring, over the Krylov rows N^i x0 (``_krylov``) formed once.
    In a tree two vertices are joined by at most one path, so the
    largest entry of a tree's block is the largest coefficient of p.
    The divisor top, the largest of the blocks' maxima and p's, is then
    the dense squaring's, up to the order of summation. With no tree p
    is [1], an isolated vertex's entry, which never exceeds a block's
    diagonal. A squaring costs O(sum s^3) over the blocks, plus
    O(L^2 + L n) for the n tree vertices, instead of O(d^3); each
    residual sums C y over the edge list (``_arc_residual``).

    A block a redraw left alone is the same ``_Block`` in the new graph's
    record, and it carries the squarings the last solve made of it: the
    start's bits and, per squaring, the power's largest entry, the
    divisor top and the normalised power applied to the start, O(s)
    floats a level and no s x s matrix. A level is read, not squared,
    while the start's bits and every earlier top match this solve's; at
    the first mismatch, or past the carried levels, the block's power is
    rebuilt by replaying the carried tops and squared from there on
    (``_Powers``). So the bits are a fresh squaring's, and no block is
    squared more often than with nothing carried.
    """
    d = C.d
    # square(k), the k-th squaring, sets M <- M^2 / top and returns M x0
    if d <= _ONE_BLOCK:  # one block, held as a plain matrix
        m = np.eye(d)
        m[C.arcs] = 1.0

        def square(k):
            nonlocal m
            m = _square(m)
            m /= m.max()
            return m @ x0
    else:
        record = C._record
        if record.labels is None:
            _Record.form(C)
        trees = record.trees
        krylov = _krylov(*_induced(C, trees), x0[trees])
        powers = [_Powers(block, x0[block.verts][:, None])
                  for block in record.blocks.values()]
        poly = np.zeros(len(krylov))
        poly[:2] = 1.0  # I + N

        def square(k):
            nonlocal poly
            maxima = [p.square(k) for p in powers]
            poly = np.convolve(poly, poly)[:len(krylov)]
            top = max(maxima + [poly.max()])
            poly /= top
            y = np.empty(d)
            for p in powers:
                y[p.block.verts] = p.scale(k, top)
            y[trees] = poly @ krylov
            return y

    # defective leading eigenvalues leave slowly decaying components that
    # shrink only ~2x per squaring; keep going while one in the ambiguous
    # band around the support threshold still shrinks. A stalled one is a
    # Perron entry, of which a support of ~1000 vertices has many.
    band_lo, band_hi = ZERO_TOL * 1e-3, 1e-4
    polish_left = 32
    prev = None
    for k in range(MAX_DOUBLINGS):
        y = square(k)
        y /= y.sum()
        residual = _arc_residual(C, y)
        if residual <= TOL:
            moving = (y > band_lo) & (y < band_hi)
            if prev is not None:
                moving &= y < STALL * prev
            if not moving.any() or polish_left == 0:
                return y
            polish_left -= 1
        prev = y
    raise NonConvergenceError(
        f"projective iteration residual {residual:.3e} > {TOL}")


def _flow_limit(C: InteractionMatrix, start: np.ndarray) -> np.ndarray:
    """Limit direction of exp(tC) start, solved where the flow can go.

    The flow never leaves the vertices reachable from supp(start), so a
    start with zeros is solved on that subgraph alone: the squaring on
    the whole graph would take its scale from a faster-growing block the
    start never reaches and underflow the blocks it does reach to 0/0.
    The powers of ``_nilpotent_limit`` pick the squaring or their own
    limit: no separate cycle test is made. They are skipped where C's
    cycle certificate lies among the vertices solved on: the start then
    reaches the certificate's cycle, so no power of C vanishes on it and
    the limit is the squaring's. A certificate the powers find is
    recorded on C.
    """
    live, sub, cycle = slice(None), C, C._record.cycle
    if not start.all():
        reach = _reachable_from(C, np.flatnonzero(start))
        live = np.flatnonzero(reach)
        if live.size == 1:  # a start on one sink is already stationary
            return start
        if cycle is not None and not reach[cycle].all():
            cycle = None
        sub = InteractionMatrix._from_arcs(*_induced(C, live))
    x = np.zeros(C.d)
    limit = None if cycle is not None else _nilpotent_limit(sub, start[live])
    x[live] = _dominant_direction(sub, start[live]) if limit is None else limit
    if sub is not C and sub._record.cycle is not None:
        C._record.cycle = live[sub._record.cycle]
    return x


def _classify(lam: float, x: np.ndarray, has_edges: bool):
    """Support, zero set and kind of an equilibrium x with |C x|_1 = lam."""
    support = np.flatnonzero(x > ZERO_TOL)
    zero_set = np.flatnonzero(x <= ZERO_TOL)
    if not has_edges:
        kind = KIND_DEGENERATE
    elif lam >= 0.5:
        kind = KIND_ACS
    else:
        kind = KIND_TERMINAL
    return support, zero_set, kind


def equilibrium(C: InteractionMatrix, x0=None,
                analytic: bool = False) -> EquilibriumResult:
    """Equilibrium of the simplex flow for the given graph.

    Default mode returns the limit of the flow started at ``x0``
    (uniform when omitted), computed through the linear cone system.
    ``analytic=True`` instead answers from the structure alone: the
    equal-weight combination of ``equilibrium_set_basis``, flagged
    ``non_unique`` when that set has more than one generator. It reads
    no start, so an ``x0`` beside it is refused.
    For the zero matrix every state is stationary and x0 itself is
    returned with kind ``degenerate_no_edges``.
    """
    has_edges = C.edge_count() > 0
    non_unique = False

    if analytic:
        if x0 is not None:
            raise ValueError("analytic=True answers from the graph alone: "
                             "give no x0, or drop analytic for the flow limit")
        basis = equilibrium_set_basis(C)
        x = np.mean(basis.vectors, axis=0)
        if basis.kind == KIND_ACS:
            # the other bases are unit vectors, whose mean is exactly 1/n
            # on n vertices; rescaling it would round for n = 6, 7, 14, ...
            x /= x.sum()
        non_unique = basis.non_unique
    else:
        x = uniform_state(C.d) if x0 is None else _start(C, x0)
        if has_edges:
            x = _flow_limit(C, x)
        else:
            non_unique = x0 is None

    # the analytic residual stays dense: recorded outputs hold its bits,
    # which a sum in another order would move
    cx = C.as_float() @ x if analytic else _arc_product(C, x)
    residual = float(np.abs(cx - cx.sum() * x).sum())
    if residual > RESIDUAL_FLOOR:
        raise NonConvergenceError(
            f"equilibrium residual {residual:.3e} > {RESIDUAL_FLOOR}")
    lam = float(cx.sum())
    support, zero_set, kind = _classify(lam, x, has_edges)
    return EquilibriumResult(x_star=x, residual=residual, support=support,
                             zero_set=zero_set, kind=kind, non_unique=non_unique,
                             lam=lam)


def equilibrium_set_basis(C: InteractionMatrix) -> EquilibriumSetBasis:
    """Generators of the attracting equilibrium set X_*.

    Cyclic graph: the non-negative unit-1-norm basis of the leading
    eigenspace. Acyclic with edges: the unit vectors e_j of terminal
    vertices with maximal input count p(j). Zero matrix: all unit
    vectors (the whole simplex is stationary). Every convex combination
    of the returned vectors is itself an equilibrium; spot combinations
    are verified against ``RESIDUAL_FLOOR`` before returning.
    """
    if C.edge_count() == 0:  # no check to run: C x = 0 for every x
        return EquilibriumSetBasis(kind=KIND_DEGENERATE,
                                   vectors=tuple(np.eye(C.d)), non_unique=True)
    vectors = spectral_radius_pf(C).pf_basis  # empty iff C is acyclic
    if vectors:
        kind = KIND_ACS
    else:
        # a vertex with an out-edge has fewer ancestors than its target,
        # so every vertex of maximal count is terminal
        pc = path_counts(C)
        best = np.flatnonzero(pc == pc.max())
        vectors = tuple((best[:, None] == np.arange(C.d)).astype(np.float64))
        kind = KIND_TERMINAL

    checks = [np.mean(vectors, axis=0), *vectors, 0.5 * (vectors[0] + vectors[-1])]
    if any(_arc_residual(C, x / x.sum()) > RESIDUAL_FLOOR for x in checks):
        raise NonConvergenceError(
            "combination of basis vectors fails the equilibrium check")
    return EquilibriumSetBasis(kind=kind, vectors=vectors,
                               non_unique=len(vectors) > 1)


# ---------------------------------------------------------------------------
# Power-weighted observables
# ---------------------------------------------------------------------------

def andi_residual(C: InteractionMatrix, trajectory: Trajectory, n: int) -> float:
    """max |dr_n/dt - (r_{n+1} - r_n r_1)| via central differences.

    r_n = sum_j (C^n x)_j are the power-weighted observables. Along any
    solution they satisfy the closed hierarchy r_n' = r_{n+1} - r_n r_1,
    which ties the cycle structure of the graph to the vertex dynamics.
    The trajectory must be uniformly sampled, with spacing h; the
    finite-difference error is O(h^2), which halving h shrinks fourfold.
    """
    if not isinstance(n, numbers.Integral) or n < 1:  # numpy integers pass
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    times = trajectory.times
    if times.size < 3:
        raise ValueError("need at least 3 samples")
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h, rtol=1e-8, atol=1e-12):
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

def _csv_header(d: int) -> str:
    return "t," + ",".join(f"x_{j}" for j in range(d)) + ",residual\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """The trajectory as CSV text: columns t, x_0 ... x_{d-1} and the
    residual, each value the ``repr`` of its float, so the text reads
    back to the same bits."""
    states = np.asarray(traj.states, dtype=float)
    times = np.asarray(traj.times, dtype=float)
    residuals = np.asarray(traj.residuals, dtype=float)
    step = max(1, _CSV_BLOCK // (states.shape[1] + 2))
    return _csv_header(states.shape[1]) + "".join(
        csv_block(np.column_stack([times[i:i + step], states[i:i + step],
                                    residuals[i:i + step]]))
        for i in range(0, len(times), step))


def equilibrium_to_json_dict(eq: EquilibriumResult) -> dict:
    return {
        "x_star": [float(v) for v in eq.x_star],
        "residual": float(eq.residual),
        "support": [int(v) for v in eq.support],
        "kind": eq.kind,
        "non_unique": bool(eq.non_unique),
    }

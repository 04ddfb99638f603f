"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: reachability by
Floyd-Warshall, cycles by explicit path enumeration, spectral radii by
dense eigensolves, the vector field by a double loop, the flow limit by
squaring the whole dense I + C, or its blocks cut from a dense copy,
with dense products throughout; the RK4 flow recorded into lists, and
its CSV joined from row strings. Each oracle pairs with a production
routine in a dual-route test. Some keep a replaced production form
whole, so that the new one can be held to its bits: the flow limit
decided by Kahn's peel before the squaring or the power loop, the
vertex resample on a dense copy and the one that indexes with
``np.delete``, the Erdos-Renyi draw in one call, and the analytic
equilibrium set read from dense float copies of C.
"""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from jknet.dynamics import (
    KIND_ACS,
    KIND_TERMINAL,
    STALL,
    EquilibriumSetBasis,
    _ONE_BLOCK,
    _arc_product,
    _dominant_direction,
    _field,
    _residual,
    simplex_vector,
)
from jknet.graph import (
    PF_ATOL,
    PF_MAX_ITER,
    RESIDUAL_FLOOR,
    TOL,
    InteractionMatrix,
    NonConvergenceError,
    SpectralData,
    _pf_vector_irreducible,
    _reachable_from,
    has_directed_cycle,
    path_counts,
    strongly_connected_components,
    terminal_vertices,
)


def floyd_warshall_reachability(entries: np.ndarray) -> np.ndarray:
    """reach[u, v] True iff a directed path u -> v exists (length >= 1)."""
    d = entries.shape[0]
    reach = (entries.T > 0).copy()  # entries[i, j] means j -> i
    for k in range(d):
        for u in range(d):
            if reach[u, k]:
                reach[u] |= reach[k]
    return reach


def brute_force_directed_cycle(entries: np.ndarray) -> bool:
    reach = floyd_warshall_reachability(entries)
    return bool(np.diagonal(reach).any())


def brute_force_path_counts(entries: np.ndarray) -> np.ndarray:
    """Ancestor counts via summed boolean powers of the matrix."""
    d = entries.shape[0]
    a = entries.astype(np.int64)
    total = np.zeros((d, d), dtype=bool)
    power = a.copy()
    for _ in range(d):
        total |= power > 0
        power = power @ a
    return total.sum(axis=1)


def brute_force_undirected_cycle(entries: np.ndarray) -> bool:
    """Simple-graph cycle detection by path enumeration."""
    d = entries.shape[0]
    und = (entries | entries.T) > 0
    edges = [(u, v) for u in range(d) for v in range(u + 1, d) if und[u, v]]
    # a simple graph has a cycle iff some connected component has
    # at least as many edges as vertices
    seen = set()
    adj = [[] for _ in range(d)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for root in range(d):
        if root in seen:
            continue
        comp = {root}
        todo = [root]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    todo.append(y)
        seen |= comp
        n_edges = sum(1 for u, v in edges if u in comp)
        if n_edges >= len(comp):
            return True
    return False


def brute_force_sccs(entries: np.ndarray) -> set:
    """SCC partition from pairwise reachability."""
    d = entries.shape[0]
    reach = floyd_warshall_reachability(entries)
    comps = []
    assigned = [False] * d
    for v in range(d):
        if assigned[v]:
            continue
        comp = [u for u in range(d)
                if u == v or (reach[v, u] and reach[u, v])]
        for u in comp:
            assigned[u] = True
        comps.append(tuple(sorted(comp)))
    return set(comps)


def dense_spectral_radius(entries: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(entries.astype(float))).max())


def naive_vector_field(entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = entries.shape[0]
    cx = np.zeros(d)
    for i in range(d):
        for j in range(d):
            cx[i] += entries[i, j] * x[j]
    out = np.zeros(d)
    total = sum(cx)
    for i in range(d):
        out[i] = cx[i] - x[i] * total
    return out


def brute_force_is_acs(entries: np.ndarray, subset) -> bool:
    subset = set(subset)
    for i in subset:
        if not any(entries[i, j] for j in subset if j != i):
            return False
    return True


def brute_force_count_cycles(adj: list, k: int) -> int:
    """Count k-cycles by checking every k-subset and cyclic order.

    With the anchor fixed at the subset's first vertex, each undirected
    cycle on the subset corresponds to exactly two permutations (the two
    traversal directions), hence the division by 2.
    """
    d = len(adj)
    count = 0
    for verts in combinations(range(d), k):
        hits = 0
        for perm in permutations(verts[1:]):
            order = (verts[0],) + perm
            if all(order[(i + 1) % k] in adj[order[i]] for i in range(k)):
                hits += 1
        assert hits % 2 == 0
        count += hits // 2
    return count


def dfs_has_cycle_undirected_multigraph(edge_list: list, d: int) -> bool:
    """Cycle check for a multigraph edge list (self-loops and repeats count)."""
    seen_pairs = set()
    adj = [[] for _ in range(d)]
    for (u, v) in edge_list:
        if u == v:
            return True
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            return True
        seen_pairs.add(key)
        adj[u].append(v)
        adj[v].append(u)
    visited = [False] * d
    for root in range(d):
        if visited[root]:
            continue
        visited[root] = True
        todo = [(root, -1)]
        while todo:
            x, parent = todo.pop()
            for y in adj[x]:
                if not visited[y]:
                    visited[y] = True
                    todo.append((y, x))
                elif y != parent:
                    return True
    return False


def dense_nilpotent_limit(a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Last nonzero C^n x0, normalised, with dense products."""
    best = x0 / x0.sum()
    for _ in range(a.shape[0]):
        nxt = a @ best
        s = nxt.sum()
        if s <= 0.0:
            break
        best = nxt / s
    return best


def dense_reachable_from(entries: np.ndarray, sources) -> np.ndarray:
    """Vertices reachable from ``sources``, by BFS over dense columns."""
    seen = np.zeros(entries.shape[0], dtype=bool)
    seen[np.asarray(sources, dtype=np.intp)] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = entries[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return seen


def dense_block_stacks(a: np.ndarray, groups) -> list:
    """Blocks of I + C cut from a dense (d+1)^2 matrix, padding row d zero."""
    d = a.shape[0]
    one = np.zeros((d + 1, d + 1))
    one[:d, :d] = a
    one.flat[:d * (d + 2):d + 2] = 1.0
    return [one[idx[:, :, None], idx[:, None, :]] for idx in groups]


def dense_component_labels(entries: np.ndarray) -> np.ndarray:
    """Label every vertex with the smallest vertex of its weak component,
    by min-label sweeps: each vertex takes the least label among itself
    and its neighbours either way, over the arcs the dense matrix holds,
    until no label changes."""
    rows, cols = np.nonzero(entries)
    ends, others = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(entries.shape[0])
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, ends, label[others])
        if (nxt == label).all():
            return label
        label = nxt


def every_block_layout(entries: np.ndarray):
    """One (1, s) block per weak component of the graph, trees too, as
    the squaring covered them all before trees were followed as
    polynomials, in the order of their smallest vertex; None (one block)
    up to ``_ONE_BLOCK`` vertices."""
    d = entries.shape[0]
    if d <= _ONE_BLOCK:
        return None
    label = dense_component_labels(entries)
    return [np.flatnonzero(label == r)[None, :]
            for r in np.flatnonzero(label == np.arange(d))]


def relative_pf_vector(block: np.ndarray):
    """Perron vector and radius by power iteration on block + I, stopped
    at the purely relative residual TOL * max(1, lam): the stop the
    library used before it capped the residual at an absolute 1e-9."""
    n = block.shape[0]
    shifted = block + np.eye(n)
    v = np.full(n, 1.0 / n)
    for _ in range(PF_MAX_ITER):
        w = shifted @ v
        v = w / w.sum()
        bv = block @ v
        lam = bv.sum()
        if np.abs(bv - lam * v).sum() <= TOL * max(1.0, lam):
            return lam, v
    raise NonConvergenceError("Perron iteration did not converge")


def dense_dominant_direction(a: np.ndarray, x0: np.ndarray, tol: float,
                             zero_tol: float, max_doublings: int,
                             groups=None) -> np.ndarray:
    """Limit direction of exp(tC) x0 by repeated squaring of I + C.

    I + C has the strictly dominant eigenvalue 1 + rho(C), with the same
    leading invariant subspace as the exponential, so normalised powers
    applied to x0 converge to the flow's limit even when the leading
    eigenvalue is defective (where the decay is only ~t^-1 in real time
    but halves per squaring here). After the residual tolerance is met,
    extra squarings run, up to 32, while a component near the support
    threshold still shrinks, so the zero set is classified cleanly.

    With ``groups``, a block layout, only those blocks are squared, cut
    from a dense I + C, all divided by one global maximum; without, the
    whole dense I + C is. Every residual is a dense product.
    """
    d = a.shape[0]
    if groups is None:
        blocks, starts, pos = [np.eye(d) + a], [x0], slice(None)
    else:
        pos = np.argsort(np.concatenate([idx.ravel() for idx in groups]),
                         kind="stable")[:d]
        blocks = dense_block_stacks(a, groups)
        x_pad = np.concatenate([x0, [0.0]])
        starts = [x_pad[idx][:, :, None] for idx in groups]
    # defective leading eigenvalues leave slowly decaying components that
    # shrink only ~2x per squaring; keep going while one in the ambiguous
    # band around the support threshold still falls below STALL times
    # its value at the squaring before
    band_lo, band_hi = zero_tol * 1e-3, 1e-4
    polish_left = 32
    prev = None
    for _ in range(max_doublings):
        blocks = [m @ m for m in blocks]
        top = max([m.max() for m in blocks])
        for m in blocks:
            m /= top
        y = np.concatenate([(m @ start).ravel()
                            for m, start in zip(blocks, starts)])[pos]
        y = y / y.sum()
        if _residual(a, y) <= tol:
            moving = (y > band_lo) & (y < band_hi)
            if prev is not None:
                moving &= y < STALL * prev
            if not moving.any() or polish_left == 0:
                return y
            polish_left -= 1
        prev = y
    raise NonConvergenceError(
        f"projective iteration residual {_residual(a, y):.3e} > tol={tol}")


def dense_is_cyclic(entries: np.ndarray) -> bool:
    """Kahn's peel over dense column sums: True iff some vertex survives."""
    indeg = entries.sum(axis=1, dtype=np.int64)
    alive = np.ones(entries.shape[0], dtype=bool)
    layer = np.flatnonzero(indeg == 0)
    while layer.size:
        alive[layer] = False
        indeg -= entries[:, layer].sum(axis=1, dtype=np.int64)
        layer = np.flatnonzero(alive & (indeg == 0))
    return bool(alive.any())


def arc_nilpotent_limit(C, x0: np.ndarray) -> np.ndarray:
    """Last nonzero C^n x0, normalised, for an acyclic C: the power loop
    run until the power vanishes, with C x summed over the edge list."""
    best = x0 / x0.sum()
    for _ in range(C.d):
        nxt = _arc_product(C, best)
        s = nxt.sum()
        if s <= 0.0:
            break
        best = nxt / s
    return best


def peeled_flow_limit(C, start: np.ndarray) -> np.ndarray:
    """The flow limit with the cycle test made apart from the power loop.

    The subgraph reachable from supp(start) (by dense BFS) is tested by
    Kahn's peel (``dense_is_cyclic``); a cyclic one goes to the
    library's squaring, an acyclic one to ``arc_nilpotent_limit``.
    """
    live, sub = slice(None), C
    if not start.all():
        live = np.flatnonzero(dense_reachable_from(C.entries, np.flatnonzero(start)))
        if live.size == 1:
            return start
        sub = InteractionMatrix(C.entries[np.ix_(live, live)])
    x = np.zeros(C.d)
    if dense_is_cyclic(sub.entries):
        x[live] = _dominant_direction(sub, start[live])
    else:
        x[live] = arc_nilpotent_limit(sub, start[live])
    return x


def dense_resample_vertex(C, j: int, p: float, rng) -> InteractionMatrix:
    """The redraw on a dense int8 copy: row j, then column j, written as
    two slices each; C itself when they come out as they were."""
    d = C.d
    if not 0 <= j < d:
        raise IndexError(f"vertex {j} out of range for d={d}")
    a = np.array(C.entries, dtype=np.int8)
    row = rng.random(d - 1) < p  # row j, then column j, each without c[j, j]
    a[j, :j], a[j, j + 1:] = row[:j], row[j:]
    col = rng.random(d - 1) < p
    a[:j, j], a[j + 1:, j] = col[:j], col[j:]
    if (a[j] == C.entries[j]).all() and (a[:, j] == C.entries[:, j]).all():
        return C
    return InteractionMatrix(a)


def one_call_er_digraph(params, rng) -> InteractionMatrix:
    """The Erdos-Renyi digraph from one ``rng.random((d, d))`` call on a
    dense array, its diagonal cleared."""
    a = rng.random((params.d, params.d)) < params.p
    np.fill_diagonal(a, False)
    return InteractionMatrix(a.astype(np.int8))


def delete_resample_vertex(C, j: int, p: float, rng) -> InteractionMatrix:
    """Row j, then column j, redrawn through the index array that
    ``np.delete`` leaves without j, in one fancy-indexed write each."""
    d = C.d
    a = np.array(C.entries, dtype=np.int8)
    others = np.delete(np.arange(d), j)
    a[j, others] = rng.random(d - 1) < p
    a[others, j] = rng.random(d - 1) < p
    return InteractionMatrix(a)


def dense_flow_equilibrium(entries: np.ndarray, x0, tol: float,
                           zero_tol: float, max_doublings: int, layout):
    """The flow-limit equilibrium on dense float copies: (x, lam, residual).

    Reachability, the cycle test, the nilpotent limit, the blocks of
    I + C and every C x are dense. ``layout(sub_entries)`` gives the
    block layout of the reachable subgraph (None for one block).
    """
    d = entries.shape[0]
    if x0 is None:
        start = np.full(d, 1.0 / d)
    else:  # renormalised, as simplex_vector does
        start = np.asarray(x0, dtype=float) / np.sum(x0)
    x = start
    if entries.any():
        live = np.arange(d)
        if not start.all():
            live = np.flatnonzero(
                dense_reachable_from(entries, np.flatnonzero(start)))
        if live.size > 1:
            sub = np.ascontiguousarray(entries[np.ix_(live, live)])
            a = sub.astype(float)
            x = np.zeros(d)
            if dense_is_cyclic(sub):
                x[live] = dense_dominant_direction(a, start[live], tol, zero_tol,
                                                   max_doublings, layout(sub))
            else:
                x[live] = dense_nilpotent_limit(a, start[live])
    a = entries.astype(float)
    return x, float((a @ x).sum()), _residual(a, x)


def list_integrate(C, x0, t_end: float, h: float = 0.01, adaptive: bool = False,
                   tol: float = 1e-9, stop_residual: float | None = None):
    """The RK4 simplex flow recorded into lists, one state copy per row.

    It evaluates the field five times per fixed step, f(x) once more for
    each residual, and copies the lists into arrays at the end. Returns
    (times, states, residuals, mass_drift_rate, min_component).
    """
    a = C.as_float()

    def field(x):
        return _field(a, x)

    def rk4(x, dt):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x = simplex_vector(x0)
    times, states, residuals = [0.0], [x.copy()], [_residual(a, x)]
    max_drift_rate = 0.0
    min_component = float(x.min())

    def accept(x_new, dt):
        nonlocal max_drift_rate, min_component
        max_drift_rate = max(max_drift_rate, abs(x_new.sum() - 1.0) / dt)
        mc = float(x_new.min())
        min_component = min(min_component, mc)
        if mc < -1e-9:
            raise FloatingPointError(f"component undershoot {mc:.3e}")
        x_new = np.clip(x_new, 0.0, None)
        return x_new / x_new.sum()

    t = 0.0
    h_cur = min(h, t_end) if t_end > 0 else h
    if h_cur <= 0:
        raise ValueError("step size underflow")
    while t < t_end - 1e-12:
        h_step = min(h_cur, t_end - t)
        if not adaptive:
            x = accept(rk4(x, h_step), h_step)
            t += h_step
        else:
            full = rk4(x, h_step)
            half = rk4(rk4(x, h_step / 2), h_step / 2)
            err = np.abs(full - half).sum() / 15.0
            if err > tol and h_step > 1e-8:
                h_cur = h_step / 2
                continue
            x = accept(half, h_step)
            t += h_step
            if err < tol / 32.0:
                h_cur = min(h_step * 2, h)
        times.append(t)
        states.append(x.copy())
        residuals.append(_residual(a, x))
        if stop_residual is not None and residuals[-1] < stop_residual:
            break
    return (np.array(times), np.array(states), np.array(residuals),
            max_drift_rate, min_component)


def joined_trajectory_csv(times, states, residuals) -> str:
    """The trajectory CSV built as one list of row strings, then joined."""
    d = states.shape[1]
    header = "t," + ",".join(f"x_{j}" for j in range(d)) + ",residual"
    lines = [header]
    for t, row, res in zip(times, states, residuals):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(v)) for v in row]
                              + [repr(float(res))]))
    return "\n".join(lines) + "\n"


def list_integrate_projective(C, y0, phi: float = -1.0, t_end: float = 50.0,
                              h: float = 0.01):
    """The RK4 cone system y' = (C - phi I) y on its own step-count grid.

    ``n = ceil(t_end / h - 1e-12)`` steps of h, the last cut to end at
    t_end, each renormalised and recorded into lists with the simplex
    flow's residual. Returns (times, states, residuals).
    """
    a = C.as_float()
    m = a - phi * np.eye(C.d)

    def rk4(y, dt):
        k1 = m @ y
        k2 = m @ (y + 0.5 * dt * k1)
        k3 = m @ (y + 0.5 * dt * k2)
        k4 = m @ (y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.asarray(y0, dtype=float)
    y = y / y.sum()
    times, states, residuals = [0.0], [y.copy()], [_residual(a, y)]
    for step in range(1, int(np.ceil(t_end / h - 1e-12)) + 1):
        y = rk4(y, min(h, t_end - (step - 1) * h))
        mass = y.sum()
        if not (np.isfinite(mass) and mass > 1e-300):
            raise NonConvergenceError(f"cone mass {mass:.3e} collapsed or overflowed")
        y = np.clip(y, 0.0, None)
        y /= y.sum()
        times.append(min(step * h, t_end))
        states.append(y.copy())
        residuals.append(_residual(a, y))
    return np.array(times), np.array(states), np.array(residuals)


def dense_spectral_radius_pf(C) -> SpectralData:
    """``spectral_radius_pf`` with its Perron blocks, the downstream
    blocks and the residual check all cut from one dense float copy."""
    nontrivial = [c for c in strongly_connected_components(C) if len(c) > 1]
    if not nontrivial:
        return SpectralData(lam=0.0, pf_basis=(), multiplicity=0)
    a = C.as_float()
    radii, vectors = zip(*(_pf_vector_irreducible(a[np.ix_(comp, comp)])
                           for comp in nontrivial))
    rho = max(radii)
    basic = [i for i, lam_b in enumerate(radii) if lam_b >= rho - PF_ATOL]
    basis = []
    for i in basic:
        comp = nontrivial[i]
        reach = _reachable_from(C, comp)
        if any(reach[list(nontrivial[j])].any() for j in basic if j != i):
            continue
        reach[list(comp)] = False
        downstream = np.flatnonzero(reach)
        v = np.zeros(C.d)
        v[list(comp)] = vectors[i]
        if downstream.size:
            sub = a[np.ix_(downstream, downstream)]
            cross = a[np.ix_(downstream, list(comp))]
            sol = np.linalg.solve(rho * np.eye(len(downstream)) - sub,
                                  cross @ vectors[i])
            v[downstream] = np.clip(sol, 0.0, None)
        v /= v.sum()
        if np.abs(a @ v - rho * v).sum() > PF_ATOL:
            raise NonConvergenceError("eigenvector residual exceeds tolerance")
        basis.append(v)
    return SpectralData(lam=float(rho), pf_basis=tuple(basis),
                        multiplicity=len(basis))


def dense_equilibrium_set_basis(C) -> EquilibriumSetBasis:
    """``equilibrium_set_basis`` for a graph with edges, on dense forms:
    the acyclic argmax taken over ``terminal_vertices`` alone, unit
    vectors cut from a d x d identity, and every check a row of one
    ``checks @ a.T`` product."""
    a = C.as_float()
    if has_directed_cycle(C):
        vectors, kind = dense_spectral_radius_pf(C).pf_basis, KIND_ACS
    else:
        pc = path_counts(C)
        term = terminal_vertices(C)
        best = term[pc[term] == pc[term].max()]
        vectors, kind = tuple(np.eye(C.d)[best]), KIND_TERMINAL
    checks = np.array([np.mean(vectors, axis=0), *vectors,
                       0.5 * (vectors[0] + vectors[-1])])
    checks /= checks.sum(axis=1, keepdims=True)
    cx = checks @ a.T
    if (np.abs(cx - cx.sum(axis=1, keepdims=True) * checks).sum(axis=1)
            > RESIDUAL_FLOOR).any():
        raise NonConvergenceError(
            "combination of basis vectors fails the equilibrium check")
    return EquilibriumSetBasis(kind=kind, vectors=vectors,
                               non_unique=len(vectors) > 1)

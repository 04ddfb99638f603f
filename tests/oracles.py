"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: reachability by
Floyd-Warshall, cycles by explicit path enumeration, spectral radii by
dense eigensolves, the vector field by a double loop, the flow limit by
squaring the whole dense I + C. Each oracle pairs
with a production routine in a dual-route test.
"""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from jknet.dynamics import _residual
from jknet.graph import NonConvergenceError


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


def dense_dominant_direction(a: np.ndarray, x0: np.ndarray, tol: float,
                             zero_tol: float, max_doublings: int) -> np.ndarray:
    """Limit direction of exp(tC) x0 by repeated squaring of I + C.

    I + C has the strictly dominant eigenvalue 1 + rho(C), with the same
    leading invariant subspace as the exponential, so normalised powers
    applied to x0 converge to the flow's limit even when the leading
    eigenvalue is defective (where the decay is only ~t^-1 in real time
    but halves per squaring here). After the residual tolerance is met,
    extra squarings run until no component is stranded near the support
    threshold, so the zero set is classified cleanly.
    """
    d = a.shape[0]
    m = np.eye(d) + a
    y = x0 / x0.sum()
    # defective leading eigenvalues leave slowly decaying components that
    # shrink only ~2x per squaring; keep going until none is stranded in
    # the ambiguous band around the support threshold
    band_lo, band_hi = zero_tol * 1e-3, 1e-4
    polish_left = 32
    for _ in range(max_doublings):
        m = m @ m
        m /= m.max()
        y = m @ x0
        y /= y.sum()
        if _residual(a, y) <= tol:
            in_band = bool(((y > band_lo) & (y < band_hi)).any())
            if not in_band or polish_left == 0:
                return y
            polish_left -= 1
    raise NonConvergenceError(
        f"projective iteration residual {_residual(a, y):.3e} > tol={tol}")

"""Directed interaction graphs: sampling, cycle structure, spectral analysis.

Convention used everywhere: entry ``c[i, j] = 1`` encodes the edge j -> i
(species j catalyses species i), i.e. the stored matrix is the transpose of
the usual adjacency matrix. File formats list edges as ``src dst`` and the
loader transposes, so on disk the orientation reads naturally.

All functions are pure: they never change the graph an input holds and
take explicit RNG streams, so they are safe to call concurrently. A
matrix holds its edge list ``arcs`` and only caches facts derived from
it (``entries`` and its ``_Record``), each the same whoever computes it
first.
"""
from __future__ import annotations

import numbers
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NonConvergenceError",
    "InteractionMatrix",
    "ModelParams",
    "SpectralData",
    "sample_er_digraph",
    "resample_vertex",
    "has_directed_cycle",
    "has_undirected_cycle",
    "strongly_connected_components",
    "is_acs",
    "terminal_vertices",
    "path_counts",
    "spectral_radius_pf",
    "parse_interaction_matrix",
    "load_interaction_matrix",
    "dump_edge_list",
]

TOL = 1e-10  # the residual every solver stops at
RESIDUAL_FLOOR = 1e-9  # the largest residual an equilibrium check passes
PF_ATOL = 1e-8  # radii this close tie; a basis vector's residual must stay below it
PF_MAX_ITER = 100_000  # power iterations before a Perron vector solve gives up


class NonConvergenceError(RuntimeError):
    """An iterative solve exceeded its iteration budget."""


class InteractionMatrix:
    """Binary d x d interaction matrix with zero diagonal.

    ``entries[i, j] = 1`` means there is an edge from vertex j to vertex i.
    The matrix is held as its edge list ``arcs``: two read-only index
    arrays ``(dst, src)``, sorted by dst then src. ``InteractionMatrix(
    entries)`` validates the array (``__post_init__``) and keeps only its
    arcs. The library's own graph steps build their results with
    ``_from_arcs`` from edge lists they have formed themselves, unchecked.
    Either way ``entries`` is formed from ``arcs`` when first read, and
    the matrix is immutable. ``_record`` holds what the flow-limit solver
    has worked out about it (``_Record``).
    """

    def __init__(self, entries):
        self.__dict__["entries"] = entries
        self.__post_init__()

    def __post_init__(self):
        a = np.asarray(self.__dict__.pop("entries"))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if a.shape[0] < 2:
            raise ValueError("need at least 2 vertices")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("entries must be 0 or 1")
        if np.diagonal(a).any():
            raise ValueError("diagonal must be zero (self-loops not allowed)")
        d = a.shape[0]
        # flatnonzero of a bool array is several times faster than on int8
        self._hold(d, *np.divmod(np.flatnonzero(a != 0), d), _Record())

    @classmethod
    def _from_arcs(cls, d: int, dst: np.ndarray, src: np.ndarray,
                   record: "_Record | None" = None) -> "InteractionMatrix":
        """The matrix on d vertices with the edges ``(dst, src)``, unchecked.

        The caller vouches for the edges: in range, no self-loop, no
        repeat, sorted by dst then src (the order ``arcs`` has), and for
        ``record``, which no other matrix may hold (a fresh one if None).
        """
        m = object.__new__(cls)
        m._hold(d, dst, src, _Record() if record is None else record)
        return m

    def _hold(self, d: int, dst: np.ndarray, src: np.ndarray,
              record: "_Record") -> None:
        """Store d, the edges ``(dst, src)``, made read-only, and ``record``."""
        for half in (dst, src):
            half.setflags(write=False)
        self.__dict__.update(d=d, arcs=(dst, src), _record=record)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"InteractionMatrix(d={self.d}, edges={self.edge_count()})"

    @cached_property
    def entries(self) -> np.ndarray:
        """The read-only int8 matrix, formed from ``arcs`` on first read."""
        a = np.zeros((self.d, self.d), dtype=np.int8)
        a[self.arcs] = 1
        a.setflags(write=False)
        return a

    def as_float(self) -> np.ndarray:
        return self.entries.astype(np.float64)

    def edge_count(self) -> int:
        return int(self.arcs[0].size)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (src, dst) pairs, sorted."""
        dst, src = self.arcs
        return sorted(zip(src.tolist(), dst.tolist()))

    @classmethod
    def zero(cls, d: int) -> "InteractionMatrix":
        return cls(np.zeros((d, d), dtype=np.int8))

    @classmethod
    def from_edges(cls, d: int, edges) -> "InteractionMatrix":
        """Build from (src, dst) pairs; the stored matrix is the transpose.

        Each pair is checked in input order, and a repeated pair is one
        edge. The pairs' flat keys ``dst * d + src`` are sorted into
        ``arcs``, with no d x d array.
        """
        keys = set()
        for src, dst in edges:
            if src == dst:
                raise ValueError(f"self-loop {src}->{dst} not allowed")
            if not (0 <= src < d and 0 <= dst < d):
                raise ValueError(f"edge {src}->{dst} out of range for d={d}")
            keys.add(dst * d + src)
        if d < 2:
            raise ValueError("need at least 2 vertices")
        return cls._from_arcs(d, *np.divmod(np.array(sorted(keys), dtype=np.intp), d))


class _Record:
    """What the flow-limit solver has worked out about one graph.

    ``cycle`` is None or a cycle certificate: a vertex array S in which
    every vertex has an in-neighbour in S, so that the subgraph on S, and
    with it the graph, holds a directed cycle. The solver records one
    where its power loop finds it.

    The component fields are None until the solver's squaring above
    ``dynamics._ONE_BLOCK`` vertices forms them (``dynamics._components``):

    - ``labels``: each vertex's weak component, named by its smallest
      vertex;
    - ``size`` and ``edges``: each component's vertex and arc count,
      indexed by its label, and 0 at the other vertices;
    - ``blocks``: ``{label: (verts, block)}`` in label order, one item
      per component with at least as many arcs as vertices: its vertices,
      increasing, and the read-only dense block of I + C on them;
    - ``trees``: the vertices of the other components, increasing.

    ``resample_vertex`` gives the redrawn graph a new record. It passes
    on the certificate while the redrawn vertex lies outside it, since
    every edge among the certificate's vertices survives, and carries
    the components where they were formed (``carry``).
    """

    __slots__ = ("cycle", "labels", "size", "edges", "blocks", "trees")

    def __init__(self, cycle: np.ndarray | None = None):
        self.cycle = cycle
        self.labels = self.size = self.edges = self.blocks = self.trees = None

    def carry(self, old: "_Record", C: InteractionMatrix,
              met: np.ndarray) -> None:
        """Form C's components from ``old``, the record of the graph C was
        redrawn from at one vertex j, with ``met`` holding j and its new
        neighbours.

        j's old arcs lie in j's old component, and its new ones end in
        ``met``, so only the old components that meet ``met`` change. Their
        vertices are labelled again on C's subgraph on them, which no arc
        of C leaves, and their squared components are cut from it. Every
        other component keeps its label, counts and block, which is shared.
        """
        hit = np.zeros(C.d, dtype=bool)
        hit[old.labels[met]] = True
        inside = hit[old.labels]
        verts = inside.nonzero()[0]
        # the subgraph on verts, as _induced cuts it: no arc of C leaves
        # verts, so its arcs are those into verts, renumbered 0..n-1
        dst, src = C.arcs
        keep = inside[dst]
        n = verts.size
        dst, src = verts.searchsorted(dst[keep]), verts.searchsorted(src[keep])
        local = _weak_component_labels(dst, src, n)
        size = np.bincount(local, minlength=n)
        edges = np.bincount(local[dst], minlength=n)
        squared = (edges >= size) & (size > 0)
        # every old label and new root lies in verts, so the counts there
        # are written whole, 0 at the vertices that name no component
        self.labels = old.labels.copy()
        self.labels[verts] = verts[local]
        self.size, self.edges = old.size.copy(), old.edges.copy()
        self.size[verts], self.edges[verts] = size, edges
        self.blocks = {r: b for r, b in old.blocks.items() if not hit[r]}
        self.trees = old.trees  # where verts held trees only, and still do
        if squared.any():
            sub = InteractionMatrix._from_arcs(n, dst, src)
            for r in squared.nonzero()[0].tolist():
                at = (local == r).nonzero()[0]
                block = _unit_block(*_induced(sub, at))
                self.blocks[int(verts[r])] = (verts[at], block)
            self.blocks = dict(sorted(self.blocks.items()))
        elif len(self.blocks) == len(old.blocks):
            return
        tree = np.zeros(C.d, dtype=bool)
        tree[old.trees] = True
        tree[verts] = ~squared[local]
        self.trees = tree.nonzero()[0]


def _unit_block(n: int, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """The read-only dense I + N for N the graph on n vertices with the
    edges ``(dst, src)``."""
    block = np.eye(n)
    block[dst, src] = 1.0
    block.setflags(write=False)
    return block


def _arc_product(C: InteractionMatrix, x: np.ndarray) -> np.ndarray:
    """C x summed over the edge list: no dense copy, no BLAS."""
    dst, src = C.arcs
    return np.bincount(dst, weights=x[src], minlength=C.d)


def _check_probability(p) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class ModelParams:
    """Vertex count and per-edge probability; theta = p*d is derived.

    The model proper requires 0 < p < 1; the endpoints are accepted so that
    test fixtures can force empty or complete graphs.
    """

    d: int
    p: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise ValueError("d must be an integer >= 2")
        _check_probability(self.p)
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "p", float(self.p))

    @property
    def theta(self) -> float:
        return self.p * self.d

    @classmethod
    def from_theta(cls, d: int, theta: float) -> "ModelParams":
        return cls(d=d, p=theta / d)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral radius and a non-negative basis of its eigenspace.

    ``lam`` is the spectral radius rho(C). Each basis vector v is
    non-negative, has unit 1-norm and satisfies C v = lam v to within
    ``PF_ATOL``. For an acyclic graph lam = 0 and the basis is
    empty. ``multiplicity`` equals the number of basis vectors (the
    geometric multiplicity of lam).
    """

    lam: float
    pf_basis: tuple
    multiplicity: int


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

# uniforms drawn per block of rows by sample_er_digraph
_ER_BLOCK = 1 << 14


def sample_er_digraph(params: ModelParams, rng: np.random.Generator) -> InteractionMatrix:
    """Erdos-Renyi digraph: each off-diagonal entry is 1 with probability p.

    Entry ``(i, k)`` is 1 where the ``i * d + k``-th uniform of ``rng``
    falls below p, the draw of one ``rng.random((d, d))``. The uniforms
    are drawn in blocks of whole rows, ``_ER_BLOCK`` or so at a time,
    and only the hits are kept, so no d x d array is formed.
    """
    d, p = params.d, params.p
    rows = max(1, _ER_BLOCK // d)
    hits = [np.flatnonzero(rng.random((min(rows, d - r), d)) < p) + r * d
            for r in range(0, d, rows)]
    keys = np.concatenate(hits)
    keys = keys[keys % (d + 1) != 0]  # flat indices; the diagonal's are i * (d + 1)
    return InteractionMatrix._from_arcs(d, *np.divmod(keys, d))


def resample_vertex(C: InteractionMatrix, j: int, p: float,
                    rng: np.random.Generator) -> InteractionMatrix:
    """Redraw row j and column j (off-diagonal) i.i.d. Bernoulli(p).

    Draw order is fixed for reproducibility: first the incoming entries
    ``c[j, i]`` for i != j in ascending i, then the outgoing entries
    ``c[i, j]`` likewise. All other entries are kept. When the redrawn
    row and column equal the old ones, C itself is returned, so a caller
    can tell an unchanged graph by identity.

    The new graph is built from ``C.arcs`` in O(E + d): the arcs at j
    are dropped and j's new ones merged in, in the order of ``arcs``.
    It gets a new ``_Record``, carried from C's (``_Record.carry``) where
    C's holds components, and no reference to C.
    """
    _check_probability(p)
    if isinstance(j, bool) or not isinstance(j, numbers.Integral):
        raise ValueError(f"vertex must be an integer, got {j!r}")
    d = C.d
    if not 0 <= j < d:
        raise IndexError(f"vertex {j} out of range for d={d}")
    j = int(j)
    # row j, then column j, each without c[j, j]: the in-, then the
    # out-neighbours of j, shifted past j. One draw of both halves is the
    # stream of two draws in turn
    hits = rng.random(2 * (d - 1)) < p
    ins = hits[:d - 1].nonzero()[0]
    outs = hits[d - 1:].nonzero()[0]
    ins += ins >= j
    outs += outs >= j
    # arcs as flat indices dst * d + src into entries, which sort as
    # ``arcs`` does; a stable sort merges the sorted runs in linear time
    new = np.sort(np.concatenate([j * d + ins, outs * d + j]), kind="stable")
    dst, src = C.arcs
    keys = dst * d + src
    at_j = (dst == j) | (src == j)
    old = keys[at_j]
    if old.size == new.size and (old == new).all():
        return C
    keys = np.sort(np.concatenate([keys[~at_j], new]), kind="stable")
    record = C._record
    cycle = record.cycle
    if cycle is not None and (cycle == j).any():
        cycle = None
    redrawn = InteractionMatrix._from_arcs(d, *np.divmod(keys, d), _Record(cycle))
    if record.labels is not None:
        redrawn._record.carry(record, redrawn, np.concatenate([[j], ins, outs]))
    return redrawn


# ---------------------------------------------------------------------------
# Cycle structure
# ---------------------------------------------------------------------------

def strongly_connected_components(C: InteractionMatrix) -> tuple:
    """Partition of the vertices into SCCs (Tarjan, iterative).

    Returns a tuple of sorted vertex tuples. Components are emitted in
    reverse topological order of the condensation. Each vertex's
    successors are visited in ascending order.
    """
    d = C.d
    dst, src = C.arcs
    # the arcs run by dst then src; a stable sort makes them run by src
    # then dst, so succ[begin[v]:end[v]] lists v's successors in order
    succ = dst[np.argsort(src, kind="stable")].tolist()
    end = np.cumsum(np.bincount(src, minlength=d)).tolist()
    begin = [0] + end[:-1]
    index = [-1] * d
    low = [0] * d
    on_stack = [False] * d
    stack: list[int] = []
    comps: list[tuple] = []
    counter = 0

    for root in range(d):
        if index[root] != -1:
            continue
        work = [(root, begin[root])]
        while work:
            v, pi = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(pi, end[v]):
                w = succ[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, begin[w]))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return tuple(comps)


def _peel(C: InteractionMatrix) -> tuple[list, np.ndarray]:
    """Kahn's peel, one layer at a time, over the edge list.

    A vertex with no in-edge lies on no cycle, so every such vertex is
    removed at once and its out-edges are taken off the in-degrees.
    Returns the layers, in order, as index arrays, and the mask of the
    vertices that survive: those on a cycle or downstream of one. The
    in-degrees are one ``bincount`` over the targets, and each layer
    costs O(d) plus O(edges left), plus one Python pass.
    """
    dst, src = C.arcs
    indeg = np.bincount(dst, minlength=C.d)
    alive = np.ones(C.d, dtype=bool)
    layers = []
    layer = np.flatnonzero(indeg == 0)
    while layer.size:
        layers.append(layer)
        alive[layer] = False
        keep = alive[src]  # the rest are this layer's out-edges
        indeg -= np.bincount(dst[~keep], minlength=C.d)
        dst, src = dst[keep], src[keep]
        layer = np.flatnonzero(alive & (indeg == 0))
    return layers, alive


def has_directed_cycle(C: InteractionMatrix) -> bool:
    """True iff the graph contains a directed cycle (length >= 2).

    The graph is cyclic iff some vertex survives ``_peel``. With
    self-loops excluded this is equivalent to some SCC having size at
    least 2 (``strongly_connected_components`` is the test oracle), and
    to the matrix not being nilpotent.
    """
    return bool(_peel(C)[1].any())


# vertices plus edges up to which _weak_component_labels runs in Python
_FEW = 500


def _weak_component_labels(rows: np.ndarray, cols: np.ndarray,
                           d: int) -> np.ndarray:
    """Label every vertex with the smallest vertex of its weak component.

    ``rows`` and ``cols`` hold the two ends of each edge, in either
    orientation. Min-label propagation with pointer jumping, vectorised
    over the edges: each edge hooks the larger of its endpoints' roots
    under the smaller, then every vertex jumps to its root. Labels only
    decrease and every label names a root that labels itself, so when no
    edge joins two labels each component is labelled by its smallest
    vertex.

    On at most ``_FEW`` vertices and edges together, where the fixed cost
    of the vectorised sweeps dominates, a union-find in Python gives the
    same labels: each edge hooks the larger of its endpoints' roots under
    the smaller, found with path halving, so parents never exceed their
    vertex and one pass in vertex order leaves each vertex at its root.
    """
    if rows.size + d <= _FEW:
        up = list(range(d))
        for a, b in zip(rows.tolist(), cols.tolist()):
            while up[a] != a:
                up[a] = a = up[up[a]]
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a < b:
                up[b] = a
            elif b < a:
                up[a] = b
        for v in range(d):
            up[v] = up[up[v]]
        return np.array(up)
    label = np.arange(d)
    while True:
        at_rows, at_cols = label[rows], label[cols]
        lo = np.minimum(at_rows, at_cols)
        hi = np.maximum(at_rows, at_cols)
        if (lo == hi).all():
            return label
        np.minimum.at(label, hi, lo)
        up = label[label]
        while (up != label).any():
            label, up = up, up[up]


def has_undirected_cycle(C: InteractionMatrix) -> bool:
    """True iff the simple undirected projection contains a cycle.

    The projection has an edge {i, j} iff c_ij = 1 or c_ji = 1; a lone
    directed 2-cycle collapses to a single undirected edge and is not a
    cycle of the simple graph. A simple graph is a forest iff its edge
    count is d minus its number of components. The components' labels
    are read from C's ``_Record`` where the flow-limit solver formed them.
    """
    d = C.d
    dst, src = C.arcs
    labels = C._record.labels
    if labels is None:
        labels = _weak_component_labels(dst, src, d)
    pairs = np.unique(np.minimum(dst, src) * d + np.maximum(dst, src)).size
    return bool(pairs > d - np.count_nonzero(labels == np.arange(d)))


def _induced(C: InteractionMatrix, verts: np.ndarray) -> tuple:
    """The subgraph on ``verts`` as ``(n, dst, src)``, over the edge list.

    ``verts`` lists n vertices in increasing order, and ``verts[k]`` is
    renumbered k. The arcs with both ends in ``verts`` keep the order
    they have in ``C.arcs``, so the subgraph's arcs are sorted too.
    """
    local = np.full(C.d, -1)
    local[verts] = np.arange(len(verts))
    dst, src = C.arcs
    dst, src = local[dst], local[src]
    inside = (dst >= 0) & (src >= 0)
    return len(verts), dst[inside], src[inside]


def is_acs(C: InteractionMatrix, subset) -> bool:
    """Whether every vertex of the induced subgraph has an in-edge from it.

    The subset is autocatalytic iff each member i has some member j != i
    with c_ij = 1.
    """
    idx = np.asarray(sorted(set(int(v) for v in subset)), dtype=int)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.min() < 0 or idx.max() >= C.d:
        raise ValueError("subset out of range")
    n, dst, _ = _induced(C, idx)
    return bool(np.bincount(dst, minlength=n).all())


def terminal_vertices(C: InteractionMatrix) -> np.ndarray:
    """Vertices with at least one incoming edge and no outgoing edge."""
    dst, src = C.arcs
    has_in = np.bincount(dst, minlength=C.d) > 0
    has_out = np.bincount(src, minlength=C.d) > 0
    return np.flatnonzero(has_in & ~has_out)


def path_counts(C: InteractionMatrix) -> np.ndarray:
    """p(j) = number of vertices i != j with a directed path from i to j.

    Requires an acyclic graph. A dynamic program over the Kahn layers:
    every in-neighbour of a layer lies in an earlier layer, so the
    ancestor set of j, j itself included, is the union of those of its
    in-neighbours plus j. The products sum at most d 0/1 terms, so they
    are exact in floating point.
    """
    layers, alive = _peel(C)
    if alive.any():
        raise ValueError("path counts are defined for acyclic graphs only")
    a = C.entries
    anc = np.eye(C.d)
    for layer in layers[1:]:
        anc[layer] = np.minimum(a[layer] @ anc + anc[layer], 1.0)
    return anc.sum(axis=1).astype(int) - 1


# ---------------------------------------------------------------------------
# Spectral analysis
# ---------------------------------------------------------------------------

def _pf_vector_irreducible(block: np.ndarray):
    """Perron vector and radius of an irreducible non-negative block.

    Power iteration on block + I; the unit diagonal shift makes the
    iteration matrix primitive, so a bare power method cannot cycle even
    for periodic blocks. The stop is relative, ``TOL * max(1, lam)``, but
    never above the absolute ``RESIDUAL_FLOOR`` the equilibrium checks use.
    """
    n = block.shape[0]
    shifted = block + np.eye(n)
    v = np.full(n, 1.0 / n)
    for _ in range(PF_MAX_ITER):
        w = shifted @ v
        v = w / w.sum()
        bv = block @ v
        lam = bv.sum()
        if np.abs(bv - lam * v).sum() <= min(TOL * max(1.0, lam), RESIDUAL_FLOOR):
            return lam, v
    raise NonConvergenceError(
        f"Perron iteration did not converge in {PF_MAX_ITER} iterations")


def _reachable_from(C: InteractionMatrix, sources) -> np.ndarray:
    """Boolean mask of the vertices reachable from ``sources``, included.

    One pass over the edge list per BFS layer: the next frontier is
    every unseen target of an edge whose source is in the current one.
    """
    dst, src = C.arcs
    seen = np.zeros(C.d, dtype=bool)
    seen[np.asarray(sources, dtype=np.intp)] = True
    frontier = seen.copy()
    while frontier.any():
        hit = np.zeros(C.d, dtype=bool)
        hit[dst[frontier[src]]] = True
        frontier = hit & ~seen
        seen |= frontier
    return seen


def spectral_radius_pf(C: InteractionMatrix) -> SpectralData:
    """Spectral radius of C and a non-negative basis of its eigenspace.

    The matrix is reducible in general, so the eigenspace is assembled
    from the condensation: every SCC whose block radius equals rho(C) is a
    "basic" class, and each basic class with no path to another basic
    class contributes one eigenvector. That vector carries the block's
    Perron vector on the class itself and the unique non-negative
    extension on the vertices reachable from it, obtained by solving
    (rho I - C_DD) v_D = C_DA v_A, which is nonsingular because every
    class strictly downstream of a final basic class has radius < rho.
    """
    comps = strongly_connected_components(C)
    nontrivial = [c for c in comps if len(c) > 1]
    if not nontrivial:
        return SpectralData(lam=0.0, pf_basis=(), multiplicity=0)

    def block(rows, cols):  # the float values a dense copy would hold
        return C.entries[np.ix_(rows, cols)].astype(np.float64)

    radii, vectors = zip(*(_pf_vector_irreducible(block(comp, comp))
                           for comp in nontrivial))

    rho = max(radii)
    basic = [i for i, lam_b in enumerate(radii) if lam_b >= rho - PF_ATOL]

    # final basic classes: reach no vertex of another basic class
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
            sol = np.linalg.solve(
                rho * np.eye(downstream.size) - block(downstream, downstream),
                block(downstream, comp) @ vectors[i])
            v[downstream] = np.clip(sol, 0.0, None)
        v /= v.sum()
        resid = np.abs(_arc_product(C, v) - rho * v).sum()
        if resid > PF_ATOL:
            raise NonConvergenceError(
                f"eigenvector residual {resid:.3e} exceeds tolerance")
        basis.append(v)

    return SpectralData(lam=float(rho), pf_basis=tuple(basis),
                        multiplicity=len(basis))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_interaction_matrix(text: str, d: int | None = None) -> InteractionMatrix:
    """Parse either the edge-list or the dense text format.

    Edge list: one ``src dst`` pair per line (0-based); blank lines and
    ``#`` comments are ignored; d defaults to max index + 1. Dense: first
    line is d, then d rows of d space-separated 0/1 entries where row i
    lists the incoming indicators of vertex i; a given d must match it.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ValueError("no data lines found")
    if len(rows[0]) == 1:
        dd = int(rows[0][0])
        if d is not None and d != dd:
            raise ValueError(f"dense format: header gives d = {dd}, not d = {d}")
        if len(rows) != dd + 1:
            raise ValueError(f"dense format: expected {dd} rows, got {len(rows) - 1}")
        if any(len(r) != dd for r in rows[1:]):
            raise ValueError("dense format: ragged or wrongly sized rows")
        return InteractionMatrix(np.array([[int(v) for v in r] for r in rows[1:]]))
    edges = []
    for r in rows:
        if len(r) != 2:
            raise ValueError(f"edge line must have two fields, got {r!r}")
        edges.append((int(r[0]), int(r[1])))
    if d is None:
        d = max(max(s, t) for s, t in edges) + 1
        d = max(d, 2)
    return InteractionMatrix.from_edges(d, edges)


def load_interaction_matrix(path, d: int | None = None) -> InteractionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_interaction_matrix(fh.read(), d=d)


def dump_edge_list(C: InteractionMatrix) -> str:
    return "".join(f"{s} {t}\n" for s, t in C.edges())

import numpy as np
import pytest

from jknet import (
    InteractionMatrix,
    ModelParams,
    NonConvergenceError,
    dump_edge_list,
    has_directed_cycle,
    has_undirected_cycle,
    is_acs,
    parse_interaction_matrix,
    path_counts,
    resample_vertex,
    sample_er_digraph,
    spectral_radius_pf,
    strongly_connected_components,
    terminal_vertices,
)
from jknet import graph
from jknet.rng import stream

from conftest import random_matrices
from oracles import (
    brute_force_directed_cycle,
    brute_force_is_acs,
    brute_force_path_counts,
    brute_force_sccs,
    brute_force_undirected_cycle,
    delete_resample_vertex,
    dense_resample_vertex,
    dense_spectral_radius,
    floyd_warshall_reachability,
    one_call_er_digraph,
)


class TestInteractionMatrix:
    def test_rejects_self_loops(self):
        a = np.zeros((3, 3), dtype=int)
        a[1, 1] = 1
        with pytest.raises(ValueError):
            InteractionMatrix(a)

    def test_rejects_non_binary(self):
        a = np.zeros((3, 3))
        a[0, 1] = 0.5
        with pytest.raises(ValueError):
            InteractionMatrix(a)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            InteractionMatrix(np.zeros((1, 1), dtype=int))

    @pytest.mark.parametrize("bad", [2, -1, np.nan, 1.0 + 1e-12])
    def test_rejects_every_value_but_zero_and_one(self, bad):
        a = np.zeros((3, 3))
        a[2, 0] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            InteractionMatrix(a)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, float])
    def test_accepts_binary_of_any_dtype(self, dtype):
        a = np.zeros((3, 3), dtype=dtype)
        a[2, 0] = 1
        assert InteractionMatrix(a).edges() == [(0, 2)]

    def test_entries_read_only(self):
        m = InteractionMatrix.zero(3)
        with pytest.raises(ValueError):
            m.entries[0, 1] = 1

    def test_edge_convention_is_transposed(self):
        m = InteractionMatrix.from_edges(3, [(0, 1)])
        assert m.entries[1, 0] == 1
        assert m.entries.sum() == 1

    def test_an_edge_list_graph_forms_entries_on_first_read(self):
        m = resample_vertex(InteractionMatrix.from_edges(4, [(0, 1)]), 2, 1.0,
                            stream(0))
        assert "entries" not in vars(m)
        want = InteractionMatrix.from_edges(
            4, [(0, 1), (0, 2), (1, 2), (3, 2), (2, 0), (2, 1), (2, 3)])
        np.testing.assert_array_equal(m.entries, want.entries)
        assert m.entries is m.entries and m.entries.dtype == np.int8
        with pytest.raises(ValueError):
            m.entries[0, 1] = 1

    def test_a_matrix_cannot_be_assigned_to(self):
        from dataclasses import FrozenInstanceError

        m = InteractionMatrix.zero(3)
        with pytest.raises(FrozenInstanceError):
            m.entries = np.eye(3)
        with pytest.raises(FrozenInstanceError):
            m.d = 4

    def test_arcs_are_the_nonzero_entries_and_cached(self):
        graphs = random_matrices(60, seed=31, d_range=(2, 60), p_range=(0.0, 0.5))
        for m in graphs + [InteractionMatrix.zero(4)]:
            dst, src = m.arcs
            want_dst, want_src = np.nonzero(m.entries)
            np.testing.assert_array_equal(dst, want_dst)
            np.testing.assert_array_equal(src, want_src)
            assert m.arcs is m.arcs  # built once, then read back
            assert not dst.flags.writeable and not src.flags.writeable
            assert m.edge_count() == int(m.entries.sum())


def dense_from_edges(d, edges):
    """The edge-list loader on a dense int8 copy: each pair checked and
    written in input order, then the array validated."""
    a = np.zeros((d, d), dtype=np.int8)
    for src, dst in edges:
        if src == dst:
            raise ValueError(f"self-loop {src}->{dst} not allowed")
        if not (0 <= src < d and 0 <= dst < d):
            raise ValueError(f"edge {src}->{dst} out of range for d={d}")
        a[dst, src] = 1
    return InteractionMatrix(a)


class TestFromEdges:
    def test_matches_the_dense_form(self):
        # shuffled pairs, a third of them repeated: the arcs are those the
        # dense copy gives, each repeated pair one edge
        rng = stream(31)
        for case in range(80):
            d = int(rng.integers(2, 200))
            k = int(rng.integers(0, 3 * d))
            pairs = [(int(s), int(t)) for s, t in rng.integers(0, d, (k, 2)) if s != t]
            pairs += pairs[:len(pairs) // 3]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            got, want = InteractionMatrix.from_edges(d, pairs), dense_from_edges(d, pairs)
            for half, want_half in zip(got.arcs, want.arcs):
                np.testing.assert_array_equal(half, want_half)
                assert not half.flags.writeable
            np.testing.assert_array_equal(got.entries, want.entries)
        assert InteractionMatrix.from_edges(3, []).edge_count() == 0

    @pytest.mark.parametrize("d, edges", [
        (3, [(0, 1), (1, 1), (0, 5)]), (3, [(0, 1), (0, 5), (1, 1)]),
        (3, [(2, 2), (0, 9)]), (3, [(-1, 0), (1, 1)]), (3, [(0, -2)]),
        (1, []), (1, [(0, 0)]), (1, [(0, 1)]), (0, [])])
    def test_refuses_the_first_offender_as_the_dense_form_does(self, d, edges):
        with pytest.raises(ValueError) as want:
            dense_from_edges(d, edges)
        with pytest.raises(ValueError) as got:
            InteractionMatrix.from_edges(d, edges)
        assert str(got.value) == str(want.value)

    def test_a_large_edge_list_holds_no_dense_array(self):
        # at d = 4000 a dense int8 copy takes 16 MB and its validation
        # more; the loader keeps to the parsed text and the edge list
        import tracemalloc

        m = sample_er_digraph(ModelParams.from_theta(4000, 0.5), stream(4))
        text = dump_edge_list(m)
        tracemalloc.start()
        try:
            got = parse_interaction_matrix(text, d=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for half, want_half in zip(got.arcs, m.arcs):
            np.testing.assert_array_equal(half, want_half)
        assert "entries" not in vars(got)
        assert peak < 4e6


class TestModelParams:
    def test_theta_is_derived(self):
        mp = ModelParams(d=20, p=0.05)
        assert mp.theta == 1.0

    def test_from_theta(self):
        mp = ModelParams.from_theta(50, 0.5)
        assert mp.p == 0.01
        assert mp.theta == pytest.approx(0.5)

    def test_endpoints_allowed_for_fixtures(self):
        assert ModelParams(d=4, p=0.0).theta == 0.0
        assert ModelParams(d=4, p=1.0).theta == 4.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ModelParams(d=4, p=1.5)
        with pytest.raises(ValueError):
            ModelParams(d=1, p=0.5)


class TestSampling:
    def test_p_zero_gives_empty_graph(self):
        m = sample_er_digraph(ModelParams(d=6, p=0.0), stream(1))
        assert m.edge_count() == 0

    def test_p_one_gives_complete_digraph(self):
        m = sample_er_digraph(ModelParams(d=6, p=1.0), stream(1))
        assert m.edge_count() == 6 * 5
        assert not np.diagonal(m.entries).any()

    def test_edge_count_matches_binomial(self):
        # mean edge count over 500 samples within 3 sigma of N*p
        d, p, samples = 200, 0.02, 500
        n_pairs = d * (d - 1)
        rng = stream(42)
        counts = [sample_er_digraph(ModelParams(d=d, p=p), rng).edge_count()
                  for _ in range(samples)]
        expected = n_pairs * p
        sigma = np.sqrt(n_pairs * p * (1 - p) / samples)
        assert abs(np.mean(counts) - expected) < 3 * sigma

    @pytest.mark.parametrize("block", [None, 1, 64, 1000])
    @pytest.mark.parametrize("d, theta", [(3, 1.5), (7, 3.0), (30, 0.5),
                                          (64, 2.0), (101, 1.0), (700, 0.5)])
    def test_row_blocks_draw_what_one_call_draws(self, monkeypatch, block, d,
                                                 theta):
        # blocks of 1, 64 or 1000 uniforms split the rows into one-row
        # blocks, equal blocks, or blocks and a short last one (d = 64 and
        # 101 at 1000); the arcs and the stream left are the one-call draw's
        if block is not None:
            monkeypatch.setattr(graph, "_ER_BLOCK", block)
        params = ModelParams.from_theta(d, theta)
        rng, ref = stream(21, d), stream(21, d)
        got, want = sample_er_digraph(params, rng), one_call_er_digraph(params, ref)
        assert want.edge_count() > 0
        for half, want_half in zip(got.arcs, want.arcs):
            np.testing.assert_array_equal(half, want_half)
        np.testing.assert_array_equal(got.entries, want.entries)
        assert rng.random() == ref.random()

    def test_a_large_draw_holds_no_dense_array(self):
        # at d = 4000 one rng.random((d, d)) call takes 128 MB; the row
        # blocks keep the draw to a few MB over the graph's own arrays
        import tracemalloc

        params = ModelParams.from_theta(4000, 0.5)
        tracemalloc.start()
        try:
            m = sample_er_digraph(params, stream(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "entries" not in vars(m)
        assert peak < 8e6


class TestResampleVertex:
    BASE_EDGES = [(0, 1), (1, 2), (3, 4), (4, 0), (2, 0)]

    def test_p_zero_clears_row_and_column(self):
        base = InteractionMatrix.from_edges(5, self.BASE_EDGES)
        out = resample_vertex(base, 0, 0.0, stream(3))
        assert not out.entries[0].any()
        assert not out.entries[:, 0].any()

    def test_p_one_fills_row_and_column(self):
        base = InteractionMatrix.from_edges(5, self.BASE_EDGES)
        out = resample_vertex(base, 0, 1.0, stream(3))
        assert out.entries[0, 1:].all()
        assert out.entries[1:, 0].all()
        assert out.entries[0, 0] == 0

    def test_only_row_and_column_change(self):
        base = InteractionMatrix.from_edges(5, self.BASE_EDGES)
        for j in range(5):
            out = resample_vertex(base, j, 0.5, stream(17, j))
            diff = base.entries != out.entries
            diff[j, :] = False
            diff[:, j] = False
            assert not diff.any()

    def test_deterministic_fixture(self):
        # frozen at first build: d=5, vertex 2, p=0.5, stream(20240, 0)
        base = InteractionMatrix.from_edges(5, self.BASE_EDGES)
        out = resample_vertex(base, 2, 0.5, stream(20240, 0))
        expected = [[0, 0, 1, 0, 1],
                    [1, 0, 0, 0, 0],
                    [0, 1, 0, 1, 1],
                    [0, 0, 0, 0, 0],
                    [0, 0, 1, 1, 0]]
        assert out.entries.tolist() == expected
        again = resample_vertex(base, 2, 0.5, stream(20240, 0))
        assert (out.entries == again.entries).all()

    @pytest.mark.parametrize("d", [2, 3, 17, 64])
    def test_matches_the_delete_form(self, d):
        # the slices write the draws where the np.delete index put them,
        # and use up the same stream: j = 0, interior j and j = d - 1
        base = sample_er_digraph(ModelParams(d=d, p=0.3), stream(5, d))
        for j in sorted({0, d // 2, d - 1}):
            for p in (0.0, 0.3, 1.0):
                rng, ref = stream(11, d, j), stream(11, d, j)
                np.testing.assert_array_equal(
                    resample_vertex(base, j, p, rng).entries,
                    delete_resample_vertex(base, j, p, ref).entries)
                assert rng.random() == ref.random()

    def test_unchanged_redraw_returns_the_same_matrix(self):
        # vertex 5 is isolated, so p = 0 redraws what it had; vertex 0
        # loses its edges, so a new matrix comes back
        base = InteractionMatrix.from_edges(6, self.BASE_EDGES)
        assert resample_vertex(base, 5, 0.0, stream(3)) is base
        out = resample_vertex(base, 0, 0.0, stream(3))
        assert out is not base and not out.entries[0].any()

    def test_index_out_of_range(self):
        base = InteractionMatrix.zero(4)
        with pytest.raises(IndexError):
            resample_vertex(base, 4, 0.5, stream(0))

    # (d, theta, j, p) of the redraws held to the dense form: j = 0 and
    # j = d - 1, p = 0 and p = 1, sparse graphs full of isolated j
    DENSE_CASES = [(2, 1.0, 0, None), (2, 1.0, 1, 1.0), (5, 2.0, 4, 0.0),
                   (17, 0.5, 0, 1.0), (40, 0.3, 39, None), (64, 3.0, 20, None),
                   (150, 0.5, 75, 0.0), (300, 1.5, 299, None)]

    @pytest.mark.parametrize("d, theta, j, p", DENSE_CASES)
    def test_matches_the_dense_form(self, d, theta, j, p):
        # the edge-list redraw gives the dense copy's entries, its arcs
        # are those flatnonzero reads off them, and it uses up the same
        # stream; an unchanged redraw returns C itself on both sides
        params = ModelParams.from_theta(d, theta)
        base = sample_er_digraph(params, stream(9, d))
        p = params.p if p is None else p
        for k in range(12):
            jj = (j + 7 * k) % d if k else j
            rng, ref = stream(13, d, k), stream(13, d, k)
            out = resample_vertex(base, jj, p, rng)
            want = dense_resample_vertex(base, jj, p, ref)
            assert (out is base) == (want is base)
            np.testing.assert_array_equal(out.entries, want.entries)
            for half, want_half in zip(out.arcs, np.divmod(
                    np.flatnonzero(want.entries), d)):
                np.testing.assert_array_equal(half, want_half)
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("d", [25, 100, 400])
    def test_chained_redraws_match_the_dense_form(self, d):
        # 300 redraws, each from the last, of vertices picked at random:
        # the same graphs and the same stream as the dense copy's
        params = ModelParams.from_theta(d, 0.5)
        m = want = sample_er_digraph(params, stream(17, d))
        rng, ref, pick = stream(18, d), stream(18, d), stream(19, d)
        for _ in range(300):
            j = int(pick.integers(d))
            m, want = resample_vertex(m, j, params.p, rng), dense_resample_vertex(
                want, j, params.p, ref)
            for half, want_half in zip(m.arcs, want.arcs):
                np.testing.assert_array_equal(half, want_half)
        assert rng.random() == ref.random()

    def test_an_isolated_vertex_redrawn_bare_returns_c_itself(self):
        base = sample_er_digraph(ModelParams(d=50, p=0.0), stream(1))
        base = resample_vertex(base, 3, 0.5, stream(2))  # an edge list graph
        isolated = [v for v in range(50) if not base.entries[v].any()
                    and not base.entries[:, v].any()]
        assert resample_vertex(base, isolated[0], 0.0, stream(4)) is base
        assert dense_resample_vertex(base, isolated[0], 0.0, stream(4)) is base

    def test_the_cycle_certificate_survives_a_redraw_outside_it(self):
        # vertices {0, 1} carry the planted 2-cycle; a redraw of vertex 5
        # keeps every edge between them, a redraw of vertex 1 may not
        from jknet.adaptation import plant_directed_cycle

        base = plant_directed_cycle(InteractionMatrix.zero(8), 2)
        np.testing.assert_array_equal(base._record.cycle, [0, 1])
        outside = resample_vertex(base, 5, 1.0, stream(1))
        assert outside._record.cycle is base._record.cycle
        assert resample_vertex(base, 1, 1.0, stream(1))._record.cycle is None
        assert InteractionMatrix(base.entries)._record.cycle is None


class TestDirectedCycles:
    def test_example1_has_cycle(self, example1):
        assert has_directed_cycle(example1)

    def test_zero_matrix_has_none(self):
        assert not has_directed_cycle(InteractionMatrix.zero(4))

    def test_matches_reachability_oracle(self):
        for m in random_matrices(200, seed=100, d_range=(2, 5)):
            assert has_directed_cycle(m) == brute_force_directed_cycle(m.entries)

    def test_acyclic_implies_nilpotent(self):
        # exact integer powers for d <= 12
        for m in random_matrices(100, seed=101, d_range=(2, 12), p_range=(0.05, 0.3)):
            if has_directed_cycle(m):
                continue
            power = np.linalg.matrix_power(m.entries.astype(np.int64), m.d)
            assert not power.any()

    def test_cycle_implies_radius_at_least_one(self):
        found = 0
        for m in random_matrices(200, seed=102):
            if has_directed_cycle(m):
                found += 1
                assert spectral_radius_pf(m).lam >= 1 - 1e-10
        assert found > 20


def tarjan_cyclic(m):
    return any(len(c) > 1 for c in strongly_connected_components(m))


def path_edges(n):
    return [(v, v + 1) for v in range(n - 1)]


class TestKahnPeelAgainstTarjan:
    """``has_directed_cycle`` peels sources; Tarjan's SCCs are the oracle."""

    def test_er_corpus(self):
        rng = stream(110)
        seen = set()
        for _ in range(400):
            d = int(rng.integers(2, 401))
            theta = float(rng.uniform(0.2, 4.0))
            m = sample_er_digraph(ModelParams(d=d, p=min(theta / d, 1.0)), rng)
            cyclic = tarjan_cyclic(m)
            assert has_directed_cycle(m) == cyclic, (d, theta)
            seen.add(cyclic)
        assert seen == {True, False}

    @pytest.mark.parametrize("d, edges, cyclic", [
        (5, [], False),
        (6, [(u, v) for u in range(6) for v in range(6) if u != v], True),
        (300, path_edges(300), False),
        (300, path_edges(300) + [(299, 298)], True),
        (300, path_edges(300) + [(299, 150)], True),
        (8, [(v, 0) for v in range(1, 8)], False),
        (8, [(0, v) for v in range(1, 8)], False),
        (4, [(0, 1), (1, 0), (2, 3), (3, 2)], True),
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (3, 5)], True),
    ], ids=["edgeless", "complete", "long-path", "cycle-at-path-end",
            "long-cycle-closing-path", "sink-star", "source-star",
            "two-disjoint-2-cycles", "triangle-beside-dag"])
    def test_hand_built_shapes(self, d, edges, cyclic):
        m = InteractionMatrix.from_edges(d, edges)
        assert tarjan_cyclic(m) == cyclic
        assert has_directed_cycle(m) == cyclic

    def test_tarjan_emits_components_in_reverse_topological_order(self):
        # every edge leaves a component emitted no earlier than its target's
        rng = stream(110)
        for _ in range(400):
            d = int(rng.integers(2, 401))
            theta = float(rng.uniform(0.2, 4.0))
            m = sample_er_digraph(ModelParams(d=d, p=min(theta / d, 1.0)), rng)
            comps = strongly_connected_components(m)
            rank = np.empty(d, dtype=int)
            for k, comp in enumerate(comps):
                assert list(comp) == sorted(comp)
                rank[list(comp)] = k
            assert sorted(v for comp in comps for v in comp) == list(range(d))
            dst, src = m.arcs
            assert (rank[src] >= rank[dst]).all()

    def test_in_degrees_beyond_int8(self):
        # vertex 0 has 256 in-edges and lies on the 2-cycle 0 -> 1 -> 0;
        # an int8 in-degree sum wraps to 0 and would peel it with the sources
        d = 257
        m = InteractionMatrix.from_edges(d, [(v, 0) for v in range(1, d)]
                                         + [(0, 1)])
        assert tarjan_cyclic(m)
        assert has_directed_cycle(m)


class TestUndirectedCycles:
    def test_triangle(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert has_undirected_cycle(m)

    def test_chain_of_four(self):
        m = InteractionMatrix.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not has_undirected_cycle(m)

    def test_directed_two_cycle_is_not_an_undirected_cycle(self):
        m = InteractionMatrix.from_edges(2, [(0, 1), (1, 0)])
        assert not has_undirected_cycle(m)

    def test_matches_component_count_oracle(self):
        for m in random_matrices(300, seed=103, d_range=(2, 7)):
            assert has_undirected_cycle(m) == brute_force_undirected_cycle(m.entries)
        # up to d = 60: the projection has mean degree about 2 theta, so
        # theta from 0.3 to 2 runs from mostly forests to mostly cyclic
        rng = stream(117)
        seen = {True: 0, False: 0}
        for _ in range(200):
            d = int(rng.integers(2, 61))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.3, 2.0))), rng)
            expect = brute_force_undirected_cycle(m.entries)
            assert has_undirected_cycle(m) == expect
            seen[expect] += 1
        assert min(seen.values()) >= 40


class TestWeakComponentLabels:
    def test_component_labels_match_brute_force(self):
        rng = stream(77)
        for _ in range(60):
            d = int(rng.integers(2, 150))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 2.0))), rng)
            und = m.entries | m.entries.T
            reach = floyd_warshall_reachability(und) | np.eye(d, dtype=bool)
            expect = reach.argmax(axis=0)  # smallest vertex joined to each
            dst, src = m.arcs
            np.testing.assert_array_equal(
                graph._weak_component_labels(dst, src, d), expect)
            # the labels ignore orientation: the reversed edges give them too
            np.testing.assert_array_equal(
                graph._weak_component_labels(src, dst, d), expect)


    @pytest.mark.parametrize("few", [0, 10 ** 9])
    def test_the_python_and_the_vectorised_labels_agree(self, monkeypatch, few):
        # every graph labelled one way only: in Python (few = 10 ** 9) or
        # with the vectorised sweeps (few = 0), against brute force
        monkeypatch.setattr(graph, "_FEW", few)
        rng = stream(78)
        for _ in range(40):
            d = int(rng.integers(2, 300))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 3.0))), rng)
            und = m.entries | m.entries.T
            reach = floyd_warshall_reachability(und) | np.eye(d, dtype=bool)
            dst, src = m.arcs
            np.testing.assert_array_equal(
                graph._weak_component_labels(dst, src, d), reach.argmax(axis=0))


class TestInducedSubgraph:
    def test_matches_the_dense_cut(self):
        # empty, single, full and random vertex sets: the subgraph's arcs
        # are the nonzeros of entries[np.ix_(verts, verts)], in its row-major
        # order, which is the order of the kept arcs in C.arcs
        rng = stream(404)
        for case in range(120):
            d = int(rng.integers(2, 200))
            m = sample_er_digraph(ModelParams(d=d, p=float(rng.uniform(0.0, 0.3))),
                                  rng)
            kind = case % 4
            if kind == 0:
                verts = np.arange(0)
            elif kind == 1:
                verts = np.array([int(rng.integers(d))])
            elif kind == 2:
                verts = np.arange(d)
            else:
                verts = np.flatnonzero(rng.random(d) < rng.uniform(0.1, 0.9))
            n, dst, src = graph._induced(m, verts)
            assert n == verts.size
            want_dst, want_src = np.nonzero(m.entries[np.ix_(verts, verts)])
            np.testing.assert_array_equal(dst, want_dst)
            np.testing.assert_array_equal(src, want_src)
            # the kept arcs, renumbered, in the order they have in C.arcs
            big_dst, big_src = m.arcs
            kept = np.isin(big_dst, verts) & np.isin(big_src, verts)
            np.testing.assert_array_equal(verts[dst], big_dst[kept])
            np.testing.assert_array_equal(verts[src], big_src[kept])
            if kind == 2:
                np.testing.assert_array_equal(dst, big_dst)
                np.testing.assert_array_equal(src, big_src)


class TestStronglyConnectedComponents:
    def test_two_cycle_plus_isolated(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 0)])
        assert set(strongly_connected_components(m)) == {(0, 1), (2,)}

    def test_complete_digraph_is_one_component(self):
        d = 5
        a = np.ones((d, d), dtype=np.int8)
        np.fill_diagonal(a, 0)
        comps = strongly_connected_components(InteractionMatrix(a))
        assert comps == (tuple(range(d)),)

    def test_matches_pairwise_reachability(self):
        for m in random_matrices(300, seed=104, d_range=(2, 6)):
            assert set(strongly_connected_components(m)) == brute_force_sccs(m.entries)


class TestIsAcs:
    def test_example2_full_set(self, example2):
        assert is_acs(example2, {0, 1, 2})

    def test_singleton_without_edges(self):
        assert not is_acs(InteractionMatrix.zero(3), {0})

    def test_empty_subset_rejected(self, example2):
        with pytest.raises(ValueError):
            is_acs(example2, set())

    def test_matches_definition_scan(self):
        rng = stream(105)
        for m in random_matrices(150, seed=106, d_range=(2, 6)):
            size = int(rng.integers(1, m.d + 1))
            subset = rng.choice(m.d, size=size, replace=False)
            assert is_acs(m, subset) == brute_force_is_acs(m.entries, subset)

    def test_acs_contains_directed_cycle(self):
        # an autocatalytic subset always contains a directed cycle
        rng = stream(107)
        checked = 0
        for m in random_matrices(400, seed=108, d_range=(3, 8)):
            size = int(rng.integers(1, m.d + 1))
            subset = sorted(rng.choice(m.d, size=size, replace=False).tolist())
            if not is_acs(m, subset):
                continue
            checked += 1
            sub = InteractionMatrix(np.array(m.entries)[np.ix_(subset, subset)]) \
                if len(subset) >= 2 else None
            assert sub is not None  # a singleton can never be an ACS
            assert has_directed_cycle(sub)
        assert checked > 20

    def test_cycle_irreducible_acs_implication_chain(self):
        # induced directed cycle => single SCC => autocatalytic
        rng = stream(109)
        cycles_seen = 0
        irreducible_seen = 0
        for m in random_matrices(400, seed=110, d_range=(3, 7)):
            size = int(rng.integers(2, m.d + 1))
            subset = sorted(rng.choice(m.d, size=size, replace=False).tolist())
            sub = InteractionMatrix(np.array(m.entries)[np.ix_(subset, subset)])
            in_deg = sub.entries.sum(axis=1)
            out_deg = sub.entries.sum(axis=0)
            comps = strongly_connected_components(sub)
            is_cycle = (in_deg == 1).all() and (out_deg == 1).all() and len(comps) == 1
            if is_cycle:
                cycles_seen += 1
                assert len(comps) == 1
            if len(comps) == 1 and sub.d >= 2:
                irreducible_seen += 1
                assert is_acs(sub, range(sub.d))
        assert cycles_seen > 0 and irreducible_seen > 10


class TestAcsFromEigenvector:
    def test_pf_support_is_acs_property_sweep(self):
        # the support of every non-negative Perron vector is an ACS
        found = 0
        for m in random_matrices(300, seed=111):
            if not has_directed_cycle(m):
                continue
            sd = spectral_radius_pf(m)
            for v in sd.pf_basis:
                assert is_acs(m, np.flatnonzero(v > 1e-12))
            found += 1
            if found >= 100:
                break
        assert found >= 100


class TestTerminalVertices:
    def test_chain(self):
        m = InteractionMatrix.from_edges(2, [(0, 1)])
        assert terminal_vertices(m).tolist() == [1]

    def test_zero_matrix(self):
        assert terminal_vertices(InteractionMatrix.zero(3)).size == 0

    def test_matches_definition_scan(self):
        for m in random_matrices(200, seed=112, d_range=(2, 6)):
            expected = [j for j in range(m.d)
                        if m.entries[j].any() and not m.entries[:, j].any()]
            assert terminal_vertices(m).tolist() == expected


class TestPathCounts:
    def test_chain_counts(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        assert path_counts(m).tolist() == [0, 1, 2]

    def test_star(self):
        m = InteractionMatrix.from_edges(3, [(0, 2), (1, 2)])
        assert path_counts(m)[2] == 2

    def test_cyclic_rejected(self, example1):
        with pytest.raises(ValueError):
            path_counts(example1)

    def test_matches_boolean_power_oracle(self):
        for m in random_matrices(300, seed=113, d_range=(2, 7), p_range=(0.05, 0.35)):
            if has_directed_cycle(m):
                continue
            assert path_counts(m).tolist() == brute_force_path_counts(m.entries).tolist()
        # deep DAGs up to d = 60, half of them with a spanning chain
        rng = stream(119)
        for k in range(60):
            d = int(rng.integers(2, 61))
            m, _ = self.permuted_dag(d, float(rng.uniform(0.0, 0.5)), rng,
                                     chain=k % 2 == 0)
            assert path_counts(m).tolist() == \
                brute_force_path_counts(m.entries).tolist()

    @staticmethod
    def permuted_dag(d, p, rng, chain):
        # edges only from lower to higher positions of a random order;
        # with chain=True every position also feeds the next one
        a = np.tril(rng.random((d, d)) < p, -1)
        if chain:
            a[np.arange(1, d), np.arange(d - 1)] = True
        perm = rng.permutation(d)
        return InteractionMatrix(a[np.ix_(perm, perm)].astype(np.int8)), perm

    def test_argmax_is_terminal(self):
        # an out-edge j -> k gives k every ancestor of j and j itself, so
        # a vertex of maximal count has none; with an edge it has one in
        rng = stream(120)
        for k in range(300):
            d = int(rng.integers(2, 80))
            m, _ = self.permuted_dag(d, float(rng.uniform(0.0, 0.4)), rng,
                                     chain=k % 5 == 0)
            if m.edge_count() == 0:
                continue
            pc = path_counts(m)
            assert set(np.flatnonzero(pc == pc.max())) <= set(terminal_vertices(m))

    def test_permuted_chains(self):
        rng = stream(118)
        for d in (2, 3, 17, 60):
            m, perm = self.permuted_dag(d, 0.0, rng, chain=True)
            # vertex i sits at chain position perm[i], below perm[i] others
            assert path_counts(m).tolist() == perm.tolist()


class TestSpectralRadius:
    def test_directed_two_cycle(self):
        m = InteractionMatrix.from_edges(2, [(0, 1), (1, 0)])
        sd = spectral_radius_pf(m)
        assert sd.lam == pytest.approx(1.0, abs=1e-10)
        assert sd.multiplicity == 1
        np.testing.assert_allclose(sd.pf_basis[0], [0.5, 0.5], atol=1e-10)

    def test_example3_multiplicity_two(self, example3):
        sd = spectral_radius_pf(example3)
        assert sd.lam == pytest.approx(1.0, abs=1e-10)
        assert sd.multiplicity == 2
        got = sorted(tuple(np.round(v, 9)) for v in sd.pf_basis)
        assert got == [(0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0)]

    def test_example4_loses_upstream_eigenvector(self, example4):
        sd = spectral_radius_pf(example4)
        assert sd.multiplicity == 1
        np.testing.assert_allclose(sd.pf_basis[0], [0, 0, 0.5, 0.5], atol=1e-10)

    def test_acyclic_graph_has_zero_radius_empty_basis(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        sd = spectral_radius_pf(m)
        assert sd.lam == 0.0
        assert sd.pf_basis == ()
        assert sd.multiplicity == 0

    def test_matches_dense_eigensolve(self):
        checked = 0
        for m in random_matrices(300, seed=114, d_range=(2, 6)):
            if not has_directed_cycle(m):
                continue
            sd = spectral_radius_pf(m)
            assert sd.lam == pytest.approx(dense_spectral_radius(m.entries), abs=1e-8)
            checked += 1
        assert checked > 50

    def test_basis_vectors_are_eigenvectors(self):
        for m in random_matrices(150, seed=115, d_range=(3, 8)):
            sd = spectral_radius_pf(m)
            a = m.as_float()
            for v in sd.pf_basis:
                assert v.min() >= 0
                assert v.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(a @ v - sd.lam * v).sum() < 1e-8


class TestFileFormats:
    def test_edge_list_round_trip(self, example1):
        text = dump_edge_list(example1)
        back = parse_interaction_matrix(text)
        assert (back.entries == example1.entries).all()

    def test_dense_round_trip(self, example4):
        # row i lists the in-edges of vertex i
        back = parse_interaction_matrix("4\n0 1 0 0\n1 0 0 0\n1 0 0 1\n0 0 1 0\n")
        assert (back.entries == example4.entries).all()

    @pytest.mark.parametrize("text, message", [
        ("3\n0 1 0\n1 0 0\n", "expected 3 rows, got 2"),
        ("3\n0 1 0\n1 0\n0 0 0\n", "ragged or wrongly sized rows"),
        ("2\n0 1 0\n1 0 0\n", "ragged or wrongly sized rows"),
        ("2\n0 2\n1 0\n", "entries must be 0 or 1"),
        ("2\n0 300\n1 0\n", "entries must be 0 or 1"),  # no int8 overflow
        ("2\n0 x\n1 0\n", "invalid literal"),
        ("2\n1 1\n1 0\n", "diagonal must be zero"),
    ], ids=["row-count", "ragged", "wide", "entry-2", "entry-300", "entry-x",
            "diagonal"])
    def test_dense_format_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_interaction_matrix(text)

    def test_dense_header_must_match_a_given_d(self):
        ring3 = "3\n0 1 0\n0 0 1\n1 0 0\n"
        assert parse_interaction_matrix(ring3, d=3).d == 3
        for d in (2, 7):
            with pytest.raises(ValueError, match=f"header gives d = 3, not d = {d}"):
                parse_interaction_matrix(ring3, d=d)

    def test_edge_list_loader_transposes(self):
        m = parse_interaction_matrix("0 1\n")
        assert m.entries[1, 0] == 1

    def test_comments_and_blanks_ignored(self):
        m = parse_interaction_matrix("# a comment\n\n0 1  # trailing\n1 2\n")
        assert m.d == 3
        assert m.edge_count() == 2

    def test_explicit_d_keeps_isolated_vertices(self):
        m = parse_interaction_matrix("0 1\n", d=5)
        assert m.d == 5

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_interaction_matrix("0 1 2\n")
        with pytest.raises(ValueError):
            parse_interaction_matrix("")


class TestReachableFrom:
    def test_matches_floyd_warshall_on_seeded_corpus(self):
        from jknet.graph import _reachable_from
        rng = stream(5150)
        for case in range(200):
            d = int(rng.integers(3, 81))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 3.0))), rng)
            sources = np.flatnonzero(rng.random(d) < 0.15)
            want = floyd_warshall_reachability(m.entries)[sources].any(axis=0)
            want[sources] = True
            # spectral_radius_pf passes SCCs as tuples of ints
            given = tuple(sources.tolist()) if case % 2 else sources
            np.testing.assert_array_equal(_reachable_from(m, given), want)


class TestReachabilityOracleSelfCheck:
    def test_floyd_warshall_on_chain(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        reach = floyd_warshall_reachability(m.entries)
        assert reach[0, 2] and reach[0, 1] and not reach[2, 0]


# (call, the exception, its message) for each argument refusal of the module
GRAPH_REFUSALS = [
    (lambda: InteractionMatrix(np.zeros((2, 3), dtype=np.int8)), ValueError,
     "entries must be a square matrix"),
    (lambda: InteractionMatrix.from_edges(3, [(0, 1), (1, 1)]), ValueError,
     "self-loop 1->1 not allowed"),
    (lambda: InteractionMatrix.from_edges(3, [(0, 3)]), ValueError,
     "edge 0->3 out of range for d=3"),
    (lambda: InteractionMatrix.from_edges(3, [(0, 3), (1, 1)]), ValueError,
     "edge 0->3 out of range for d=3"),
    (lambda: InteractionMatrix.from_edges(1, []), ValueError,
     "need at least 2 vertices"),
    (lambda: is_acs(InteractionMatrix.from_edges(3, [(0, 1), (1, 0)]), [0, 3]),
     ValueError, "subset out of range"),
    *((lambda p=p: resample_vertex(InteractionMatrix.zero(50), 3, p, stream(0)),
       ValueError, "p must lie in [0, 1]") for p in (float("nan"), -0.2, 1.5)),
    (lambda: resample_vertex(InteractionMatrix.zero(50), 1.5, 0.5, stream(0)),
     ValueError, "vertex must be an integer, got 1.5"),
    (lambda: resample_vertex(InteractionMatrix.zero(50), True, 0.5, stream(0)),
     ValueError, "vertex must be an integer, got True"),
]


@pytest.mark.parametrize("call, error, message", GRAPH_REFUSALS,
                         ids=[m for _, _, m in GRAPH_REFUSALS])
def test_argument_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_perron_iteration_that_runs_out_raises(monkeypatch):
    # a path 0 <-> 1 <-> 2 has Perron vector (1, sqrt 2, 1): the uniform
    # start is not it, so one power step cannot meet the stop
    m = InteractionMatrix.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert spectral_radius_pf(m).lam == pytest.approx(2 ** 0.5)
    monkeypatch.setattr(graph, "PF_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError,
                       match="Perron iteration did not converge in 1 iterations"):
        spectral_radius_pf(m)

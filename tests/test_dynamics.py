import numpy as np
import pytest

from jknet import (
    InteractionMatrix,
    ModelParams,
    NonConvergenceError,
    andi_residual,
    andi_sequences,
    equilibrium,
    equilibrium_set_basis,
    has_directed_cycle,
    integrate,
    integrate_projective,
    is_acs,
    path_counts,
    sample_er_digraph,
    simplex_vector,
    spectral_radius_pf,
    terminal_vertices,
    uniform_state,
    vector_field,
)
from jknet import dynamics
from jknet.adaptation import run_adaptive
from jknet.dynamics import equilibrium_to_json_dict, trajectory_to_csv
from jknet.rng import stream

from conftest import interior_state, random_matrices
from oracles import (
    brute_force_directed_cycle,
    dense_dominant_direction,
    floyd_warshall_reachability,
    naive_vector_field,
)

TWO_CYCLE = [(0, 1), (1, 0)]


def cyclic_matrices(count, seed, **kw):
    out = [m for m in random_matrices(count * 4, seed, **kw) if has_directed_cycle(m)]
    assert len(out) >= count
    return out[:count]


class TestSimplexVector:
    def test_clamps_tiny_negative(self):
        x = simplex_vector([1.0 + 5e-13, -5e-13])
        assert x.min() == 0.0
        assert x.sum() == 1.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            simplex_vector([0.6, 0.6])

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            simplex_vector([1.1, -0.1])


class TestVectorField:
    def test_example1_equilibrium_point(self, example1):
        f = vector_field(example1, [0.5, 0.5, 0.0])
        np.testing.assert_allclose(f, 0.0, atol=1e-15)

    def test_zero_matrix_gives_zero_field(self):
        f = vector_field(InteractionMatrix.zero(4), uniform_state(4))
        np.testing.assert_allclose(f, 0.0)

    def test_matches_naive_double_loop(self):
        rng = stream(200)
        for m in random_matrices(50, seed=201):
            x = interior_state(m.d, rng)
            np.testing.assert_allclose(vector_field(m, x),
                                       naive_vector_field(m.entries, x),
                                       atol=1e-14)

    def test_dimension_mismatch(self, example1):
        with pytest.raises(ValueError):
            vector_field(example1, [0.5, 0.5])


class TestIntegrate:
    def test_two_cycle_converges_to_half_half(self):
        m = InteractionMatrix.from_edges(2, TWO_CYCLE)
        traj = integrate(m, [1.0, 0.0], t_end=50.0)
        np.testing.assert_allclose(traj.states[-1], [0.5, 0.5], atol=1e-8)
        assert traj.residuals[-1] < 1e-8

    def test_example1_limit(self, example1):
        traj = integrate(example1, [0.2, 0.3, 0.5], t_end=60.0)
        np.testing.assert_allclose(traj.states[-1], [0.5, 0.5, 0.0], atol=1e-6)

    def test_example2_limit(self, example2):
        traj = integrate(example2, uniform_state(3), t_end=60.0)
        np.testing.assert_allclose(traj.states[-1], [1 / 3] * 3, atol=1e-6)

    def test_mass_drift_and_positivity(self):
        rng = stream(202)
        for m in random_matrices(20, seed=203, d_range=(3, 10)):
            traj = integrate(m, interior_state(m.d, rng), t_end=20.0)
            assert traj.mass_drift_rate <= 1e-9
            assert traj.min_component >= -1e-12

    def test_adaptive_stepping_matches_fixed(self, example2):
        fixed = integrate(example2, [0.7, 0.2, 0.1], t_end=10.0, h=0.005)
        adap = integrate(example2, [0.7, 0.2, 0.1], t_end=10.0, h=0.05,
                         adaptive=True, tol=1e-10)
        np.testing.assert_allclose(adap.states[-1], fixed.states[-1], atol=1e-6)

    def test_stop_residual_short_circuits(self, example2):
        traj = integrate(example2, uniform_state(3), t_end=500.0,
                         stop_residual=1e-9)
        assert traj.times[-1] < 500.0
        assert traj.residuals[-1] < 1e-9

    def test_exponential_tail_for_simple_leading_eigenvalue(self):
        # log residual decays affinely in t when the leading eigenvalue
        # is simple; fit the tail and demand R^2 >= 0.99
        rng = stream(204)
        checked = 0
        for m in cyclic_matrices(10, seed=205, d_range=(3, 6)):
            eigs = np.abs(np.linalg.eigvals(m.as_float()))
            eigs.sort()
            if eigs.size >= 2 and eigs[-1] - eigs[-2] < 0.05:
                continue
            traj = integrate(m, interior_state(m.d, rng), t_end=30.0,
                             record_every=50)
            resid = traj.residuals
            keep = resid > 1e-13
            t = traj.times[keep][5:]
            logr = np.log(resid[keep][5:])
            if t.size < 10:
                continue
            slope, intercept = np.polyfit(t, logr, 1)
            pred = slope * t + intercept
            ss_res = ((logr - pred) ** 2).sum()
            ss_tot = ((logr - logr.mean()) ** 2).sum()
            assert slope < 0
            assert 1 - ss_res / ss_tot >= 0.99
            checked += 1
        assert checked >= 4


class TestIntegrateProjective:
    def test_zero_matrix_constant_after_normalisation(self):
        m = InteractionMatrix.zero(3)
        traj = integrate_projective(m, [0.2, 0.3, 0.5], phi=0.0, t_end=5.0)
        np.testing.assert_allclose(traj.states[-1], traj.states[0], atol=1e-12)

    def test_two_cycle_limit(self):
        m = InteractionMatrix.from_edges(2, TWO_CYCLE)
        traj = integrate_projective(m, [1.0, 0.0], phi=-1.0, t_end=40.0)
        np.testing.assert_allclose(traj.states[-1], [0.5, 0.5], atol=1e-10)

    def test_projection_matches_nonlinear_flow(self):
        rng = stream(206)
        for m in cyclic_matrices(8, seed=207, d_range=(3, 6)):
            x0 = interior_state(m.d, rng)
            direct = integrate(m, x0, t_end=15.0)
            projected = integrate_projective(m, x0, phi=-1.0, t_end=15.0)
            np.testing.assert_allclose(projected.states[-1],
                                       direct.states[-1], atol=1e-6)

    def test_phi_independence(self):
        rng = stream(208)
        for m in cyclic_matrices(6, seed=209, d_range=(3, 6)):
            x0 = interior_state(m.d, rng)
            finals = [integrate_projective(m, x0, phi=phi, t_end=20.0).states[-1]
                      for phi in (-1.0, 0.0, 0.5)]
            for i in range(len(finals)):
                for j in range(i + 1, len(finals)):
                    np.testing.assert_allclose(finals[i], finals[j], atol=1e-6)

    def test_expm_method_matches_rk4(self, example2):
        rk = integrate_projective(example2, uniform_state(3), phi=-1.0, t_end=10.0)
        ex = integrate_projective(example2, uniform_state(3), phi=-1.0,
                                  t_end=10.0, method="expm")
        np.testing.assert_allclose(rk.states[-1], ex.states[-1], atol=1e-8)

    def test_rejects_negative_start(self, example2):
        with pytest.raises(ValueError):
            integrate_projective(example2, [-0.1, 0.6, 0.5])

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phi(self, example2, phi):
        with pytest.raises(ValueError, match="phi"):
            integrate_projective(example2, uniform_state(3), phi=phi, t_end=1.0)

    def test_collapsed_mass_raises(self):
        # on the edge 0 -> 1 one RK4 step of size h = 10 at phi = 0.3 maps
        # e_0 to R(-3) e_0 + 10 R'(-3) e_1 with R the RK4 polynomial: mass
        # 1.375 - 20 < 0
        m = InteractionMatrix.from_edges(2, [(0, 1)])
        with pytest.raises(NonConvergenceError, match="collapsed"):
            integrate_projective(m, [1.0, 0.0], phi=0.3, t_end=10.0, h=10.0)

    def test_overflowing_mass_raises(self, example2):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="overflowed"):
                integrate_projective(example2, uniform_state(3), phi=-1e100,
                                     t_end=1.0, h=0.5)


class TestEquilibrium:
    def test_example1(self, example1):
        eq = equilibrium(example1)
        np.testing.assert_allclose(eq.x_star, [0.5, 0.5, 0.0], atol=1e-9)
        assert eq.kind == "acs_supported"
        assert eq.support.tolist() == [0, 1]
        assert eq.zero_set.tolist() == [2]

    def test_example2(self, example2):
        eq = equilibrium(example2)
        np.testing.assert_allclose(eq.x_star, [1 / 3] * 3, atol=1e-10)
        assert eq.support.tolist() == [0, 1, 2]

    def test_example3_from_uniform(self, example3):
        eq = equilibrium(example3)
        np.testing.assert_allclose(eq.x_star, [0.25] * 4, atol=1e-10)

    def test_example4_only_downstream_survives(self, example4):
        eq = equilibrium(example4)
        np.testing.assert_allclose(eq.x_star, [0, 0, 0.5, 0.5], atol=1e-9)
        assert eq.zero_set.tolist() == [0, 1]
        assert eq.residual <= 1e-10

    def test_chain_lands_on_deepest_terminal(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        eq = equilibrium(m)
        np.testing.assert_allclose(eq.x_star, [0, 0, 1], atol=1e-12)
        assert eq.kind == "terminal_supported"

    def test_acyclic_limit_matches_long_integration(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        rng = stream(210)
        x0 = interior_state(3, rng)
        traj = integrate(m, x0, t_end=2000.0, h=0.05)
        eq = equilibrium(m, x0=x0)
        # terminal component approaches 1 like O(1/t)
        assert abs(traj.states[-1][2] - eq.x_star[2]) < 5e-3

    def test_degenerate_zero_matrix(self):
        m = InteractionMatrix.zero(4)
        eq = equilibrium(m, x0=[0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(eq.x_star, [0.4, 0.3, 0.2, 0.1])
        assert eq.kind == "degenerate_no_edges"
        assert eq.residual == 0.0

    def test_analytic_example3_equal_weights_flagged(self, example3):
        eq = equilibrium(example3, analytic=True)
        np.testing.assert_allclose(eq.x_star, [0.25] * 4, atol=1e-12)
        assert eq.non_unique

    def test_analytic_example4_unique(self, example4):
        eq = equilibrium(example4, analytic=True)
        np.testing.assert_allclose(eq.x_star, [0, 0, 0.5, 0.5], atol=1e-10)
        assert not eq.non_unique

    def test_analytic_acyclic_equal_weights_on_argmax_terminals(self):
        # two components: chain to 2, edge to 4; p(2)=2 beats p(4)=1
        m = InteractionMatrix.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        eq = equilibrium(m, analytic=True)
        np.testing.assert_allclose(eq.x_star, [0, 0, 1, 0, 0], atol=1e-12)
        assert not eq.non_unique

    def test_cyclic_limit_is_acs_supported(self):
        rng = stream(211)
        for m in cyclic_matrices(40, seed=212, d_range=(3, 8)):
            eq = equilibrium(m, x0=interior_state(m.d, rng))
            assert eq.residual <= 1e-10
            assert is_acs(m, eq.support)

    def test_acyclic_limit_kills_non_terminals(self):
        count = 0
        for m in random_matrices(160, seed=213, d_range=(3, 8), p_range=(0.05, 0.3)):
            if has_directed_cycle(m) or m.edge_count() == 0:
                continue
            eq = equilibrium(m)
            term = set(terminal_vertices(m).tolist())
            assert set(eq.support.tolist()) <= term
            count += 1
        assert count > 40

    def test_deep_chain_beats_wide_star_in_the_flow_limit(self):
        # the flow limit concentrates on endpoints of the longest paths
        # (the t^m term of exp(tC) x0 dominates), which can differ from the
        # terminal with the most ancestors that the analytic picker uses:
        # chain a->b->c (2 ancestors at c) vs star s1,s2,s3->t (3 at t)
        m = InteractionMatrix.from_edges(
            7, [(0, 1), (1, 2), (3, 6), (4, 6), (5, 6)])
        flow = equilibrium(m)  # from uniform x0
        np.testing.assert_allclose(flow.x_star,
                                   [0, 0, 1, 0, 0, 0, 0], atol=1e-12)
        analytic = equilibrium(m, analytic=True)
        np.testing.assert_allclose(analytic.x_star,
                                   [0, 0, 0, 0, 0, 0, 1], atol=1e-12)
        # the medium-horizon trajectory is already drifting toward the
        # deep terminal, away from the analytic pick
        traj = integrate(m, uniform_state(7), t_end=300.0, h=0.02)
        assert traj.states[-1][2] > 0.9

    def test_supplied_x0_changes_weights_between_components(self):
        # two disjoint edges: the limit splits mass by the source weights
        m = InteractionMatrix.from_edges(4, [(0, 1), (2, 3)])
        eq = equilibrium(m, x0=[0.6, 0.0, 0.2, 0.2])
        np.testing.assert_allclose(eq.x_star, [0, 0.75, 0, 0.25], atol=1e-12)

    def test_non_convergence_raises(self, example4):
        with pytest.raises(NonConvergenceError):
            equilibrium(example4, max_doublings=2, tol=1e-14)

    def test_start_that_reaches_no_cycle(self):
        # the 2-cycle grows fastest, but the start never reaches it: the
        # flow stays on 2 -> 3 and ends at e_3
        m = InteractionMatrix.from_edges(4, [(0, 1), (1, 0), (2, 3)])
        eq = equilibrium(m, x0=[0, 0, 1, 0])
        np.testing.assert_array_equal(eq.x_star, [0, 0, 0, 1])
        assert eq.kind == "terminal_supported"
        # a start on a sink is already stationary
        np.testing.assert_array_equal(
            equilibrium(m, x0=[0, 0, 0, 1]).x_star, [0, 0, 0, 1])

    def test_sparse_starts_on_random_graphs(self):
        # half-zero starts often miss the fastest-growing block; each
        # limit must be stationary and stay where the start can reach
        rng = stream(515)
        for _ in range(600):
            d = int(rng.integers(3, 30))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.3, 2.5))), rng)
            x0 = np.where(rng.random(d) < 0.5, rng.random(d), 0.0)
            x0[int(rng.integers(d))] += 0.1
            x0 /= x0.sum()
            eq = equilibrium(m, x0=x0)
            reach = floyd_warshall_reachability(m.entries)
            live = (x0 > 0) | reach[x0 > 0].any(axis=0)
            assert eq.residual <= 1e-9
            assert live[eq.support].all()

    def test_defective_case_time_stepping_is_slow(self, example4):
        # the two chained 2-cycles give a defective leading eigenvalue:
        # time integration approaches the limit only like 1/t, while the
        # linear-cone solver reaches machine-level residuals
        traj = integrate(example4, uniform_state(4), t_end=200.0)
        assert traj.residuals[-1] > 1e-6
        eq = equilibrium(example4)
        assert eq.residual < 1e-10
        np.testing.assert_allclose(traj.states[-1], eq.x_star, atol=0.01)


def dense_flow_limit(C, x0, tol=1e-10, zero_tol=1e-9):
    """The flow limit with the dense squaring, on the reachable vertices."""
    d = C.d
    start = np.full(d, 1.0 / d) if x0 is None else np.asarray(x0, dtype=float)
    reach = floyd_warshall_reachability(C.entries)
    live = (start > 0) | reach[start > 0].any(axis=0)
    sub = C.entries[np.ix_(live, live)]
    a = sub.astype(float)
    x = np.zeros(d)
    if brute_force_directed_cycle(sub):
        x[live] = dense_dominant_direction(a, start[live], tol, zero_tol, 70)
    else:
        x[live] = dynamics._nilpotent_limit(a, start[live])
    return x


def covering_rows(groups, d):
    """Map each vertex to the (stack, row) of the block that holds it."""
    where = {}
    for g, idx in enumerate(groups):
        for r, row in enumerate(idx):
            for v in row[row < d]:
                assert int(v) not in where
                where[int(v)] = (g, r)
    assert sorted(where) == list(range(d))
    return where


class TestBlockSolver:
    """The block-diagonal squaring against the dense one it replaced."""

    def test_matches_dense_oracle_on_seeded_corpus(self):
        rng = stream(4242)
        cyclic = 0
        for case in range(160):
            d = int(rng.integers(2, 121))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.3, 2.5))), rng)
            x0 = None
            if case % 2:
                x0 = np.where(rng.random(d) < 0.3, rng.random(d), 0.0)
                x0[int(rng.integers(d))] += 0.1
                x0 /= x0.sum()
            eq = equilibrium(m, x0=x0)
            x = dense_flow_limit(m, x0)
            support, _, kind = dynamics._classify(m.as_float(), x, 1e-9,
                                                  m.edge_count() > 0)
            np.testing.assert_array_equal(eq.support, support)
            assert eq.kind == kind
            np.testing.assert_allclose(eq.x_star, x, rtol=0, atol=1e-6)
            cyclic += kind == "acs_supported"
        assert cyclic >= 60

    def test_adaptive_replay_matches_dense_oracle(self, monkeypatch):
        params = ModelParams.from_theta(400, 0.5)
        fast = [run_adaptive(params, seed=s, max_steps=25, plant_cycle=2)
                for s in range(3)]
        monkeypatch.setattr(dynamics, "_dominant_direction",
                            dense_dominant_direction)
        for s, trace in enumerate(fast):
            dense = run_adaptive(params, seed=s, max_steps=25, plant_cycle=2)
            assert ([r.chosen for r in trace.records]
                    == [r.chosen for r in dense.records])
            for r, q in zip(trace.records, dense.records):
                assert abs(r.lam - q.lam) <= 1e-12

    def test_component_labels_match_brute_force(self):
        rng = stream(77)
        for _ in range(60):
            d = int(rng.integers(2, 150))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 2.0))), rng)
            und = m.entries | m.entries.T
            reach = floyd_warshall_reachability(und) | np.eye(d, dtype=bool)
            expect = reach.argmax(axis=0)  # smallest vertex joined to each
            labels = dynamics._weak_component_labels(m.as_float())
            np.testing.assert_array_equal(labels, expect)

    def test_equal_size_components_share_one_stack(self):
        # 20 two-cycles, 10 three-cycles and 30 isolated vertices, with
        # shuffled names: every component fits a tile, so one stack of
        # tiles holds them all, and none is split between two tiles
        rng = stream(9)
        perm = rng.permutation(100)
        edges = []
        for k in range(20):
            edges += [(2 * k, 2 * k + 1), (2 * k + 1, 2 * k)]
        for k in range(10):
            u = 40 + 3 * k
            edges += [(u, u + 1), (u + 1, u + 2), (u + 2, u)]
        m = InteractionMatrix.from_edges(
            100, [(int(perm[u]), int(perm[v])) for u, v in edges])
        groups = dynamics._block_layout(m.as_float())
        assert len(groups) == 1 and groups[0].shape[1] == dynamics._TILE
        where = covering_rows(groups, 100)
        for u, v in edges:
            assert where[int(perm[u])] == where[int(perm[v])]
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_large_components_stack_by_size(self):
        # three 40-cycles are one (3, 40) stack; the 20 isolated vertices
        # share a tile
        edges = []
        for c in range(3):
            ring = list(range(c, 120, 3))
            edges += list(zip(ring, ring[1:] + ring[:1]))
        m = InteractionMatrix.from_edges(140, edges)
        groups = dynamics._block_layout(m.as_float())
        assert sorted(g.shape for g in groups) == [(1, 32), (3, 40)]
        rings = next(g for g in groups if g.shape == (3, 40))
        np.testing.assert_array_equal(rings, np.arange(120).reshape(40, 3).T)
        covering_rows(groups, 140)
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_single_component_is_one_block(self):
        d = 100
        ring = [(v, (v + 1) % d) for v in range(d)]
        m = InteractionMatrix.from_edges(d, ring + [(0, 50), (70, 20)])
        groups = dynamics._block_layout(m.as_float())
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], np.arange(d)[None, :])
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_small_graph_is_one_block(self):
        d = dynamics._ONE_BLOCK
        m = InteractionMatrix.from_edges(d, [(0, 1), (1, 0), (5, 6)])
        assert dynamics._block_layout(m.as_float()) is None
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)
        m = InteractionMatrix.from_edges(d + 1, [(0, 1), (1, 0), (5, 6)])
        assert len(dynamics._block_layout(m.as_float())) == 1


@pytest.mark.xfail(strict=True, raises=NonConvergenceError, reason=(
    "known defect: _pf_vector_irreducible stops at tol*max(1, lambda), but "
    "equilibrium(analytic=True) checks the absolute max(tol, 1e-9), so a "
    "graph with lambda ~ 10 fails at residual 1.0e-9"))
def test_analytic_equilibrium_with_large_lambda():
    rng = stream(10271)
    d = int(rng.integers(3, 40))
    p = float(rng.uniform(0.02, 0.3))
    m = sample_er_digraph(ModelParams(d=d, p=p), rng)
    assert d == 39
    assert equilibrium(m).residual < 1e-12
    eq = equilibrium(m, analytic=True)
    assert eq.residual <= 1e-9


class TestEquilibriumSetBasis:
    def test_example3_basis_and_convex_combinations(self, example3):
        basis = equilibrium_set_basis(example3)
        assert basis.non_unique
        got = sorted(tuple(np.round(v, 9)) for v in basis.vectors)
        assert got == [(0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0)]
        rng = stream(214)
        a = example3.as_float()
        for _ in range(20):
            b = rng.random()
            x = b * basis.vectors[0] + (1 - b) * basis.vectors[1]
            cx = a @ x
            assert np.abs(cx - cx.sum() * x).sum() <= 1e-10

    def test_chain_edge_basis(self):
        m = InteractionMatrix.from_edges(2, [(0, 1)])
        basis = equilibrium_set_basis(m)
        assert basis.kind == "terminal_supported"
        np.testing.assert_allclose(basis.vectors[0], [0, 1])
        assert not basis.non_unique

    def test_acyclic_vectors_are_equilibria(self):
        checked = 0
        for m in random_matrices(120, seed=215, d_range=(3, 6), p_range=(0.05, 0.3)):
            if has_directed_cycle(m) or m.edge_count() == 0:
                continue
            basis = equilibrium_set_basis(m)
            pc = path_counts(m)
            term = terminal_vertices(m)
            best = set(term[pc[term] == pc[term].max()].tolist())
            for v in basis.vectors:
                assert np.abs(vector_field(m, v)).sum() <= 1e-12
                assert set(np.flatnonzero(v).tolist()) <= best
            checked += 1
        assert checked > 30

    def test_example3_integration_limits_stay_in_hull(self, example3):
        # limits from several starts lie on the segment between the two
        # basis vectors: (a/2, a/2, b/2, b/2) with a + b = 1
        rng = stream(216)
        for _ in range(5):
            x0 = interior_state(4, rng)
            final = integrate(example3, x0, t_end=60.0).states[-1]
            a = final[0] + final[1]
            hull_point = np.array([a / 2, a / 2, (1 - a) / 2, (1 - a) / 2])
            assert np.abs(final - hull_point).max() <= 1e-6


class TestAndi:
    def test_acyclic_sequences_vanish_past_nilpotency(self):
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        av = andi_sequences(m, uniform_state(3), 6)
        assert av.r[2:].max() == 0.0
        assert av.r[0] > 0

    def test_two_cycle_preserves_sums(self):
        m = InteractionMatrix.from_edges(2, TWO_CYCLE)
        av = andi_sequences(m, [0.5, 0.5], 8)
        np.testing.assert_allclose(av.r, 1.0, atol=1e-14)

    def test_r_equals_row_sums_of_R(self):
        rng = stream(217)
        for m in random_matrices(30, seed=218):
            av = andi_sequences(m, interior_state(m.d, rng), 5)
            np.testing.assert_allclose(av.r, av.R.sum(axis=1), atol=1e-12)

    def test_equilibrium_trajectory_residual_vanishes(self, example2):
        traj = integrate(example2, [1 / 3] * 3, t_end=1.0, h=1e-3)
        assert andi_residual(example2, traj, 2) <= 1e-8

    def test_second_order_in_h(self):
        count = 0
        for m in cyclic_matrices(6, seed=219, d_range=(4, 6)):
            rng = stream(220 + count)
            x0 = interior_state(m.d, rng)
            for n in (1, 2, 3):
                res_h = andi_residual(m, integrate(m, x0, 2.0, h=1e-3), n)
                res_h2 = andi_residual(m, integrate(m, x0, 2.0, h=5e-4), n)
                if res_h < 1e-11:
                    continue
                assert 3.5 <= res_h / res_h2 <= 4.5
            count += 1
        assert count == 6

    def test_n1_matches_analytic_derivative(self, example4):
        # dr_1/dt computed by differencing must match the exact chain rule
        # value sum_j (C f(x))_j evaluated on the sampled states
        h = 1e-3
        traj = integrate(example4, [0.4, 0.3, 0.2, 0.1], t_end=1.0, h=h)
        a = example4.as_float()
        r1 = (traj.states @ a.T).sum(axis=1)
        lhs = (r1[2:] - r1[:-2]) / (2 * h)
        exact = np.array([(a @ (a @ x - (a @ x).sum() * x)).sum()
                          for x in traj.states[1:-1]])
        assert np.abs(lhs - exact).max() < 1e-6

    def test_too_few_samples_rejected(self, example2):
        traj = integrate(example2, uniform_state(3), t_end=0.01, h=0.01)
        with pytest.raises(ValueError):
            andi_residual(example2, traj, 1)


class TestSerialisation:
    def test_trajectory_csv_header(self, example2):
        traj = integrate(example2, uniform_state(3), t_end=0.1)
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "t,x_0,x_1,x_2,residual"
        assert len(text.splitlines()) == traj.times.size + 1

    def test_equilibrium_json_schema(self, example1):
        doc = equilibrium_to_json_dict(equilibrium(example1))
        assert set(doc) == {"x_star", "residual", "support", "kind", "non_unique"}
        assert doc["support"] == [0, 1]

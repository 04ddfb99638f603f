import io
import json

import numpy as np
import pytest

from jknet import (
    InteractionMatrix,
    ModelParams,
    NonConvergenceError,
    andi_residual,
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
from jknet import dynamics, graph
from jknet.adaptation import plant_directed_cycle, run_adaptive
from jknet.dynamics import Trajectory, equilibrium_to_json_dict, trajectory_to_csv
from jknet.rng import stream

import oracles
from conftest import interior_state, random_matrices
from oracles import (
    arc_nilpotent_limit,
    dense_block_stacks,
    dense_component_labels,
    dense_dominant_direction,
    dense_equilibrium_set_basis,
    dense_flow_equilibrium,
    dense_reachable_from,
    dense_spectral_radius_pf,
    every_block_layout,
    floyd_warshall_reachability,
    joined_trajectory_csv,
    list_integrate,
    list_integrate_projective,
    naive_vector_field,
    peeled_flow_limit,
    relative_pf_vector,
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

    def test_rejects_non_finite_component(self):
        with pytest.raises(ValueError, match="non-finite"):
            simplex_vector([np.nan, 0.5, 0.5])

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

    def test_adaptive_run_ends_on_its_rounding_remainder(self, example1):
        # 5,000 steps of 0.01 leave a ~1.4e-12 remainder to t = 50; the step
        # size doubled from that last step is no underflow
        traj = integrate(example1, uniform_state(3), t_end=50.0, h=0.01,
                         adaptive=True)
        assert len(traj.times) == 5002
        assert traj.times[-1] == 50.0

    def test_rejects_non_finite_start(self, example2):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(example2, [np.nan, 0.5, 0.5], t_end=1.0)

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
            traj = integrate(m, interior_state(m.d, rng), t_end=30.0)
            resid = traj.residuals[::50]
            keep = resid > 1e-13
            t = traj.times[::50][keep][5:]
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

    def test_rk4_matches_exact_propagator(self, example2):
        linalg = pytest.importorskip("scipy.linalg")
        y0 = uniform_state(3)
        rk = integrate_projective(example2, y0, phi=-1.0, t_end=10.0)
        # y(t) = exp(t (C - phi I)) y0
        y = linalg.expm(10.0 * (example2.as_float() + np.eye(3))) @ y0
        np.testing.assert_allclose(rk.states[-1], y / y.sum(), rtol=0, atol=1e-8)

    def test_rejects_negative_start(self, example2):
        with pytest.raises(ValueError):
            integrate_projective(example2, [-0.1, 0.6, 0.5])

    def test_rejects_non_finite_start(self, example2):
        with pytest.raises(ValueError, match="finite"):
            integrate_projective(example2, [np.nan, 0.5, 0.5])

    @pytest.mark.parametrize("t_end, h", [(50.0, 0.01), (10.0, 0.01), (0.3, 0.1),
                                          (2.0, 0.3), (1.0, 2.0)])
    def test_shares_the_simplex_flows_time_grid(self, example2, t_end, h):
        x0 = [0.7, 0.2, 0.1]
        times = integrate_projective(example2, x0, phi=0.5, t_end=t_end, h=h).times
        assert _bits(times) == _bits(integrate(example2, x0, t_end=t_end, h=h).times)
        if (t_end, h) == (50.0, 0.01):
            assert times.size == 5002
        if (t_end, h) == (10.0, 0.01):
            assert times[-1] == 9.999999999999831

    def test_drift_is_the_cones_mass_change_per_unit_time(self):
        # on the 2-cycle at phi = -1 the cone mass grows by R(2h) per step
        # from the uniform state, R the RK4 polynomial of exp
        m = InteractionMatrix.from_edges(2, TWO_CYCLE)
        traj = integrate_projective(m, [0.5, 0.5], phi=-1.0, t_end=1.0, h=0.01)
        z = 0.02
        growth = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        assert traj.mass_drift_rate == pytest.approx((growth - 1) / 0.01, rel=1e-12)

    def test_undershoot_raises(self):
        # the 0 -> 1 edge's step at h = 10, phi = 0.3 leaves y_1 < 0, while
        # the 2-cycle's growth keeps the mass positive
        m = InteractionMatrix.from_edges(4, [(0, 1), (2, 3), (3, 2)])
        with pytest.raises(FloatingPointError, match="undershoot"):
            integrate_projective(m, [0.5, 0.0, 0.25, 0.25], phi=0.3, t_end=10.0,
                                 h=10.0)

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


def _projective_cases(count=12, seed=2025):
    """Seeded graphs with d from 3 to 8, a start (some with zeros), and
    each phi of -1, 0, 0.5 with each t_end of 5, 10, 20, 50."""
    rng = stream(seed)
    cases = []
    for i, m in enumerate(random_matrices(count, seed=seed)):
        y0 = interior_state(m.d, rng)
        if i % 4 == 1:
            y0[: m.d // 2] = 0.0
        phi, t_end = (-1.0, 0.0, 0.5)[i % 3], (5.0, 10.0, 20.0, 50.0)[i % 4]
        cases.append(pytest.param(m, y0, phi, t_end,
                                  id=f"d{m.d}-phi{phi}-t{t_end:g}"))
    return cases


class TestIntegrateProjectiveMatchesListOracle:
    """The cone run on integrate's driver against its own list loop, which
    counts ceil(t_end / h) steps and cuts the last one to end at t_end."""

    @pytest.mark.parametrize("m, y0, phi, t_end", _projective_cases())
    def test_bit_equal_rows_and_close_final_state(self, m, y0, phi, t_end):
        times, states, residuals = list_integrate_projective(m, y0, phi=phi,
                                                             t_end=t_end)
        traj = integrate_projective(m, y0, phi=phi, t_end=t_end)
        # the grids differ only in their last step: a rounding remainder
        # here, a step cut to end at t_end there
        shared = min(times.size, traj.times.size) - 1
        assert shared >= 499
        assert _bits(traj.states[:shared]) == _bits(states[:shared])
        assert _bits(traj.residuals[:shared]) == _bits(residuals[:shared])
        np.testing.assert_allclose(traj.states[-1], states[-1], rtol=0, atol=1e-12)


class TestEquilibrium:
    @pytest.mark.parametrize("m", [InteractionMatrix.from_edges(3, [(0, 1), (1, 0)]),
                                   InteractionMatrix.zero(3)], ids=["edges", "zero"])
    def test_rejects_non_finite_start(self, m):
        with pytest.raises(ValueError, match="non-finite"):
            equilibrium(m, x0=[np.nan, 0.5, 0.5])

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
        # the analytic pick is the barycentre of the basis e_0, ..., e_3
        basis = equilibrium_set_basis(m)
        np.testing.assert_array_equal(basis.vectors, np.eye(4))
        eq = equilibrium(m, analytic=True)
        np.testing.assert_array_equal(eq.x_star, uniform_state(4))
        assert eq.kind == "degenerate_no_edges" and eq.non_unique

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

    def test_analytic_ties_get_exactly_equal_weights(self):
        # seven edges i -> 7 + i: seven tied terminals; a rescaled mean
        # would round, since seven entries of 1/7 do not sum to 1.0
        m = InteractionMatrix.from_edges(14, [(i, 7 + i) for i in range(7)])
        eq = equilibrium(m, analytic=True)
        np.testing.assert_array_equal(eq.x_star, [0.0] * 7 + [1.0 / 7] * 7)
        assert eq.kind == "terminal_supported" and eq.non_unique

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

    def test_non_convergence_raises(self, example4, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_DOUBLINGS", 2)
        with pytest.raises(NonConvergenceError):
            equilibrium(example4)

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


    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("pad", [0, 70], ids=["one block", "blocks"])
    def test_defective_chains_polish_out_of_the_band(self, k, pad):
        # k chained 2-cycles: a Jordan chain of length k at lambda = 1.
        # Upstream entries only halve per squaring, which counts as still
        # moving, so the polish runs them below the band's 1e-12 floor
        edges = []
        for c in range(0, 2 * k, 2):
            edges += [(c, c + 1), (c + 1, c)] + ([(c - 2, c)] if c else [])
        eq = equilibrium(InteractionMatrix.from_edges(2 * k + pad, edges))
        assert eq.support.tolist() == [2 * k - 2, 2 * k - 1]
        assert eq.x_star[:2 * k - 2].max() <= dynamics.ZERO_TOL * 1e-3


def dense_flow_limit(C, x0, tol=1e-10, zero_tol=1e-9):
    """The flow limit with the whole dense I + C squared."""
    return dense_flow_equilibrium(C.entries, x0, tol, zero_tol, 70,
                                  lambda sub: None)[0]


class _BlocksCut(Exception):
    """Raised where the solve turns from its blocks to the trees."""


def blocks_the_solve_cuts(monkeypatch, m):
    """The vertex sets ``_dominant_direction`` cuts its blocks of I + C on,
    in order, and the trees' vertices: each ``_induced`` call made before
    the trees' Krylov rows are formed (the record's blocks, cut in
    ``graph``), and the one for those rows. The solve is stopped there."""
    cuts = []
    inner = graph._induced

    def induced(C, verts):
        cuts.append(np.asarray(verts).tolist())
        return inner(C, verts)

    def krylov(*args):
        raise _BlocksCut

    for module in (graph, dynamics):
        monkeypatch.setattr(module, "_induced", induced)
    monkeypatch.setattr(dynamics, "_krylov", krylov)
    with pytest.raises(_BlocksCut):
        dynamics._dominant_direction(m, uniform_state(m.d))
    monkeypatch.undo()
    return cuts[:-1], cuts[-1]


def whole_components(entries):
    """The weak components, smallest vertex first, each as a sorted list,
    with whether it has at least as many edges as vertices."""
    label = dense_component_labels(entries)
    comps = [np.flatnonzero(label == r).tolist()
             for r in np.flatnonzero(label == np.arange(label.size))]
    return [(c, int(entries[np.ix_(c, c)].sum()) >= len(c)) for c in comps]


def counted(monkeypatch, module, name):
    """Wrap ``module.name`` to count its calls; returns the count list."""
    calls, inner = [], getattr(module, name)

    def wrapper(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def solved_beside_the_oracle(monkeypatch, m, x0):
    """``equilibrium(m, x0)`` and the oracle's ``(x, lam)``, squaring every
    weak component, with the squarings each made, and how the library
    squared: "trees" if it followed trees as polynomials, else "blocks"."""
    residuals = counted(monkeypatch, dynamics, "_arc_residual")
    trees = []  # the vertices each Krylov basis was formed on
    inner = dynamics._krylov

    def krylov(n, dst, src, x):
        trees.append(n)
        return inner(n, dst, src, x)

    monkeypatch.setattr(dynamics, "_krylov", krylov)
    eq = equilibrium(m, x0=x0)
    squarings = len(residuals)
    how = "trees" if any(trees) else "blocks"
    # the oracle makes one residual per squaring, and one at the end
    oracle_residuals = counted(monkeypatch, oracles, "_residual")
    x, lam, _ = dense_flow_equilibrium(
        m.entries, x0, graph.TOL, dynamics.ZERO_TOL, dynamics.MAX_DOUBLINGS,
        every_block_layout)
    monkeypatch.undo()
    return eq, x, lam, squarings, len(oracle_residuals) - 1, how


def assert_within_the_oracle_bounds(eq, x, lam, squarings, oracle_squarings):
    """Support, zero set, kind and squaring count equal the oracle's;
    lambda within 1e-15 relative, and every x_star entry within 1e-15
    relative or 1e-290 absolute (denormal and underflowed entries)."""
    support, zero_set, kind = dynamics._classify(lam, x, True)
    np.testing.assert_array_equal(eq.support, support)
    np.testing.assert_array_equal(eq.zero_set, zero_set)
    assert eq.kind == kind
    assert squarings == oracle_squarings
    assert abs(eq.lam - lam) <= 1e-15 * abs(lam)
    gap = np.abs(eq.x_star - x)
    bad = (gap > 1e-15 * np.abs(x)) & (gap > 1e-290)
    assert not bad.any(), (np.flatnonzero(bad), eq.x_star[bad], x[bad])


def _path(first, n):
    return [(v, v + 1) for v in range(first, first + n - 1)]


def _mass_on(d, where):
    x0 = np.zeros(d)
    x0[where] = 1.0
    return x0 / x0.sum()


# name: (d, edges, start or None, support), each beside the planted
# 2-cycle {0, 1}; every graph has more than _ONE_BLOCK vertices and a
# tree component, so trees are followed as polynomials
HAND_MADE = {
    # L = 39: the top coefficients of p fall far below the rest
    "a 40-vertex path": (70, _path(2, 40), None, [0, 1]),
    # s = 2 -> five middles -> t = 8, and s -> t: (I + N)^2 has 7 at
    # (t, s), over the 2-cycle block's 2, so the divisor of the first
    # squaring comes from this acyclic component. It is no tree, and is
    # squared as a block
    "parallel paths": (70, [(2, v) for v in range(3, 8)]
                       + [(v, 8) for v in range(3, 8)] + [(2, 8)], None, [0, 1]),
    "isolated vertices": (70, [], None, [0, 1]),
    # mass on 0, the path's head and the out-tree's root: the rest of
    # those components is reached, the 20 isolated vertices are not
    "a start with zeros": (100, [(1, 2), (2, 3)] + _path(4, 40)
                           + [(44 + v, 44 + c) for v in range(17)
                              for c in (2 * v + 1, 2 * v + 2) if c < 36],
                           _mass_on(100, [0, 4, 44, 50]), [0, 1, 2, 3]),
    # from {0} and the path's head the supports alternate on the
    # 2-cycle, so only the C.d bound ends the power loop
    "alternating supports": (72, _path(2, 70), _mass_on(72, [0, 2]), [0, 1]),
}


class TestBlockSolver:
    """The squaring of the components that are not trees, with the trees
    followed as polynomials, against every block squared."""

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
            lam = float((m.as_float() @ x).sum())
            support, _, kind = dynamics._classify(lam, x, m.edge_count() > 0)
            np.testing.assert_array_equal(eq.support, support)
            assert eq.kind == kind
            np.testing.assert_allclose(eq.x_star, x, rtol=0, atol=1e-6)
            cyclic += kind == "acs_supported"
        assert cyclic >= 60

    def test_adaptive_replay_matches_dense_oracle(self, monkeypatch):
        params = ModelParams.from_theta(400, 0.5)
        fast = [run_adaptive(params, seed=s, max_steps=25, plant_cycle=2)
                for s in range(3)]
        monkeypatch.setattr(
            dynamics, "_dominant_direction",
            lambda C, x0: dense_dominant_direction(
                C.as_float(), x0, dynamics.TOL, dynamics.ZERO_TOL,
                dynamics.MAX_DOUBLINGS))
        for s, trace in enumerate(fast):
            dense = run_adaptive(params, seed=s, max_steps=25, plant_cycle=2)
            assert ([r.chosen for r in trace.records]
                    == [r.chosen for r in dense.records])
            for r, q in zip(trace.records, dense.records):
                assert abs(r.lam - q.lam) <= 1e-12

    def test_edge_list_path_matches_dense_path_bit_for_bit(self, monkeypatch):
        # the flow path reads C.arcs; the oracle squares every block, cut
        # from a dense I + C, with dense products throughout. Where the
        # library squares every block too (d <= _ONE_BLOCK, or no tree
        # beside the other components) the two agree bit for bit; where it
        # follows trees as polynomials, to the bounds of
        # assert_within_the_oracle_bounds
        rng = stream(2718)
        kinds = set()
        for case in range(60):
            d = int(np.exp(rng.uniform(np.log(12), np.log(1000))))
            theta = float(rng.uniform(0.3, 3.0))
            m = sample_er_digraph(ModelParams.from_theta(d, theta), rng)
            if case % 3 == 0:
                m = plant_directed_cycle(m, 2)
            x0 = None
            if case % 2:
                x0 = np.where(rng.random(d) < 0.3, rng.random(d), 0.0)
                x0[int(rng.integers(d))] += 0.1
                x0 /= x0.sum()
            eq, x, lam, squarings, oracle_squarings, how = (
                solved_beside_the_oracle(monkeypatch, m, x0))
            support, _, kind = dynamics._classify(lam, x, m.edge_count() > 0)
            if how == "trees":
                assert_within_the_oracle_bounds(eq, x, lam, squarings,
                                                oracle_squarings)
            else:
                np.testing.assert_array_equal(eq.x_star, x)
                np.testing.assert_array_equal(eq.support, support)
                assert eq.kind == kind
                assert abs(eq.lam - lam) <= 1e-12 * max(1.0, abs(lam))
            kinds.add((kind, x0 is None, d > dynamics._ONE_BLOCK, how))
        assert len(kinds) == 10, sorted(kinds)

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made_cases_match_every_block_squared(self, monkeypatch, case):
        d, edges, x0, support = HAND_MADE[case]
        m = InteractionMatrix.from_edges(d, TWO_CYCLE + edges)
        eq, x, lam, squarings, oracle_squarings, how = (
            solved_beside_the_oracle(monkeypatch, m, x0))
        assert how == "trees" and eq.kind == dynamics.KIND_ACS
        assert_within_the_oracle_bounds(eq, x, lam, squarings, oracle_squarings)
        assert eq.support.tolist() == support

    def test_the_parallel_paths_outgrow_the_cycle_at_first(self):
        d, edges, _, _ = HAND_MADE["parallel paths"]
        one = np.eye(d) + InteractionMatrix.from_edges(d, TWO_CYCLE + edges).as_float()
        square = one @ one
        assert square[2:9, 2:9].max() == 7 > square[:2, :2].max() == 2

    def test_the_alternating_supports_exit_at_the_bound(self):
        d, edges, x0, _ = HAND_MADE["alternating supports"]
        m = InteractionMatrix.from_edges(d, TWO_CYCLE + edges)
        a, y = m.as_float(), x0
        for _ in range(d):
            nxt = a @ y
            assert (nxt > 0).tolist() != (y > 0).tolist()
            y = nxt
        assert dynamics._nilpotent_limit(m, x0) is None

    @pytest.mark.parametrize("cycle, path", [(4, 5), (6, 8), (5, 30)])
    def test_a_tree_that_may_set_the_divisor_matches_every_block_squared(
            self, monkeypatch, cycle, path):
        # a cycle beside a path: the second squaring's largest entries tie
        # at 6/4 = 1.5 in both blocks, and at the third the path's comes
        # within an ulp of the 6-cycle's and the 5-cycle's, so the path's
        # top coefficient of p may set the divisor. Beside the 4-cycle
        # every bit is the oracle's
        m = InteractionMatrix.from_edges(
            70, [(v, (v + 1) % cycle) for v in range(cycle)] + _path(cycle, path))
        eq, x, lam, squarings, oracle_squarings, how = (
            solved_beside_the_oracle(monkeypatch, m, None))
        assert how == "trees" and eq.kind == dynamics.KIND_ACS
        assert_within_the_oracle_bounds(eq, x, lam, squarings, oracle_squarings)
        assert eq.support.tolist() == list(range(cycle))
        if (cycle, path) == (4, 5):
            np.testing.assert_array_equal(eq.x_star, x)

    def test_component_blocks_match_dense_extraction(self, monkeypatch):
        # every component, or those that meet a random vertex sample: each
        # block of I + C cut from the edge list is the one a dense copy
        # cuts. On a whole graph the solve cuts one block per component
        # that is no tree, in the order of their smallest vertices, and
        # follows the rest as trees
        rng = stream(77)
        seen = set()
        for case in range(40):
            d = int(rng.integers(dynamics._ONE_BLOCK + 1, 400))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 2.5))), rng)
            label = dense_component_labels(m.entries)
            chosen = np.ones(d, dtype=bool)
            if case % 2:
                chosen[:] = False
                chosen[label[rng.random(d) < 0.05]] = True
                chosen[label[0]] = True
                chosen = chosen[label]
            comps = [(c, squared) for c, squared in whole_components(m.entries)
                     if chosen[c[0]]]
            a = m.as_float()
            for c, _ in comps:
                s, dst, src = graph._induced(m, np.array(c))
                block = np.eye(s)
                block[dst, src] = 1.0
                np.testing.assert_array_equal(
                    block, dense_block_stacks(a, [np.array([c])])[0][0])
            if case % 2 == 0:
                cut, trees = blocks_the_solve_cuts(monkeypatch, m)
                assert cut == [c for c, squared in comps if squared]
                assert trees == sorted(v for c, squared in comps if not squared
                                       for v in c)
            seen.add((case % 2, len(comps) > 1))
        assert seen == {(0, True), (1, False), (1, True)}

    def test_equal_size_components_are_one_block_each(self, monkeypatch):
        # 20 two-cycles, 10 three-cycles and 30 isolated vertices, with
        # shuffled names: a block per cycle, the isolated vertices trees
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
        cut, trees = blocks_the_solve_cuts(monkeypatch, m)
        assert sorted(len(c) for c in cut) == [2] * 20 + [3] * 10
        assert cut == [c for c, squared in whole_components(m.entries) if squared]
        assert trees == sorted(perm[70:].tolist())
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_three_40_cycles_are_three_blocks(self, monkeypatch):
        # three interleaved 40-cycles are three blocks, the 20 isolated
        # vertices trees
        edges = []
        for c in range(3):
            ring = list(range(c, 120, 3))
            edges += list(zip(ring, ring[1:] + ring[:1]))
        m = InteractionMatrix.from_edges(140, edges)
        cut, trees = blocks_the_solve_cuts(monkeypatch, m)
        assert cut == [list(range(c, 120, 3)) for c in range(3)]
        assert trees == list(range(120, 140))
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_single_component_is_one_block(self, monkeypatch):
        d = 100
        ring = [(v, (v + 1) % d) for v in range(d)]
        m = InteractionMatrix.from_edges(d, ring + [(0, 50), (70, 20)])
        cut, trees = blocks_the_solve_cuts(monkeypatch, m)
        assert cut == [list(range(d))] and trees == []
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)

    def test_small_graph_is_one_block(self, monkeypatch):
        # up to _ONE_BLOCK vertices the whole I + C is squared, with no
        # labelling and no polynomial part
        labels = counted(monkeypatch, graph, "_weak_component_labels")
        krylov = counted(monkeypatch, dynamics, "_krylov")
        d = dynamics._ONE_BLOCK
        m = InteractionMatrix.from_edges(d, [(0, 1), (1, 0), (5, 6)])
        np.testing.assert_allclose(equilibrium(m).x_star,
                                   dense_flow_limit(m, None),
                                   rtol=0, atol=1e-12)
        assert not labels and not krylov
        m = InteractionMatrix.from_edges(d + 1, [(0, 1), (1, 0), (5, 6)])
        equilibrium(m)
        assert len(labels) == len(krylov) == 1


class TestPowerLoopCycleTest:
    """The nilpotent power loop decides cyclic or not; Kahn's peel before
    the squaring or the loop run to a zero power is the oracle."""

    def test_matches_the_peel_on_seeded_corpus(self):
        rng = stream(31337)
        acyclic = cyclic = 0
        for case in range(3000):
            d = int(rng.integers(4, 121))
            theta = float(rng.uniform(0.2, 3.0))
            m = sample_er_digraph(ModelParams.from_theta(d, theta), rng)
            if case % 3 == 0:
                start = uniform_state(d)
            elif case % 3 == 1:
                start = interior_state(d, rng)
            else:
                start = np.where(rng.random(d) < rng.uniform(0.05, 0.6),
                                 rng.random(d), 0.0)
                start[int(rng.integers(d))] += 0.1
                start = simplex_vector(start / start.sum())
            live = np.flatnonzero(dense_reachable_from(m.entries,
                                                       np.flatnonzero(start)))
            if live.size == 1:  # a start on one sink: no subgraph to test
                assert dynamics._nilpotent_limit(m, start) is not None
                continue
            sub = InteractionMatrix(m.entries[np.ix_(live, live)])
            expect = has_directed_cycle(sub)
            # on the whole graph the loop sees only what the start reaches
            assert (dynamics._nilpotent_limit(m, start) is None) == expect, case
            limit = dynamics._nilpotent_limit(sub, start[live])
            assert (limit is None) == expect, case
            if expect:
                cyclic += 1
                continue
            acyclic += 1
            np.testing.assert_array_equal(limit, arc_nilpotent_limit(sub, start[live]))
            np.testing.assert_array_equal(dynamics._flow_limit(m, start),
                                          peeled_flow_limit(m, start))
        assert acyclic >= 500 and cyclic >= 500, (acyclic, cyclic)

    def test_alternating_supports_reach_the_bound(self):
        # a 2-cycle started on one of its vertices: the supports {0}, {1},
        # {0}, ... never repeat in a row, so only the d-power bound ends it
        m = InteractionMatrix.from_edges(5, TWO_CYCLE + [(2, 3), (3, 4)])
        start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        a, y, supports = m.as_float(), start, []
        for _ in range(m.d + 1):
            supports.append(tuple(np.flatnonzero(y)))
            y = a @ y
        assert all(s in ((0,), (1,)) for s in supports)
        assert all(s != t for s, t in zip(supports, supports[1:]))
        assert dynamics._nilpotent_limit(m, start) is None
        x = dynamics._flow_limit(m, start)
        np.testing.assert_array_equal(x, peeled_flow_limit(m, start))
        np.testing.assert_allclose(x, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-12)

    def test_equal_size_supports_on_a_chain_are_acyclic(self):
        # a -> b -> c from a: supports {a}, {b}, {c} tie in size, not as sets
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        start = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(dynamics._nilpotent_limit(m, start),
                                      [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(dynamics._flow_limit(m, start),
                                      peeled_flow_limit(m, start))
        assert equilibrium(m, start).kind == dynamics.KIND_TERMINAL

    def test_a_cycle_the_start_cannot_reach_is_not_seen(self):
        # 0 -> 1 from 0, beside the 2-cycle {2, 3}
        m = InteractionMatrix.from_edges(4, [(0, 1), (2, 3), (3, 2)])
        start = np.array([1.0, 0.0, 0.0, 0.0])
        assert has_directed_cycle(m)
        np.testing.assert_array_equal(dynamics._nilpotent_limit(m, start),
                                      [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(dynamics._flow_limit(m, start),
                                      peeled_flow_limit(m, start))
        assert equilibrium(m, start).kind == dynamics.KIND_TERMINAL

    def test_a_certificate_the_start_cannot_reach_is_set_aside(self):
        # the uniform start certifies {0, 1, 4, 5, 6, 7}: the 2-cycle
        # {0, 1} and the 3-cycle 4 -> 5 -> 6 -> 4 with its leaf 7. A start
        # that misses 0 and 1 runs the powers on what it reaches: on the
        # chain 8 -> 9 they find its limit and C keeps its certificate; on
        # the 3-cycle the one they find, in C's vertex names, replaces it
        edges = [(0, 1), (1, 0), (3, 2), (2, 0), (4, 5), (5, 6), (6, 4), (6, 7),
                 (8, 9)]
        m = InteractionMatrix.from_edges(10, edges)
        equilibrium(m)
        np.testing.assert_array_equal(m._record.cycle, [0, 1, 4, 5, 6, 7])
        for start, kind, cycle in [(np.eye(10)[8], dynamics.KIND_TERMINAL,
                                    [0, 1, 4, 5, 6, 7]),
                                   ([0.0] * 4 + [0.25, 0.25, 0.5] + [0.0] * 3,
                                    dynamics.KIND_ACS, [4, 5, 6, 7])]:
            eq = equilibrium(m, start)
            bare = InteractionMatrix._from_arcs(m.d, *m.arcs)
            fresh = equilibrium(bare, start)
            assert eq.x_star.tobytes() == fresh.x_star.tobytes()
            assert eq.lam == fresh.lam and eq.kind == kind
            np.testing.assert_array_equal(m._record.cycle, cycle)
            assert is_acs(m, m._record.cycle)


def test_analytic_equilibrium_with_large_lambda():
    rng = stream(10271)
    d = int(rng.integers(3, 40))
    p = float(rng.uniform(0.02, 0.3))
    m = sample_er_digraph(ModelParams(d=d, p=p), rng)
    assert d == 39
    assert equilibrium(m).residual < 1e-12
    eq = equilibrium(m, analytic=True)
    assert eq.residual <= 1e-9


def _large_lambda_corpus():
    """400 seeded ER graphs, 17 of them with lambda from 11.4 to 22.5,
    and two dense ones with lambda in the hundreds."""
    rng = stream(4242)
    for _ in range(400):
        d = int(rng.integers(3, 60))
        p = float(rng.uniform(0.02, 0.4))
        yield sample_er_digraph(ModelParams(d=d, p=p), rng)
    rng = stream(5)
    for d in (800, 1500):
        yield sample_er_digraph(ModelParams(d=d, p=0.5), rng)


def test_analytic_equilibrium_matches_the_relative_stop(monkeypatch):
    # the Perron stop min(TOL * max(1, lam), RESIDUAL_FLOOR) against the
    # relative TOL * max(1, lam) it replaced: the same bytes wherever the
    # old stop passed the equilibrium check, and a solve wherever it failed
    mended = []
    for m in _large_lambda_corpus():
        eq = equilibrium(m, analytic=True)
        new = json.dumps(equilibrium_to_json_dict(eq))
        with monkeypatch.context() as patch:
            patch.setattr(graph, "_pf_vector_irreducible", relative_pf_vector)
            try:
                old = json.dumps(equilibrium_to_json_dict(
                    equilibrium(m, analytic=True)))
            except NonConvergenceError:
                assert eq.residual <= 1e-9
                mended.append((m.d, eq.lam))
                continue
        assert new == old
    assert len(mended) == 19
    assert [d for d, _ in mended[-2:]] == [800, 1500]
    assert min(lam for _, lam in mended) > 10


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

    def test_matches_the_dense_forms_bit_for_bit(self, monkeypatch):
        # blocks cut from C.entries, checks over the edge list and the
        # argmax over all vertices against as_float blocks, the batched
        # dense checks and the terminal_vertices filter: the same
        # SpectralData and analytic JSON bits on both kinds of graph
        rng = stream(20261019)
        kinds = {"acs_supported": 0, "terminal_supported": 0}
        for _ in range(640):
            d = int(rng.integers(4, 120))
            m = sample_er_digraph(
                ModelParams.from_theta(d, float(rng.uniform(0.2, 3.0))), rng)
            if m.edge_count() == 0:
                continue
            sd, ref = spectral_radius_pf(m), dense_spectral_radius_pf(m)
            assert (repr(sd.lam), sd.multiplicity) == (repr(ref.lam), ref.multiplicity)
            for v, w in zip(sd.pf_basis, ref.pf_basis, strict=True):
                assert v.tobytes() == w.tobytes()
            eq = equilibrium(m, analytic=True)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "equilibrium_set_basis",
                              dense_equilibrium_set_basis)
                dense = equilibrium(m, analytic=True)
            assert (json.dumps(equilibrium_to_json_dict(eq)), repr(eq.lam)) == (
                json.dumps(equilibrium_to_json_dict(dense)), repr(dense.lam))
            kinds[eq.kind] += 1
        assert min(kinds.values()) >= 150, kinds

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 0), (1, 2), (2, 3)],  # a 2-cycle with a downstream tail
        [(0, 1), (1, 0), (2, 3), (3, 2)],  # two tied classes
        [(0, 1), (1, 2), (3, 2), (4, 5)],  # acyclic
    ], ids=["tail", "tied", "acyclic"])
    def test_analytic_solve_makes_one_dense_float_copy(self, monkeypatch, edges):
        # the recorded residual's C x is the one dense product left
        m = InteractionMatrix.from_edges(6, edges)
        calls = []
        real = InteractionMatrix.as_float

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(InteractionMatrix, "as_float", spy)
        equilibrium(m, analytic=True)
        assert calls == [m]

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
        # on the path 0 -> 1 -> 2, C^3 = 0: r_n = r_{n+1} = 0 for n >= 3,
        # so both sides of the hierarchy are exactly zero there
        m = InteractionMatrix.from_edges(3, [(0, 1), (1, 2)])
        traj = integrate(m, [0.5, 0.3, 0.2], t_end=1.0, h=1e-3)
        for n in (3, 4, 5, np.int64(3)):  # numpy integers are integers too
            assert andi_residual(m, traj, n) == 0.0
        # r_2 = x_0 still moves, and only the O(h^2) difference error is left
        assert 0.0 < andi_residual(m, traj, 2) < 1e-6

    def test_two_cycle_preserves_sums(self):
        # C permutes x, so r_n = 1 for every n, even off the equilibrium:
        # dr_n/dt = 0 = r_{n+1} - r_n r_1 up to rounding
        m = InteractionMatrix.from_edges(2, TWO_CYCLE)
        traj = integrate(m, [0.9, 0.1], t_end=1.0, h=1e-2)
        assert np.ptp(traj.states[:, 0]) > 0.1
        for n in range(1, 8):
            assert andi_residual(m, traj, n) <= 1e-12

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


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _integrate_cases(count=30, seed=2024):
    """Seeded graphs with d from 3 to 300, each with a start state and a
    step mode: fixed or adaptive, with or without ``stop_residual``."""
    rng = stream(seed)
    cases = []
    for i in range(count):
        d = int(round(3 * 100 ** (i / (count - 1))))  # 3 ... 300
        p = min(1.0, float(rng.uniform(0.5, 3.0)) / d)
        m = sample_er_digraph(ModelParams(d=d, p=p), rng)
        if i % 5 == 0:
            m = plant_directed_cycle(m, 2)  # some certainly cyclic
        x0 = uniform_state(d) if i % 3 == 0 else interior_state(d, rng)
        cases.append(pytest.param(m, x0, i % 2 == 1, (i // 2) % 2 == 1,
                                  id=f"d{d}-{'adaptive' if i % 2 else 'fixed'}"
                                     f"{'-stop' if (i // 2) % 2 else ''}"))
    return cases


class TestIntegrateMatchesListOracle:
    """The buffered integrator and the streamed CSV against the parent
    design: per-step lists, a fresh f(x) per residual, a joined CSV."""

    @pytest.mark.parametrize("m, x0, adaptive, stop", _integrate_cases())
    def test_bit_equal_trajectory_and_csv(self, m, x0, adaptive, stop):
        kw = dict(t_end=2.0, h=0.05, adaptive=adaptive, tol=1e-8)
        stop_residual = None
        if stop:
            # a threshold the full run crosses by its middle row
            full = list_integrate(m, x0, **kw)[2]
            stop_residual = float(full[full.size // 2]) * (1 + 1e-9)
        times, states, residuals, drift, min_comp = list_integrate(
            m, x0, stop_residual=stop_residual, **kw)
        traj = integrate(m, x0, stop_residual=stop_residual, **kw)
        if stop:
            assert times.size <= full.size // 2 + 1
        assert _bits(traj.times) == _bits(times)
        assert _bits(traj.states) == _bits(states)
        assert _bits(traj.residuals) == _bits(residuals)
        assert traj.mass_drift_rate == drift
        assert traj.min_component == min_comp
        assert trajectory_to_csv(traj) == joined_trajectory_csv(
            times, states, residuals)

    def test_repr_format_switches(self):
        # repr moves between fixed and exponent notation at 1e-4 and 1e16
        # and prints the smallest subnormal and both zeros exactly
        values = [0.0, -0.0, 5e-324, 9.9999e-05, 1e-4, 1e16, 9999999999999998.0,
                  0.1 + 0.2, 1.0, 2.5e-310]
        states = np.array([values, values[::-1]])
        times, residuals = np.array([0.0, 1e-4]), np.array([9.9999e-05, 1e16])
        text = trajectory_to_csv(Trajectory(times, states, residuals, 0.0, 0.0))
        assert text == joined_trajectory_csv(times, states, residuals)
        assert text.splitlines()[1] == (
            "0.0,0.0,-0.0,5e-324,9.9999e-05,0.0001,1e+16,9999999999999998.0,"
            "0.30000000000000004,1.0,2.5e-310,9.9999e-05")

    def test_adaptive_buffers_grow_past_the_fixed_step_bound(self, example2):
        # tight tolerance at a coarse h: far more rows than t_end / h + 2
        kw = dict(t_end=1.0, h=0.5, adaptive=True, tol=1e-13)
        times, states, residuals, _, _ = list_integrate(example2, [0.7, 0.2, 0.1], **kw)
        traj = integrate(example2, [0.7, 0.2, 0.1], **kw)
        assert times.size > 2 * (kw["t_end"] / kw["h"] + 2)
        assert _bits(traj.states) == _bits(states)
        assert _bits(traj.times) == _bits(times)
        assert _bits(traj.residuals) == _bits(residuals)

    def test_field_evaluations_per_fixed_step(self, example2, monkeypatch):
        # the residual's f(x) is the next step's k1: 4 evaluations a step
        calls = []
        field = dynamics._field
        monkeypatch.setattr(dynamics, "_field",
                            lambda a, x: calls.append(1) or field(a, x))
        traj = integrate(example2, uniform_state(3), t_end=1.0, h=0.1)
        steps = traj.times.size - 1
        assert len(calls) == 4 * steps + 1


# (call, the exception, its message) for each argument refusal of the module
def _uneven_trajectory():
    x = np.full((3, 2), 0.5)
    return Trajectory(times=np.array([0.0, 0.1, 0.3]), states=x,
                      residuals=np.zeros(3), mass_drift_rate=0.0, min_component=0.5)


_PAIR = InteractionMatrix.from_edges(2, TWO_CYCLE)
_FED_PAIR = InteractionMatrix.from_edges(3, TWO_CYCLE + [(1, 2)])
_PLANTED = plant_directed_cycle(
    sample_er_digraph(ModelParams.from_theta(100, 0.5), stream(5)), 2)


def _padded(n):
    """A simplex start of n entries: uniform on the first 99, zeros after."""
    x = np.zeros(n)
    x[:99] = 1 / 99
    return x


# every entry point that takes a start refuses one of the wrong length
_STARTS = [
    lambda C, x0: equilibrium(C, x0=x0),
    lambda C, x0: integrate(C, x0, 1.0),
    lambda C, x0: dynamics.integrate_to_csv(C, x0, 1.0, out=io.StringIO()),
]
DYNAMICS_REFUSALS = [
    *((lambda run=run, C=C, x0=x0: run(C, x0),
       f"x0 must have length {C.d}, got {len(x0)}")
      for run in _STARTS
      for C, x0 in [(_FED_PAIR, [0.2, 0.3, 0.5, 0.0]), (_FED_PAIR, [0.5, 0.5]),
                    (_PLANTED, _padded(99)), (_PLANTED, _padded(101)),
                    (_PLANTED, _padded(120))]),
    (lambda: simplex_vector([[0.5, 0.5]]), "state must be a vector"),
    (lambda: integrate_projective(_PAIR, [0.2, 0.3, 0.5]), "dimension mismatch"),
    (lambda: andi_residual(_PAIR, _uneven_trajectory(), 1),
     "trajectory is not uniformly sampled"),
    (lambda: andi_residual(_PAIR, _uneven_trajectory(), 0),
     "n must be an integer >= 1, got 0"),
    (lambda: andi_residual(_PAIR, _uneven_trajectory(), -1),
     "n must be an integer >= 1, got -1"),
    (lambda: andi_residual(_PAIR, _uneven_trajectory(), 1.5),
     "n must be an integer >= 1, got 1.5"),
    *((lambda tol=tol: integrate(_PAIR, [0.5, 0.5], 1.0, adaptive=True, tol=tol),
       f"tol must be positive and finite, got {tol!r}")
      for tol in (0.0, -1.0, float("nan"), float("inf"))),
    (lambda: equilibrium(_PAIR, [1.0, 0.0], analytic=True),
     "analytic=True answers from the graph alone: give no x0, or drop analytic "
     "for the flow limit"),
]


@pytest.mark.parametrize("call, message", DYNAMICS_REFUSALS,
                         ids=[m[:40] for _, m in DYNAMICS_REFUSALS])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestTimeArguments:
    # each run gets a text stream, which only integrate_to_csv writes to
    RUNS = {
        "integrate": lambda C, out, **kw: integrate(C, uniform_state(C.d), **kw),
        "integrate_projective": lambda C, out, **kw: integrate_projective(
            C, uniform_state(C.d), **kw),
        "integrate_to_csv": lambda C, out, **kw: dynamics.integrate_to_csv(
            C, uniform_state(C.d), out=out, **kw),
    }

    @pytest.mark.parametrize("entry", sorted(RUNS))
    @pytest.mark.parametrize("t_end, h, message", [
        (float("nan"), 0.01, "t_end must be finite and non-negative, got nan"),
        (-1.0, 0.01, "t_end must be finite and non-negative, got -1.0"),
        (float("inf"), 0.01, "t_end must be finite and non-negative, got inf"),
        (1.0, float("nan"), "h must be positive, got nan"),
        (1.0, 0.0, "h must be positive, got 0.0"),
        (1.0, -0.5, "h must be positive, got -0.5"),
        (0.0, 0.0, "h must be positive, got 0.0"),
    ])
    def test_bad_times_are_refused(self, example1, entry, t_end, h, message):
        out = io.StringIO()
        with pytest.raises(ValueError) as exc:
            self.RUNS[entry](example1, out, t_end=t_end, h=h)
        assert str(exc.value) == message
        assert out.getvalue() == ""  # not even the CSV header

    @pytest.mark.parametrize("entry", sorted(RUNS))
    def test_zero_t_end_returns_the_start(self, example1, entry):
        traj = self.RUNS[entry](example1, io.StringIO(), t_end=0.0, h=0.01)
        assert traj.times.tolist() == [0.0]
        np.testing.assert_array_equal(traj.states, [uniform_state(3)])


class TestAnalyticStart:
    def test_the_flow_limit_depends_on_the_start_the_analytic_one_cannot(
            self, example3):
        # two disjoint 2-cycles: from e_0 the flow stays on {0, 1}, while
        # the analytic pick spreads over both cycles
        e0 = [1.0, 0.0, 0.0, 0.0]
        np.testing.assert_allclose(equilibrium(example3, e0).x_star,
                                   [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert equilibrium(example3, analytic=True).x_star.tolist() == [0.25] * 4
        with pytest.raises(ValueError, match="give no x0"):
            equilibrium(example3, e0, analytic=True)

    def test_a_zero_matrix_returns_the_normalised_start(self):
        eq = equilibrium(InteractionMatrix.zero(3), [2 / 3, 1 / 6, 1 / 6 + 1e-10])
        assert eq.x_star.sum() == pytest.approx(1.0, abs=1e-15)
        assert not eq.non_unique and eq.kind == "degenerate_no_edges"


def test_an_equilibrium_over_the_residual_floor_raises(example1, monkeypatch):
    # the uniform start is not stationary on example 1, so a solver that
    # returned it must be caught by the final residual check
    monkeypatch.setattr(dynamics, "_flow_limit", lambda C, start: start)
    with pytest.raises(NonConvergenceError, match="equilibrium residual .* > 1e-09"):
        equilibrium(example1)

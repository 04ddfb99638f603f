import math

import numpy as np
import pytest

from jknet.experiments import (
    ExperimentResult,
    UnionFind,
    acs_attach_experiment,
    conjecture_scan,
    count_cycles_of_length,
    first_cycle_edge_experiment,
    first_cycle_permutation_model,
    first_cycle_time_jk,
    first_cycle_uniform_model,
    measure_cycle_counts,
    oracle_attach_prob,
    oracle_cycle_mean,
    oracle_mean_waiting,
    oracle_total_growth,
    sample_er_undirected,
    scaling_fit,
    waiting_time_experiment,
    _run_trials,
)
from jknet.rng import stream

from oracles import brute_force_count_cycles, dfs_has_cycle_undirected_multigraph


class TestOracles:
    def test_cycle_mean_instances(self):
        assert oracle_cycle_mean(1.0, 3) == pytest.approx(1 / 6)
        assert oracle_cycle_mean(1.0, 4) == pytest.approx(1 / 8)
        assert oracle_cycle_mean(0.0, 3) == 0.0
        with pytest.raises(ValueError):
            oracle_cycle_mean(1.0, 2)

    def test_attach_prob_instances(self):
        assert oracle_attach_prob(1, 0.3) == pytest.approx(0.3)
        assert oracle_attach_prob(10, 0.01) == pytest.approx(1 - 0.99 ** 10)

    def test_attach_prob_matches_binomial_sum(self):
        for k, p in ((3, 0.2), (10, 0.01), (25, 0.07)):
            total = sum(math.comb(k, i) * p ** i * (1 - p) ** (k - i)
                        for i in range(1, k + 1))
            assert oracle_attach_prob(k, p) == pytest.approx(total, abs=1e-12)

    def test_mean_waiting_instances(self):
        assert oracle_mean_waiting(1, 0.5) == pytest.approx(2.0)
        assert oracle_mean_waiting(10, 0.01) == pytest.approx(10.4583, abs=1e-3)

    def test_total_growth_single_vertex(self):
        exact, _ = oracle_total_growth(1, 0.37)
        assert exact == pytest.approx(1 / 0.37)

    def test_total_growth_integral_accuracy(self):
        exact, approx = oracle_total_growth(100, 0.005)
        assert abs(exact - approx) / exact <= 0.15

    def test_total_growth_per_d_stabilises(self):
        # at fixed theta the per-vertex cost varies slowly with d: each
        # grid value stays within 20% of the grid mean
        vals = []
        for d in (100, 200, 400):
            exact, _ = oracle_total_growth(d, 0.5 / d)
            vals.append(exact / d)
        mean = sum(vals) / len(vals)
        assert all(abs(v - mean) / mean <= 0.20 for v in vals)


class TestExperimentResult:
    def test_std_error_definition(self):
        res = ExperimentResult.from_measurements([1.0, 2.0, 3.0, 4.0])
        assert res.std_error == pytest.approx(math.sqrt(res.variance / 4))

    def test_censoring_excluded_by_default(self):
        res = ExperimentResult.from_measurements([1.0, 2.0, 100.0],
                                                 censored=[False, False, True])
        assert res.mean == pytest.approx(1.5)
        assert res.censored_count == 1
        assert res.n_used == 2

    def test_order_invariance_of_aggregates(self):
        vals = stream(32).random(50).tolist()
        a = ExperimentResult.from_measurements(vals)
        b = ExperimentResult.from_measurements(list(reversed(vals)))
        assert a.mean == pytest.approx(b.mean, abs=1e-15)
        assert a.variance == pytest.approx(b.variance, abs=1e-15)

    def test_csv_format(self):
        res = ExperimentResult.from_measurements([1.0, 2.0], censored=[False, True])
        lines = res.to_csv().splitlines()
        assert lines[0] == "trial,measurement,censored"
        assert lines[1] == "0,1.0,0"
        assert lines[2] == "1,2.0,1"


class TestCycleCounting:
    def test_triangle_counted_once(self):
        adj = [set() for _ in range(4)]
        for u, v in ((0, 1), (1, 2), (2, 0)):
            adj[u].add(v)
            adj[v].add(u)
        assert count_cycles_of_length(adj, 3) == 1
        assert count_cycles_of_length(adj, 4) == 0

    def test_complete_graph_counts(self):
        d = 6
        adj = [set(range(d)) - {v} for v in range(d)]
        for k in (3, 4, 5):
            expected = (math.comb(d, k) * math.factorial(k - 1)) // 2
            assert count_cycles_of_length(adj, k) == expected

    def test_unsupported_length_rejected(self):
        with pytest.raises(ValueError):
            count_cycles_of_length([set(), set()], 6)

    def test_matches_brute_force_enumeration(self):
        for trial in range(30):
            rng = stream(33, trial)
            adj = sample_er_undirected(8, 0.35, rng)
            for k in (3, 4, 5):
                assert count_cycles_of_length(adj, k) == \
                    brute_force_count_cycles(adj, k)

    def test_theta_zero_graphs_have_no_cycles(self):
        res = measure_cycle_counts(50, 0.0, 3, 20, seed=34)
        assert res.mean == 0.0

    def test_poisson_mean_at_moderate_size(self):
        res = measure_cycle_counts(500, 1.0, 3, 400, seed=35)
        assert res.oracle_value == pytest.approx(1 / 6)
        assert abs(res.z_score) < 3


class TestUnionFind:
    def test_union_reports_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert uf.union(0, 3)
        assert not uf.union(1, 2)

    def test_find_path_halving(self):
        uf = UnionFind(6)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            uf.union(a, b)
        root = uf.find(3)
        assert all(uf.find(v) == root for v in range(4))
        assert uf.find(4) != root


class TestFirstCycleEdgeModels:
    def test_uniform_model_terminates_with_positive_count(self):
        for trial in range(20):
            steps = first_cycle_uniform_model(10, stream(36, trial))
            assert steps >= 1

    def test_permutation_model_always_terminates(self):
        for trial in range(20):
            steps = first_cycle_permutation_model(6, stream(37, trial))
            assert 1 <= steps <= 15

    def test_uniform_replay_matches_dfs_oracle(self):
        # replay the accepted edges; the stopping edge is exactly the one
        # that first makes the multigraph cyclic
        d = 8
        for trial in range(60):
            rng = stream(38, trial)
            stop = first_cycle_uniform_model(d, rng)
            replay_rng = stream(38, trial)
            edges = []
            for _ in range(stop):
                edges.append((int(replay_rng.integers(d)),
                              int(replay_rng.integers(d))))
            assert dfs_has_cycle_undirected_multigraph(edges, d)
            assert not dfs_has_cycle_undirected_multigraph(edges[:-1], d)

    def test_minimal_d_returns_positive_count(self):
        for trial in range(10):
            assert first_cycle_uniform_model(3, stream(52, trial)) >= 1

    def test_permutation_replay_with_dfs_detector(self):
        # rebuild the same pair sequence and decide "cycle closed" by full
        # DFS recomputation instead of union-find; stop steps must agree
        d = 8
        for trial in range(40):
            stop = first_cycle_permutation_model(d, stream(53, trial))
            rng = stream(53, trial)
            seen = set()
            edges = []
            dfs_stop = None
            while dfs_stop is None:
                while True:
                    i = int(rng.integers(d))
                    j = int(rng.integers(d))
                    if i == j:
                        continue
                    key = (i, j) if i < j else (j, i)
                    if key not in seen:
                        break
                seen.add(key)
                edges.append(key)
                if dfs_has_cycle_undirected_multigraph(edges, d):
                    dfs_stop = len(edges)
            assert dfs_stop == stop

    def test_uniform_scaling_window(self):
        res = first_cycle_edge_experiment("uniform", 2000, 80, seed=39)
        assert 0.2 < res.mean / 2000 < 0.5

    def test_permutation_scaling_window(self):
        res = first_cycle_edge_experiment("permutation", 2000, 80, seed=40)
        assert 0.3 < res.mean / 2000 < 0.55

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            first_cycle_edge_experiment("noise", 100, 5, seed=0)


class TestJkWaitingTimes:
    def test_p_one_first_cycle_immediately(self):
        res = first_cycle_time_jk(8, 1.0, 5, 10, seed=41)
        assert res.mean == 0.0
        assert res.censored_count == 0

    def test_fast_regime_medians(self):
        res = first_cycle_time_jk(100, 0.05, 10, 50, seed=42)
        assert float(np.median(res.per_trial)) <= 10

    def test_censoring_flagged_not_averaged(self):
        res = first_cycle_time_jk(12, 0.01, 6, max_steps=3, seed=43)
        assert res.censored_count > 0
        assert all(res.per_trial[res.censored] == 3)

    def test_acs_growth_p_one_stops_immediately(self):
        from jknet.experiments import acs_growth_time_jk
        res = acs_growth_time_jk(8, 1.0, 5, seed=44, max_steps=10)
        assert res.per_trial.max() <= 1

    def test_parallel_jobs_reproduce_serial(self):
        serial = first_cycle_time_jk(20, 0.15, 8, 200, seed=45, jobs=1)
        parallel = first_cycle_time_jk(20, 0.15, 8, 200, seed=45, jobs=2)
        assert serial.per_trial.tolist() == parallel.per_trial.tolist()


class TestAttachAndWaiting:
    def test_attach_experiment_within_three_sigma(self):
        res = acs_attach_experiment(10, 0.01, 4000, seed=46)
        assert res.oracle_value == pytest.approx(10.4583, abs=1e-3)
        assert abs(res.z_score) < 3

    def test_an_attach_trial_past_its_budget_is_censored(self, monkeypatch):
        # at p = 1e-12 no in-edge appears in 3 redraws: every trial is
        # censored at the budget, and none enters the aggregates
        from jknet import experiments

        monkeypatch.setattr(experiments, "ATTACH_MAX_STEPS", 3)
        res = acs_attach_experiment(5, 1e-12, 8, seed=49)
        assert res.per_trial.tolist() == [3.0] * 8
        assert res.censored.all() and res.n_used == 0
        assert math.isnan(res.mean) and res.z_score is None

    def test_waiting_time_sampler_matches_oracle(self):
        res = waiting_time_experiment(10, 0.01, 100_000, seed=47)
        assert abs(res.z_score) < 3

    def test_waiting_time_fair_coin(self):
        res = waiting_time_experiment(1, 0.5, 50_000, seed=48)
        assert res.oracle_value == 2.0
        assert abs(res.z_score) < 3


class TestScalingFit:
    def test_identity_slope(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = scaling_fit(xs, xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_quadratic_slope(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = scaling_fit(xs, xs ** 2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_power_law_recovered(self):
        rng = stream(49)
        xs = np.linspace(2, 40, 15)
        ys = 3 * xs ** 1.5 * (1 + rng.uniform(-0.05, 0.05, xs.size))
        fit = scaling_fit(xs, ys)
        assert 1.4 <= fit.slope <= 1.6

    def test_rejects_non_positive_and_short_input(self):
        with pytest.raises(ValueError):
            scaling_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            scaling_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            scaling_fit([1.0, 1.0, 3.0], [1.0, 2.0, 3.0])


class TestConjectureScan:
    def test_small_scan_structure(self):
        scan = conjecture_scan("acs_growth", 1.2, (8, 12, 16), 4, seed=50)
        assert [pt.d for pt in scan.points] == [8, 12, 16]
        assert scan.fit.xs.tolist() == [8.0, 12.0, 16.0]
        lines = scan.to_csv().splitlines()
        assert lines[0] == "d,p,theta,mean,std_error,oracle,z"
        assert len(lines) == 4

    def test_per_point_trial_counts(self):
        scan = conjecture_scan("first_cycle", 1.2, (8, 12, 16), (6, 4, 2),
                               seed=51)
        assert [pt.d for pt in scan.points] == [8, 12, 16]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            conjecture_scan("bogus", 0.5, (8, 12, 16), 2, seed=0)

    def test_two_point_grid_has_no_fit(self):
        scan = conjecture_scan("acs_growth", 1.2, (8, 12), 3, seed=52)
        assert [pt.d for pt in scan.points] == [8, 12]
        assert all(pt.mean > 0 for pt in scan.points)
        assert scan.fit is None

    def test_repeated_d_raises_before_any_trial(self, monkeypatch):
        from jknet import experiments

        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_adaptive", no_run)
        with pytest.raises(ValueError, match="repeat"):
            conjecture_scan("acs_growth", 0.5, (25, 25, 50), 2, seed=1)

    @pytest.mark.parametrize("kind", ["first_cycle", "acs_growth"])
    def test_trial_counts_must_match_the_grid(self, monkeypatch, kind):
        from jknet import experiments

        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        for name in ("run_adaptive", "first_cycle_time_jk", "acs_growth_time_jk",
                     "oracle_total_growth"):
            monkeypatch.setattr(experiments, name, no_run)
        with pytest.raises(ValueError) as exc:
            conjecture_scan(kind, 0.5, (25, 50, 100), (4, 2), seed=1)
        assert str(exc.value) == "need one trial count per grid point"


# (call, the exception, its message) for each argument refusal of the module
REFUSALS = [
    (lambda: oracle_cycle_mean(1.0, 2), ValueError, "cycle length must be >= 3"),
    (lambda: oracle_cycle_mean(-1.0, 3), ValueError, "theta must be non-negative"),
    (lambda: oracle_attach_prob(0, 0.5), ValueError, "k must be >= 1"),
    (lambda: oracle_attach_prob(3, 0.0), ValueError, "p must lie in (0, 1)"),
    (lambda: oracle_attach_prob(3, 1.0), ValueError, "p must lie in (0, 1)"),
    # 1 - 1e-17 rounds to 1, so no set of any size attaches
    (lambda: oracle_mean_waiting(3, 1e-17), ZeroDivisionError,
     "attachment probability is zero"),
    (lambda: oracle_total_growth(10, 0.0), ValueError, "p must lie in (0, 1]"),
    (lambda: oracle_total_growth(0, 0.5), ValueError, "d must be >= 1"),
    (lambda: measure_cycle_counts(10, 10.0, 3, 1, seed=1), ValueError,
     "theta/d must lie in [0, 1)"),
    (lambda: measure_cycle_counts(10, -1.0, 3, 1, seed=1), ValueError,
     "theta/d must lie in [0, 1)"),
    (lambda: first_cycle_uniform_model(2, stream(1)), ValueError, "d must be >= 3"),
    (lambda: first_cycle_permutation_model(2, stream(1)), ValueError,
     "d must be >= 3"),
    (lambda: conjecture_scan("first_cycle", 0.5, (8, 12, 16), 0, seed=1),
     ValueError, "trials must be >= 1 at every grid point"),
    (lambda: conjecture_scan("acs_growth", 0.5, (8, 12, 16), -2, seed=1),
     ValueError, "trials must be >= 1 at every grid point"),
    (lambda: conjecture_scan("first_cycle", 0.5, (8, 12, 16), (3, 0, 2), seed=1),
     ValueError, "trials must be >= 1 at every grid point"),
    (lambda: _run_trials(_half_censored, -1), ValueError, "trials must be >= 0"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS,
                         ids=[m for _, _, m in REFUSALS])
def test_argument_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_a_trial_with_invariant_violations_raises(monkeypatch):
    # a broken run must stop the experiment, not be averaged into it
    from jknet import experiments

    real = experiments.run_adaptive

    def violating(*args, **kwargs):
        trace = real(*args, **kwargs)
        trace.invariant_violations = 2
        return trace

    monkeypatch.setattr(experiments, "run_adaptive", violating)
    with pytest.raises(RuntimeError, match="invariant 2 time"):
        first_cycle_time_jk(10, 0.05, 2, 20, seed=1)


def _half_censored(t):
    return (10.0, True) if t % 2 else (float(t), False)


class TestTrialRunner:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pairs_aggregate_over_the_uncensored_trials(self, jobs):
        from jknet import experiments

        res = experiments._run_trials(_half_censored, 6, jobs, oracle_value=2.0)
        assert res.per_trial.tolist() == [0.0, 10.0, 2.0, 10.0, 4.0, 10.0]
        assert res.censored.tolist() == [False, True] * 3
        assert (res.mean, res.n_used, res.oracle_value) == (2.0, 3, 2.0)

    def test_no_trials(self):
        from jknet import experiments

        res = experiments._run_trials(_half_censored, 0)
        assert res.trials == 0 and res.n_used == 0 and math.isnan(res.mean)

    def test_uniform_model_matches_the_repeat_pair_rule(self):
        # a repeated pair was joined when first drawn, so the union-find
        # stop alone ends the process where the explicit pair set did
        def with_pair_set(d, rng):
            uf, seen, edges = UnionFind(d), set(), 0
            while True:
                i, j = int(rng.integers(d)), int(rng.integers(d))
                edges += 1
                key = (min(i, j), max(i, j))
                if i == j or key in seen or not uf.union(i, j):
                    return edges
                seen.add(key)

        for t in range(300):
            d = 3 + t % 40
            assert (first_cycle_uniform_model(d, stream(11, t))
                    == with_pair_set(d, stream(11, t)))


class TestBudgetBound:
    def test_realistic_scan_budgets_stay_far_below_the_bound(self):
        from jknet import experiments

        assert experiments.scan_budget("acs_growth", 0.5, 1000) < 10 ** 7
        assert experiments.scan_budget("first_cycle", 0.5, 1000) < 10 ** 7
        assert experiments.MAX_DEFAULT_BUDGET == 10 ** 12

    @pytest.mark.parametrize("kind", ["first_cycle", "acs_growth"])
    def test_a_scan_over_the_bound_is_refused_before_any_trial(self, monkeypatch,
                                                                kind):
        from jknet import experiments

        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_adaptive", no_run)
        budget = experiments.scan_budget(kind, 1e-12, 30)
        assert budget > experiments.MAX_DEFAULT_BUDGET
        with pytest.raises(ValueError) as exc:
            conjecture_scan(kind, 1e-12, (10, 20, 30), 1, seed=1)
        assert str(exc.value) == (f"a scan budget of {budget} steps exceeds the "
                                  f"bound of {experiments.MAX_DEFAULT_BUDGET} steps")

    def test_scan_budget_is_the_one_the_trials_run_with(self, monkeypatch):
        from jknet import experiments

        seen = []
        real = experiments.run_adaptive

        def recording(params, *args, max_steps, **kwargs):
            seen.append((params.d, max_steps))
            return real(params, *args, max_steps=max_steps, **kwargs)

        monkeypatch.setattr(experiments, "run_adaptive", recording)
        for kind in ("first_cycle", "acs_growth"):
            seen.clear()
            conjecture_scan(kind, 0.5, (6, 8, 10), 1, seed=1)
            assert seen == [(d, experiments.scan_budget(kind, 0.5, d))
                            for d in (6, 8, 10)]

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from jknet import (
    AdaptiveState,
    InteractionMatrix,
    ModelParams,
    equilibrium,
    has_directed_cycle,
    is_acs,
    jk_step,
    min_prevalence_set,
    plant_directed_cycle,
    run_adaptive,
    trace_from_json_lines,
    trace_to_json_lines,
)
from jknet import adaptation, dynamics, graph
from jknet.adaptation import X0_MODES
from jknet.dynamics import KIND_ACS, KIND_DEGENERATE, KIND_TERMINAL
from jknet.graph import has_undirected_cycle, resample_vertex, sample_er_digraph
from jknet.rng import stream

from oracles import dense_component_labels, peeled_flow_limit


class TestMinPrevalenceSet:
    def test_example1_unique_zero(self):
        assert min_prevalence_set([0.5, 0.5, 0.0]).tolist() == [2]

    def test_uniform_ties_everyone(self):
        assert min_prevalence_set([0.25] * 4).tolist() == [0, 1, 2, 3]

    def test_tolerance_separates_near_ties(self):
        x = [0.5, 0.5 - 1e-12, 0.0]
        assert min_prevalence_set(x).tolist() == [2]

    def test_tolerance_includes_float_noise(self):
        x = [0.5, 0.25 + 1e-12, 0.25]
        assert min_prevalence_set(x).tolist() == [1, 2]

    @pytest.mark.parametrize("x", [[], np.zeros((0, 3)), [[0.5, 0.5]], 0.5])
    def test_an_empty_or_not_flat_state_is_refused(self, x):
        with pytest.raises(ValueError) as exc:
            min_prevalence_set(x)
        assert str(exc.value) == "the state must be a non-empty vector"


def make_state(matrix, x0=None):
    return AdaptiveState(0, matrix, equilibrium(matrix, x0=x0))


class TestJkStep:
    def test_zero_matrix_resamples_some_vertex(self):
        state = make_state(InteractionMatrix.zero(3))
        new_state, record = jk_step(state, p=0.8, rng=stream(1))
        assert record.chosen in record.j_min_set
        assert record.j_min_set == (0, 1, 2)
        touched = new_state.matrix.entries != 0
        j = record.chosen
        touched_rows = set(np.nonzero(touched)[0]) | set(np.nonzero(touched)[1])
        assert touched_rows <= {j} | set(np.nonzero(touched.any(axis=0))[0])
        untouched = np.delete(np.delete(np.array(new_state.matrix.entries), j, 0), j, 1)
        assert not untouched.any()

    def test_seeded_steps_are_deterministic(self):
        params = ModelParams(d=10, p=0.05)
        def run3(seed):
            rng = stream(seed)
            from jknet.graph import sample_er_digraph
            state = make_state(sample_er_digraph(params, rng))
            out = []
            for _ in range(3):
                state, rec = jk_step(state, params.p, rng)
                out.append((rec.chosen, state.matrix.entries.tobytes()))
            return out
        assert run3(7) == run3(7)
        assert run3(7) != run3(8)

    def test_chosen_has_negligible_concentration_when_zeros_exist(self):
        rng = stream(3)
        checked = 0
        for trial in range(100):
            from jknet.graph import sample_er_digraph
            m = sample_er_digraph(ModelParams(d=8, p=0.25), stream(40, trial))
            state = make_state(m)
            if state.x_star.zero_set.size == 0:
                continue
            _, rec = jk_step(state, 0.25, rng)
            assert state.x_star.x_star[rec.chosen] <= 1e-9
            checked += 1
        assert checked > 30

    def test_carry_mode_resets_resampled_vertex(self, example1):
        state = make_state(example1)
        new_state, rec = jk_step(state, 0.0, stream(5), x0_mode="carry")
        assert rec.chosen == 2
        # resampling with p=0 deletes vertex 2's edges; the carried start
        # gives it 1/d mass which then evolves on the 2-cycle graph
        np.testing.assert_allclose(new_state.x_star.x_star, [0.5, 0.5, 0.0],
                                   atol=1e-9)

    def test_invalid_mode_rejected(self, example1):
        with pytest.raises(ValueError):
            jk_step(make_state(example1), 0.5, stream(0), x0_mode="bogus")


class TestRunAdaptive:
    def test_p_one_full_acs_at_step_zero(self):
        trace = run_adaptive(ModelParams(d=6, p=1.0), seed=1, max_steps=10,
                             stop="full_acs")
        assert trace.full_acs_step == 0
        assert trace.first_cycle_step == 0
        assert len(trace.records) == 1
        assert trace.records[0].chosen is None

    def test_stop_none_runs_budget(self):
        trace = run_adaptive(ModelParams(d=6, p=0.1), seed=2, max_steps=15)
        assert len(trace.records) == 16
        assert trace.records[-1].chosen is None
        assert all(r.chosen is not None for r in trace.records[:-1])

    def test_events_recorded_even_without_stop(self):
        trace = run_adaptive(ModelParams(d=10, p=0.3), seed=3, max_steps=30)
        assert trace.first_cycle_step == 0  # dense graph starts cyclic
        rec0 = trace.records[0]
        assert rec0.directed_cycle

    def test_censored_run_keeps_events_none(self):
        trace = run_adaptive(ModelParams(d=12, p=0.01), seed=4, max_steps=5,
                             stop="first_cycle")
        assert trace.first_cycle_step is None
        assert len(trace.records) == 6

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_adaptive(ModelParams(d=4, p=0.1), seed=0, max_steps=0)
        with pytest.raises(ValueError):
            run_adaptive(ModelParams(d=4, p=0.1), seed=0, max_steps=5, stop="x")

    def test_unknown_x0_mode_rejected_before_any_step(self):
        # the graph is cyclic at step 0, so the run would stop before the
        # first jk_step ever looked at x0_mode
        with pytest.raises(ValueError, match="x0_mode"):
            run_adaptive(ModelParams(d=10, p=0.9), seed=1, max_steps=5,
                         stop="first_cycle", x0_mode="bogus")

    def test_determinism_byte_identical_traces(self):
        kw = dict(params=ModelParams(d=12, p=0.04), max_steps=40)
        t1 = trace_to_json_lines(run_adaptive(seed=11, **kw))
        t2 = trace_to_json_lines(run_adaptive(seed=11, **kw))
        assert t1 == t2
        t3 = trace_to_json_lines(run_adaptive(seed=12, **kw))
        assert t1 != t3

    def test_acs_preservation_counter_zero(self):
        # the invariant check runs on every step of these runs
        for seed in (1, 2, 3):
            trace = run_adaptive(ModelParams(d=15, p=0.06), seed=seed,
                                 max_steps=60, plant_cycle=2)
            assert trace.invariant_violations == 0

    def test_planted_cycle_guarantees_initial_cycle(self):
        trace = run_adaptive(ModelParams(d=10, p=0.0), seed=5, max_steps=3,
                             plant_cycle=3)
        assert trace.first_cycle_step == 0
        assert trace.records[0].support_size == 3

    def test_support_monotone_while_zeros_exist_fixture(self):
        # regression fixture: with a planted seed cycle at low p no second
        # basic class forms and the support can only grow
        trace = run_adaptive(ModelParams(d=20, p=0.002), seed=6, max_steps=400,
                             plant_cycle=2, stop="full_acs")
        sizes = [r.support_size for r in trace.records]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_undirected_stop_kind(self):
        trace = run_adaptive(ModelParams(d=12, p=0.25), seed=7, max_steps=100,
                             stop="first_cycle", cycle_kind="undirected")
        assert trace.first_cycle_step is not None

    def test_undirected_cycle_test_stops_at_the_first_cycle(self, monkeypatch):
        # the test's result is read only until the first cycle is found,
        # so a run that goes on past it makes no further calls
        from jknet import adaptation
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return has_undirected_cycle(matrix)

        monkeypatch.setattr(adaptation, "has_undirected_cycle", counted)
        trace = run_adaptive(ModelParams(d=12, p=0.25), seed=7, max_steps=40,
                             cycle_kind="undirected")
        assert trace.steps == 40
        assert trace.first_cycle_step is not None
        assert trace.first_cycle_step < 40
        assert len(calls) == trace.first_cycle_step + 1

    def test_lambda_matches_kind(self):
        trace = run_adaptive(ModelParams(d=10, p=0.15), seed=8, max_steps=20)
        for rec in trace.records:
            if rec.directed_cycle and rec.lam > 0.5:
                assert rec.lam >= 1 - 1e-9

    def test_first_cycle_never_after_full_acs(self):
        # a graph whose every vertex has an in-edge contains a directed
        # cycle, so the cycle event cannot come later than the ACS event
        for seed in range(12):
            trace = run_adaptive(ModelParams(d=10, p=0.12), seed=700 + seed,
                                 max_steps=120)
            if trace.full_acs_step is not None:
                assert trace.first_cycle_step is not None
                assert trace.first_cycle_step <= trace.full_acs_step

    def test_min_set_equals_zero_set_when_zeros_exist(self):
        from jknet.graph import sample_er_digraph
        checked = 0
        for seed in range(60):
            m = sample_er_digraph(ModelParams(d=9, p=0.2), stream(71, seed))
            eq = equilibrium(m)
            if eq.zero_set.size == 0:
                continue
            jset = min_prevalence_set(eq.x_star)
            assert jset.tolist() == eq.zero_set.tolist()
            checked += 1
        assert checked > 20


class TestStateFlags:
    """Each state's flags agree with the graph searches they replace."""

    CHAINS = [(3, 0.15), (6, 0.5), (8, 0.08), (12, 0.05), (20, 0.04),
              (30, 0.1)]

    @pytest.mark.parametrize("x0_mode", X0_MODES)
    def test_flags_match_searches_along_jk_step_chains(self, x0_mode):
        kinds, cycle_flags, acs_flags = set(), set(), set()
        for i, (d, p) in enumerate(self.CHAINS):
            rng = stream(900 + i)
            state = make_state(sample_er_digraph(ModelParams(d=d, p=p), rng))
            for _ in range(60):
                new_state, rec = jk_step(state, p, rng, x0_mode=x0_mode)
                m = state.matrix
                assert rec.directed_cycle == has_directed_cycle(m)
                assert rec.full_acs == is_acs(m, range(m.d))
                kinds.add(state.x_star.kind)
                cycle_flags.add(rec.directed_cycle)
                acs_flags.add(rec.full_acs)
                state = new_state
        assert kinds == {KIND_ACS, KIND_TERMINAL, KIND_DEGENERATE}
        assert cycle_flags == acs_flags == {True, False}

    @pytest.mark.parametrize("x0_mode", X0_MODES)
    def test_run_adaptive_records_match_searches(self, x0_mode):
        # replay the recorded choices on the run's stream to rebuild each
        # graph, then test it from scratch
        params = ModelParams(d=15, p=0.06)
        trace = run_adaptive(params, seed=31, max_steps=80, x0_mode=x0_mode)
        rng = stream(31)
        m = sample_er_digraph(params, rng)
        for rec in trace.records:
            assert rec.directed_cycle == has_directed_cycle(m)
            assert rec.full_acs == is_acs(m, range(m.d))
            if rec.chosen is not None:
                rng.integers(len(rec.j_min_set))
                m = resample_vertex(m, rec.chosen, params.p, rng)
        assert {r.directed_cycle for r in trace.records} == {True, False}


class TestPlantDirectedCycle:
    def test_plants_requested_length(self):
        m = plant_directed_cycle(InteractionMatrix.zero(5), 4)
        assert has_directed_cycle(m)
        assert is_acs(m, range(4))
        assert m.edge_count() == 4

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            plant_directed_cycle(InteractionMatrix.zero(5), 1)
        with pytest.raises(ValueError):
            plant_directed_cycle(InteractionMatrix.zero(5), 6)


class TestTraceSerialisation:
    def test_round_trip(self):
        trace = run_adaptive(ModelParams(d=8, p=0.1), seed=9, max_steps=12)
        text = trace_to_json_lines(trace)
        back = trace_from_json_lines(text)
        assert trace_to_json_lines(back) == text
        assert back.first_cycle_step == trace.first_cycle_step
        assert back.full_acs_step == trace.full_acs_step
        assert len(back.records) == len(trace.records)
        # every field comes back with its value and type (j_min_set a tuple)
        assert [vars(r) for r in back.records] == [vars(r) for r in trace.records]
        assert all(type(r.j_min_set) is tuple for r in back.records)

    def test_record_lines_are_each_records_own_dump(self):
        # each distinct tie set is encoded once, and every record line is
        # still the record's own json.dumps with sorted keys: over seeded
        # runs whose tie set stays put for many steps, changes mid-run,
        # and ends on the final record with "chosen": null
        import json
        kept = changed = 0
        for d, theta, x0_mode, seed in [(400, 0.5, "uniform", 1), (400, 0.5, "carry", 2),
                                        (100, 1.0, "uniform", 3), (8, 0.8, "uniform", 9)]:
            trace = run_adaptive(ModelParams.from_theta(d, theta), seed=seed, max_steps=40,
                                 x0_mode=x0_mode, plant_cycle=2)
            text = trace_to_json_lines(trace)
            lines = text.splitlines()
            assert lines[1:] == [json.dumps(
                {"s": r.s, "j_min_set": list(r.j_min_set), "chosen": r.chosen,
                 "lambda": r.lam, "support_size": r.support_size,
                 "directed_cycle": r.directed_cycle, "full_acs": r.full_acs},
                sort_keys=True) for r in trace.records]
            assert json.loads(lines[-1])["chosen"] is None
            sets = [r.j_min_set for r in trace.records]
            kept += sum(a == b for a, b in zip(sets, sets[1:]))
            changed += sum(a != b for a, b in zip(sets, sets[1:]))
            back = trace_from_json_lines(text)
            assert trace_to_json_lines(back) == text
            assert [vars(r) for r in back.records] == [vars(r) for r in trace.records]
        assert kept > 50 and changed > 5, (kept, changed)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"])
    def test_text_without_a_header_line_is_refused(self, text):
        with pytest.raises(ValueError, match="^trace text has no header line$"):
            trace_from_json_lines(text)

    def test_header_carries_params_and_options(self):
        import json
        trace = run_adaptive(ModelParams(d=8, p=0.1), seed=10, max_steps=5)
        header = json.loads(trace_to_json_lines(trace).splitlines()[0])
        assert header["d"] == 8
        assert header["p"] == 0.1
        assert header["theta"] == pytest.approx(0.8)
        assert header["seed"] == 10
        assert header["options"]["max_steps"] == 5

    def test_header_records_the_threshold_constants(self):
        # no caller sets the support and tie thresholds, but a trace still
        # names them, so that it says which tests made it
        import json
        trace = run_adaptive(ModelParams(d=8, p=0.1), seed=10, max_steps=5)
        options = json.loads(trace_to_json_lines(trace).splitlines()[0])["options"]
        assert (options["zero_tol"], options["rel_tol"], options["tol"]) == (
            1e-9, 1e-9, 1e-10)

    def test_record_lines_use_documented_field_names(self):
        import json
        trace = run_adaptive(ModelParams(d=8, p=0.1), seed=10, max_steps=5)
        line = json.loads(trace_to_json_lines(trace).splitlines()[1])
        assert set(line) == {"s", "j_min_set", "chosen", "lambda",
                             "support_size", "directed_cycle", "full_acs"}


@pytest.mark.parametrize("x0_mode", X0_MODES)
def test_adaptive_steps_make_no_dense_float_copy(monkeypatch, x0_mode):
    # every per-state pass reads the edge list; a d x d float copy per
    # step is what they replaced
    def refuse(self):
        raise AssertionError("as_float() called on the adaptive path")

    monkeypatch.setattr(InteractionMatrix, "as_float", refuse)
    trace = run_adaptive(ModelParams.from_theta(400, 0.5), seed=3, max_steps=20,
                         plant_cycle=2, x0_mode=x0_mode)
    assert trace.steps == 20
    assert trace.invariant_violations == 0


def test_unknown_cycle_kind_is_refused():
    from jknet.adaptation import CYCLE_KINDS

    with pytest.raises(ValueError) as exc:
        run_adaptive(ModelParams(d=5, p=0.2), seed=1, max_steps=1, cycle_kind="weak")
    assert str(exc.value) == f"cycle_kind must be one of {CYCLE_KINDS}"


def test_an_update_that_changes_the_support_is_counted(monkeypatch):
    # the planted 2-cycle {0, 1}, or 3-cycle {0, 1, 2}, carries the
    # equilibrium, and the other vertices sit at zero; a resample that
    # also flips the edge 1 -> 0 removes an arc of the 2-cycle, or adds a
    # chord to the 3-cycle: either changes the support's subgraph, which
    # the invariant forbids
    from jknet import adaptation

    real = adaptation.resample_vertex

    def flipping(C, j, p, rng):
        a = np.array(real(C, j, p, rng).entries)
        a[0, 1] = 1 - a[0, 1]
        return InteractionMatrix(a)

    params = ModelParams(d=8, p=0.0)
    runs = [dict(seed=1, max_steps=4, plant_cycle=plant) for plant in (2, 3)]
    for kw in runs:
        clean = run_adaptive(params, **kw)
        assert clean.records[0].support_size == kw["plant_cycle"]
        assert clean.invariant_violations == 0
    monkeypatch.setattr(adaptation, "resample_vertex", flipping)
    for kw in runs:
        assert run_adaptive(params, **kw).invariant_violations >= 1


# (d, theta, plant_cycle, max_steps) of the replayed runs
REPLAYS = [(30, 0.5, None, 200), (60, 1.5, 2, 120), (120, 3.0, None, 60),
           (200, 1.0, 3, 40), (400, 0.5, 2, 30), (400, 0.5, None, 30)]


@pytest.mark.parametrize("x0_mode", X0_MODES)
@pytest.mark.parametrize("d, theta, plant, steps", REPLAYS)
def test_traces_replay_under_the_peeled_flow_limit(monkeypatch, x0_mode, d, theta,
                                                   plant, steps):
    # the flow limit decided by Kahn's peel gives the same trace text
    params = ModelParams.from_theta(d, theta)
    kw = dict(seed=d + 7, max_steps=steps, x0_mode=x0_mode, plant_cycle=plant)
    fast = trace_to_json_lines(run_adaptive(params, **kw))
    monkeypatch.setattr(dynamics, "_flow_limit", peeled_flow_limit)
    assert trace_to_json_lines(run_adaptive(params, **kw)) == fast


@pytest.mark.parametrize("x0_mode", X0_MODES)
@pytest.mark.parametrize("d, theta, plant, steps", REPLAYS)
def test_an_unchanged_graph_reuses_the_solve(monkeypatch, x0_mode, d, theta,
                                             plant, steps):
    # a uniform step whose redraw changed nothing keeps the last solve;
    # forced to solve again, every run gives the same trace text
    from jknet import adaptation

    params = ModelParams.from_theta(d, theta)
    kw = dict(seed=d + 11, max_steps=steps, x0_mode=x0_mode, plant_cycle=plant)
    real, solves = adaptation.resample_vertex, []
    monkeypatch.setattr(adaptation, "equilibrium",
                        lambda *a, **k: solves.append(1) or equilibrium(*a, **k))
    reused = trace_to_json_lines(run_adaptive(params, **kw))
    reuses = steps + 1 - len(solves)
    monkeypatch.setattr(adaptation, "resample_vertex",
                        lambda C, *a: InteractionMatrix(real(C, *a).entries))
    assert trace_to_json_lines(run_adaptive(params, **kw)) == reused
    if x0_mode == "carry":
        assert reuses == 0
    elif theta == 0.5:  # a sparse graph often redraws an isolated vertex bare
        assert reuses > 0


@pytest.mark.parametrize("x0_mode", X0_MODES)
def test_an_adaptive_run_makes_no_separate_cycle_test(monkeypatch, x0_mode):
    # the flow limit's power loop is the cycle test: no has_directed_cycle
    # call and no Kahn peel on the adaptive path
    calls = []
    for module, name in ((graph, "has_directed_cycle"), (graph, "_peel")):
        def spy(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    trace = run_adaptive(ModelParams.from_theta(40, 0.5), seed=2, max_steps=150,
                         x0_mode=x0_mode)
    assert {r.directed_cycle for r in trace.records} == {True, False}
    assert calls == []


def certified_solves(monkeypatch) -> tuple[list, list]:
    """Spy on the flow limit: the first list gets, for each solve that
    skipped the power loop on a cycle certificate, what the loop would
    have returned (run on a copy, which records nothing); the second
    gets True for each solve that ran it."""
    skipped, ran = [], []
    real_flow, real_limit = dynamics._flow_limit, dynamics._nilpotent_limit
    real_direction = dynamics._dominant_direction

    def flow_limit(C, start):
        ran.append(False)
        return real_flow(C, start)

    def limit(C, x0):
        ran[-1] = True
        return real_limit(C, x0)

    def direction(C, x0):
        if not ran[-1]:
            skipped.append(real_limit(InteractionMatrix(C.entries), x0))
        return real_direction(C, x0)

    monkeypatch.setattr(dynamics, "_flow_limit", flow_limit)
    monkeypatch.setattr(dynamics, "_nilpotent_limit", limit)
    monkeypatch.setattr(dynamics, "_dominant_direction", direction)
    return skipped, ran


# (d, theta, plant_cycle, max_steps) of the runs whose skipped loops are
# replayed: growth runs at d = 50, a cyclic run at d = 400
CERTIFIED = [(50, 0.5, None, 400), (50, 0.5, 2, 300), (60, 1.5, None, 60),
             (400, 0.5, 2, 40)]


@pytest.mark.parametrize("x0_mode", X0_MODES)
@pytest.mark.parametrize("d, theta, plant, steps", CERTIFIED)
def test_a_certified_solve_skips_only_a_loop_that_would_find_a_cycle(
        monkeypatch, x0_mode, d, theta, plant, steps):
    skipped, ran = certified_solves(monkeypatch)
    trace = run_adaptive(ModelParams.from_theta(d, theta), seed=d + 5,
                         max_steps=steps, x0_mode=x0_mode, plant_cycle=plant)
    assert trace.invariant_violations == 0
    assert len(skipped) > 0
    assert all(limit is None for limit in skipped)


def test_a_redraw_inside_the_certificate_runs_the_loop(monkeypatch):
    # the planted 2-cycle {0, 1} is the certificate: a redraw of vertex 5
    # keeps it and skips the loop, a redraw of vertex 0 drops it, and the
    # loop then runs and finds the cycle the redraw left
    skipped, ran = certified_solves(monkeypatch)
    base = plant_directed_cycle(InteractionMatrix.zero(8), 2)
    outside = resample_vertex(base, 5, 1.0, stream(1))
    equilibrium(outside)
    assert (ran, len(skipped)) == ([False], 1)
    inside = resample_vertex(base, 0, 1.0, stream(1))
    assert inside._record.cycle is None
    assert equilibrium(inside).kind == KIND_ACS
    assert (ran, len(skipped)) == ([False, True], 1)
    assert inside._record.cycle is not None and is_acs(inside, inside._record.cycle)


def test_a_step_whose_chosen_vertex_is_certified_runs_the_loop(monkeypatch):
    # along a growth run, every step whose chosen vertex lies in the
    # certificate of the graph it leaves solves with the power loop
    from jknet import adaptation

    chosen_in = []  # (the index of the solve after the redraw, j certified)
    real = adaptation.resample_vertex

    def redraw(C, j, p, rng):
        chosen_in.append((len(ran), C._record.cycle is not None and j in C._record.cycle))
        return real(C, j, p, rng)

    monkeypatch.setattr(adaptation, "resample_vertex", redraw)
    skipped, ran = certified_solves(monkeypatch)
    trace = run_adaptive(ModelParams.from_theta(50, 0.5), seed=2, max_steps=300,
                         x0_mode="carry")
    assert trace.invariant_violations == 0
    assert len(ran) == 301  # a carried start is solved every step
    assert sum(c for _, c in chosen_in) > 10
    assert all(ran[k] for k, c in chosen_in if c)


@pytest.mark.parametrize("x0_mode", X0_MODES)
@pytest.mark.parametrize("cycle_kind", ["directed", "undirected"])
def test_an_adaptive_run_forms_and_validates_no_dense_matrix(monkeypatch,
                                                             x0_mode, cycle_kind):
    # the sampled graph and every redraw come from edge lists: no state
    # is validated or forms its d x d entries
    made = []

    def validate(self):
        made.append("validated")

    real = InteractionMatrix.entries

    def read(self):
        if "entries" not in vars(self):
            made.append("entries")
        return real.__get__(self, InteractionMatrix)

    monkeypatch.setattr(InteractionMatrix, "__post_init__", validate)
    monkeypatch.setattr(InteractionMatrix, "entries", property(read))
    trace = run_adaptive(ModelParams.from_theta(60, 0.5), seed=8, max_steps=200,
                         x0_mode=x0_mode, cycle_kind=cycle_kind, plant_cycle=2)
    assert trace.steps == 200 and trace.invariant_violations == 0
    assert made == []


# ---------------------------------------------------------------------------
# The component record carried across redraws
# ---------------------------------------------------------------------------

def scratch_record(C):
    """The record ``graph._Record.form`` forms from scratch for C's edges,
    on a copy that holds none."""
    return graph._Record.form(InteractionMatrix._from_arcs(C.d, *C.arcs))


def dense_record(C):
    """C's component fields as the record lays them out, worked out from
    the dense matrix alone: labels by ``dense_component_labels``, and
    each component with at least as many arcs as vertices cut as
    I + entries[np.ix_(verts, verts)]."""
    a = C.entries
    labels = dense_component_labels(a)
    # a lone vertex has no arc: a tree
    tree = np.bincount(labels, minlength=C.d)[labels] == 1
    blocks = {}
    # the vertices grouped by label, each group increasing
    order = np.argsort(labels, kind="stable")
    for verts in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        r = int(verts[0])
        if tree[r]:
            continue
        cut = a[np.ix_(verts, verts)]
        if cut.sum() >= verts.size:
            blocks[r] = SimpleNamespace(verts=verts, matrix=np.eye(verts.size) + cut)
        else:
            tree[verts] = True
    return SimpleNamespace(labels=labels, blocks=blocks, trees=np.flatnonzero(tree))


def assert_same_components(got, want):
    """The component fields of the record ``got`` equal those of ``want``."""
    for name in ("labels", "trees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert list(got.blocks) == list(want.blocks)
    for label, block in want.blocks.items():
        got_block = got.blocks[label]
        np.testing.assert_array_equal(got_block.verts, block.verts)
        np.testing.assert_array_equal(got_block.matrix, block.matrix)
        assert not got_block.matrix.flags.writeable


def assert_record_is_the_scratch_one(C):
    """Every component field of C's record equals a from-scratch build on
    a bare copy and the dense oracle, and a certificate, where C holds
    one, holds on C."""
    assert_same_components(C._record, scratch_record(C))
    assert_same_components(C._record, dense_record(C))
    if C._record.cycle is not None:
        assert is_acs(C, C._record.cycle)


# (graph, labels, the squared components' labels, trees) of hand-made
# scratch builds
SCRATCH_FORMS = [
    (InteractionMatrix.zero(5), [0, 1, 2, 3, 4], [], [0, 1, 2, 3, 4]),
    (InteractionMatrix.from_edges(6, [(0, 1), (0, 2), (2, 3), (4, 3), (5, 4)]),
     [0] * 6, [], [0, 1, 2, 3, 4, 5]),
    (InteractionMatrix.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
     [0] * 5, [0], []),
    (InteractionMatrix.from_edges(7, [(3, 5), (5, 3), (0, 6), (6, 1)]),
     [0, 0, 2, 3, 4, 3, 0], [3], [0, 1, 2, 4, 6]),
]


@pytest.mark.parametrize("C, labels, squared, trees", SCRATCH_FORMS,
                         ids=["isolated", "a tree", "a simple cycle", "a 2-cycle and trees"])
def test_a_scratch_build_of_hand_made_graphs(C, labels, squared, trees):
    record = graph._Record.form(C)
    assert record is C._record
    assert record.labels.tolist() == labels
    assert list(record.blocks) == squared and record.trees.tolist() == trees
    assert_same_components(record, dense_record(C))


def two_rings(d, *extra):
    """The 3-cycles 0 -> 1 -> 2 -> 0 and 3 -> 4 -> 5 -> 3 on d vertices,
    with the (src, dst) pairs ``extra``, and its components formed."""
    C = InteractionMatrix.from_edges(
        d, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), *extra])
    graph._Record.form(C)
    return C


def test_hand_made_redraws_split_and_merge_squared_components(monkeypatch):
    # vertex 6 joins the two rings into one squared component; redrawn
    # with no arc it splits it in two. Redrawn with every arc, an
    # isolated 6 merges both rings and 7 into one
    C = two_rings(7, (6, 0), (6, 3))
    assert list(C._record.blocks) == [0] and C._record.trees.tolist() == []
    split = resample_vertex(C, 6, 0.0, stream(0))
    assert_record_is_the_scratch_one(split)
    assert split._record.labels.tolist() == [0, 0, 0, 3, 3, 3, 6]
    assert list(split._record.blocks) == [0, 3] and split._record.trees.tolist() == [6]

    C = two_rings(8)
    merged = resample_vertex(C, 6, 1.0, stream(0))
    assert_record_is_the_scratch_one(merged)
    assert merged._record.labels.tolist() == [0] * 8
    assert list(merged._record.blocks) == [0] and merged._record.trees.tolist() == []

    # a redraw among trees that stay trees forms no subgraph and no tree
    # list, and shares the untouched blocks
    C = two_rings(9, (6, 7), (7, 8))
    made = []
    real = InteractionMatrix._from_arcs.__func__
    monkeypatch.setattr(InteractionMatrix, "_from_arcs", classmethod(
        lambda cls, *a: made.append(1) or real(cls, *a)))
    cut = resample_vertex(C, 7, 0.0, stream(0))
    assert made == [1]  # the redrawn graph itself
    assert_record_is_the_scratch_one(cut)
    assert cut._record.trees is C._record.trees
    assert all(cut._record.blocks[r] is C._record.blocks[r] for r in (0, 3))


# (d, theta, max_steps) of the runs whose every redraw is held to a
# from-scratch build; each runs in both start modes, planted and not,
# and under every stop mode
CARRIED_RUNS = [(65, 3.0, 30), (100, 0.3, 60), (100, 1.0, 40), (150, 2.0, 30),
                (400, 0.5, 50), (400, 1.0, 15), (1000, 0.5, 15), (2000, 0.3, 8)]


def test_a_carried_record_equals_a_from_scratch_build(monkeypatch):
    # every redraw of a graph whose record holds components is checked:
    # the carried fields equal those a from-scratch build forms. Among
    # them are redraws that merge two squared components into one and
    # that split one, and redraws of vertices in and out of a certificate
    seen = {"carried": 0, "merge": 0, "split": 0, "j certified": 0,
            "j uncertified": 0}
    real = resample_vertex

    def redraw(C, j, p, rng):
        out = real(C, j, p, rng)
        old, new = C._record, out._record
        if out is C or old.labels is None:
            assert out is C or new.labels is None
            return out
        assert_record_is_the_scratch_one(out)
        seen["carried"] += 1
        if old.cycle is not None:
            seen["j certified" if j in old.cycle else "j uncertified"] += 1
        old_blocks = [set(block.verts.tolist()) for block in old.blocks.values()]
        new_blocks = [set(block.verts.tolist()) for block in new.blocks.values()]
        seen["merge"] += any(sum(bool(a & b) for a in old_blocks) > 1
                             for b in new_blocks)
        seen["split"] += any(len(set(new.labels[sorted(a)].tolist())) > 1
                             for a in old_blocks)
        return out

    monkeypatch.setattr(adaptation, "resample_vertex", redraw)
    seed = 0
    for d, theta, steps in CARRIED_RUNS:
        for x0_mode in X0_MODES:
            for plant in (None, 2):
                for stop in adaptation.STOP_MODES:
                    seed += 1
                    trace = run_adaptive(ModelParams.from_theta(d, theta), seed=seed,
                                         max_steps=steps, stop=stop, x0_mode=x0_mode,
                                         plant_cycle=plant)
                    assert trace.invariant_violations == 0
    assert seen["carried"] > 1000 and min(seen.values()) > 5, seen


def test_a_carried_record_solves_as_a_fresh_one():
    # chained redraws of a planted d = 400 graph: the solve on the graph
    # that carries its record gives the bits of the solve on a copy
    params = ModelParams.from_theta(400, 0.5)
    rng = stream(6)
    m = plant_directed_cycle(sample_er_digraph(params, rng), 2)
    for k in range(60):
        eq = equilibrium(m)
        fresh = equilibrium(InteractionMatrix._from_arcs(m.d, *m.arcs))
        assert eq.x_star.tobytes() == fresh.x_star.tobytes()
        assert eq.lam == fresh.lam and m._record.labels is not None
        m = resample_vertex(m, int(rng.integers(m.d)), params.p, rng)


# ---------------------------------------------------------------------------
# The squarings carried on each block across solves
# ---------------------------------------------------------------------------

def bare_solve(C, x0=None):
    """``equilibrium`` of C's arcs on a bare copy, which carries nothing."""
    return equilibrium(InteractionMatrix._from_arcs(C.d, *C.arcs), x0=x0)


def spy_squarings(monkeypatch) -> list:
    """Wrap ``dynamics._square``; the list gets each squared block's size."""
    sizes, real = [], dynamics._square
    monkeypatch.setattr(dynamics, "_square", lambda m: sizes.append(m.shape[0]) or real(m))
    return sizes


def solve_beside_a_bare_copy(monkeypatch, solves: list):
    """Make ``adaptation.equilibrium`` solve each state twice, as given and
    on a bare copy, and hold the two to the same ``x_star`` bytes and
    ``lambda``. Each solve appends to ``solves`` the blocks it squared
    and those the bare copy squared, as ``Counter``s of block sizes."""
    sizes = spy_squarings(monkeypatch)
    real = adaptation.equilibrium

    def solve(C, x0=None):
        del sizes[:]
        eq = real(C, x0=x0)
        carried = Counter(sizes)
        del sizes[:]
        bare = bare_solve(C, x0)
        assert eq.x_star.tobytes() == bare.x_star.tobytes() and eq.lam == bare.lam
        solves.append((carried, Counter(sizes)))
        return eq

    monkeypatch.setattr(adaptation, "equilibrium", solve)


# (d, theta, max_steps) of the runs whose every solve is held to a bare
# copy's; each runs in both start modes, planted and not, and under every
# stop mode
SOLVED_RUNS = [(65, 3.0, 20), (100, 0.5, 40), (150, 2.0, 15), (400, 0.5, 30),
               (400, 1.0, 8), (1000, 0.5, 10)]


def test_a_carried_solve_equals_a_bare_one(monkeypatch):
    # after every step the solve that may read its blocks' carried
    # squarings gives the bits of a solve that carries none, and squares
    # no block more often
    solves = []
    solve_beside_a_bare_copy(monkeypatch, solves)
    seed = 0
    for d, theta, steps in SOLVED_RUNS:
        for x0_mode in X0_MODES:
            for plant in (None, 2):
                for stop in adaptation.STOP_MODES:
                    seed += 1
                    run_adaptive(ModelParams.from_theta(d, theta), seed=seed,
                                 max_steps=steps, stop=stop, x0_mode=x0_mode,
                                 plant_cycle=plant)
    assert len(solves) > 1000
    assert all(carried[s] <= bare[s] for carried, bare in solves for s in carried)
    assert sum(carried != bare for carried, bare in solves) > 100


def test_most_uniform_solves_read_a_carried_block(monkeypatch):
    # a d = 400 run from the uniform start redraws one vertex a step, and
    # the block of the planted cycle mostly survives it with its squarings
    solves = []
    solve_beside_a_bare_copy(monkeypatch, solves)
    run_adaptive(ModelParams.from_theta(400, 0.5), seed=1, max_steps=50, plant_cycle=2)
    squared = [(sum(c.values()), sum(b.values())) for c, b in solves if b]
    assert len(squared) > 40
    assert sum(c < b for c, b in squared) > 0.7 * len(squared)


def redrawn(C, j, edges):
    """C with vertex j's arcs replaced by the (src, dst) pairs ``edges``,
    each at j, and its record formed from C's as ``resample_vertex``
    forms it."""
    kept = [(a, b) for a, b in C.edges() if j not in (a, b)]
    new = InteractionMatrix.from_edges(C.d, kept + edges)
    met = [j] + [v for edge in edges for v in edge if v != j]
    graph._Record.form(new, C._record, np.array(met))
    return new


def tops(block) -> list:
    """The divisors of the squarings carried on ``block``."""
    return [top for _, top, _ in block.squarings[1]]


def test_another_components_maximum_moves_an_early_divisor(monkeypatch):
    # a 2-cycle and a 3-cycle both square to a largest entry 2. Vertex 2
    # redrawn into both ways of the 3-cycle's arcs makes its square's
    # largest entry 3, which sets the first divisor: the 2-cycle's block
    # is shared, its carry fails at level 0, and it is squared afresh
    sizes = spy_squarings(monkeypatch)
    old = InteractionMatrix.from_edges(70, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    first = equilibrium(old)
    ring = old._record.blocks[0]
    assert tops(ring)[0] == 2.0
    new = redrawn(old, 2, [(2, 3), (3, 2), (2, 4), (4, 2)])
    assert new._record.blocks[0] is ring
    del sizes[:]
    eq = equilibrium(new)
    assert tops(ring)[0] == 3.0 and sizes.count(2) == sizes.count(3) == len(tops(ring))
    assert eq.x_star.tobytes() == bare_solve(new).x_star.tobytes()
    # the older graph, solved after the newer one rewrote the shared
    # carry, squares the ring again and gives its first bits
    del sizes[:]
    again = equilibrium(old)
    assert tops(ring)[0] == 2.0 and sizes.count(2) == len(tops(ring))
    assert again.x_star.tobytes() == first.x_star.tobytes()
    assert again.x_star.tobytes() == bare_solve(old).x_star.tobytes()


def test_a_solve_past_the_carried_levels_replays_them(monkeypatch):
    # the complete 3-vertex digraph sets every divisor beside a 2-cycle or
    # a smaller 3-vertex block. With the 2-cycle the solve takes 7
    # squarings; vertex 5 redrawn into it needs 8, so the eighth is made
    # on the first 7 replayed, and the carried 7 are kept as they were
    sizes = spy_squarings(monkeypatch)
    full = [(a, b) for a in range(3) for b in range(3) if a != b]
    old = InteractionMatrix.from_edges(70, full + [(3, 4), (4, 3)])
    equilibrium(old)
    block = old._record.blocks[0]
    carried = block.squarings[1]
    assert len(carried) == 7
    new = redrawn(old, 5, [(3, 5), (5, 3), (4, 5)])
    assert new._record.blocks[0] is block
    del sizes[:]
    eq = equilibrium(new)
    assert sizes.count(3) == 8 + 8  # the block, replayed, and the other one
    levels = block.squarings[1]
    assert len(levels) == 8 and levels[:7] == carried
    assert eq.x_star.tobytes() == bare_solve(new).x_star.tobytes()


def test_a_start_with_other_bits_squares_afresh(monkeypatch):
    # a carried level is read only for the start it was applied to: a
    # start one ulp away, then the uniform start again, each square the
    # block afresh, and a second uniform solve reads what the first wrote;
    # each gives a bare copy's bits
    sizes = spy_squarings(monkeypatch)
    m = plant_directed_cycle(sample_er_digraph(ModelParams.from_theta(100, 0.5),
                                               stream(4)), 2)
    uniform = equilibrium(m)
    block = m._record.blocks[0]
    key = block.squarings[0]
    x0 = np.full(m.d, 1.0 / m.d)
    x0[block.verts[0]] = np.nextafter(x0[block.verts[0]], 1.0)
    for start, afresh in ((x0, True), (None, True), (None, False)):
        del sizes[:]
        eq = equilibrium(m, x0=start)
        assert (block.squarings[0] == key) == (start is None)
        assert sizes.count(block.verts.size) == afresh * len(block.squarings[1])
        assert eq.x_star.tobytes() == bare_solve(m, start).x_star.tobytes()
    assert eq.x_star.tobytes() == uniform.x_star.tobytes()


def test_threads_sharing_a_block_each_get_their_own_bits():
    # two graphs share the 2-cycle's block but set its divisors apart, so
    # each solve finds the other's carry and rewrites it. Solved over and
    # over from four threads with a short switch interval, every solve
    # still gives the bits of its own graph
    import sys
    import threading

    old = InteractionMatrix.from_edges(70, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    graph._Record.form(old)
    new = redrawn(old, 2, [(2, 3), (3, 2), (2, 4), (4, 2)])
    assert new._record.blocks[0] is old._record.blocks[0]
    want = {id(m): bare_solve(m).x_star.tobytes() for m in (old, new)}
    wrong, done = [], []

    def work(graphs):
        for m in graphs * 50:
            wrong.append(equilibrium(m).x_star.tobytes() != want[id(m)])
        done.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(order,))
                   for order in ([old, new], [new, old]) * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(done) == 4
    assert len(wrong) == 400 and not any(wrong)


def test_a_matrix_two_steps_back_is_collectable():
    # the redrawn graph shares blocks with its parent, never the parent
    import gc
    import weakref

    params = ModelParams.from_theta(400, 0.5)
    rng = stream(3)
    m = plant_directed_cycle(sample_er_digraph(params, rng), 2)
    state = AdaptiveState(0, m, equilibrium(m))
    assert m._record.labels is not None
    old = weakref.ref(m)
    del m
    changed = 0
    while changed < 2:
        before = state.matrix
        state, _ = jk_step(state, params.p, rng)
        changed += state.matrix is not before
        del before
    assert state.matrix._record.labels is not None
    gc.collect()
    assert old() is None


@pytest.mark.parametrize("x0_mode", X0_MODES)
def test_small_and_acyclic_runs_form_no_record(monkeypatch, x0_mode):
    # d <= _ONE_BLOCK squares I + C whole, and an acyclic state ends in
    # the power loop: neither forms components, so none are carried
    formed, states = [], []
    real_form = graph._Record.form
    real_equilibrium = adaptation.equilibrium
    monkeypatch.setattr(graph._Record, "form",
                        staticmethod(lambda C, *a: formed.append(C) or real_form(C, *a)))
    monkeypatch.setattr(adaptation, "equilibrium",
                        lambda C, **kw: states.append(C) or real_equilibrium(C, **kw))
    for d, theta, plant, steps in [(64, 1.0, 2, 150), (40, 0.5, 2, 200),
                                   (200, 0.2, None, 60), (500, 0.1, None, 40)]:
        trace = run_adaptive(ModelParams.from_theta(d, theta), seed=4,
                             max_steps=steps, x0_mode=x0_mode, plant_cycle=plant)
        if d > dynamics._ONE_BLOCK:
            assert not any(r.directed_cycle for r in trace.records)
        else:
            assert any(r.directed_cycle for r in trace.records)
    assert formed == []
    assert len(states) > 300
    assert all(C._record.labels is None for C in states)


@pytest.mark.parametrize("x0_mode", X0_MODES)
def test_the_undirected_flag_matches_a_bare_copy(monkeypatch, x0_mode):
    # has_undirected_cycle on every state of seeded runs, with and without
    # a component record, equals its answer on a copy with no record
    states = []
    real_equilibrium = adaptation.equilibrium
    monkeypatch.setattr(adaptation, "equilibrium",
                        lambda C, **kw: states.append(C) or real_equilibrium(C, **kw))
    for d, theta, seed in [(100, 0.3, 1), (400, 0.3, 2), (400, 0.5, 3), (150, 1.0, 4)]:
        run_adaptive(ModelParams.from_theta(d, theta), seed=seed, max_steps=40,
                     stop="first_cycle", cycle_kind="undirected",
                     x0_mode=x0_mode, plant_cycle=2)
    answers = set()
    for C in states:
        flag = has_undirected_cycle(C)
        bare = InteractionMatrix._from_arcs(C.d, *C.arcs)
        assert flag == has_undirected_cycle(bare)
        answers.add((flag, C._record.labels is not None))
    assert {(False, True), (True, True)} <= answers

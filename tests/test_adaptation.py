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

from oracles import peeled_flow_limit


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
    # the planted 2-cycle {0, 1} carries the equilibrium, and the other
    # vertices sit at zero; a resample that also cuts its edge 1 -> 0
    # changes the support's subgraph, which the invariant forbids
    from jknet import adaptation

    real = adaptation.resample_vertex

    def cutting(C, j, p, rng):
        a = np.array(real(C, j, p, rng).entries)
        a[0, 1] = 1 - a[0, 1]
        return InteractionMatrix(a)

    params, kw = ModelParams(d=8, p=0.0), dict(seed=1, max_steps=4, plant_cycle=2)
    clean = run_adaptive(params, **kw)
    assert clean.records[0].support_size == 2 and clean.invariant_violations == 0
    monkeypatch.setattr(adaptation, "resample_vertex", cutting)
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
    for module, name in ((graph, "has_directed_cycle"),
                         (dynamics, "has_directed_cycle"), (graph, "_peel")):
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
    """The record ``dynamics._components`` forms for C's edges on a copy
    that holds none."""
    return dynamics._components(InteractionMatrix._from_arcs(C.d, *C.arcs))


def assert_record_is_the_scratch_one(C):
    """Every component field of C's record equals a from-scratch build,
    and a certificate, where C holds one, holds on C."""
    got, want = C._record, scratch_record(C)
    for name in ("labels", "size", "edges", "trees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert list(got.blocks) == list(want.blocks)
    for label, (verts, block) in want.blocks.items():
        got_verts, got_block = got.blocks[label]
        np.testing.assert_array_equal(got_verts, verts)
        np.testing.assert_array_equal(got_block, block)
        assert not got_block.flags.writeable
    if got.cycle is not None:
        assert is_acs(C, got.cycle)


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
        old_blocks = [set(verts.tolist()) for verts, _ in old.blocks.values()]
        new_blocks = [set(verts.tolist()) for verts, _ in new.blocks.values()]
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
    formed, carried, states = [], [], []
    real_components, real_carry = dynamics._components, graph._Record.carry
    real_equilibrium = adaptation.equilibrium
    monkeypatch.setattr(dynamics, "_components",
                        lambda C: formed.append(C) or real_components(C))
    monkeypatch.setattr(graph._Record, "carry",
                        lambda self, *a: carried.append(1) or real_carry(self, *a))
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
    assert formed == [] and carried == []
    assert len(states) > 300
    assert all(C._record.labels is None for C in states)


@pytest.mark.parametrize("x0_mode", X0_MODES)
def test_the_undirected_flag_reads_the_record(monkeypatch, x0_mode):
    # has_undirected_cycle on every state of seeded runs equals its
    # answer on a copy with no record, and a state with a record is not
    # labelled again for it; a uniform run labels each state once at most
    states, labelled = [], []
    real_equilibrium = adaptation.equilibrium
    monkeypatch.setattr(adaptation, "equilibrium",
                        lambda C, **kw: states.append(C) or real_equilibrium(C, **kw))
    for module in (graph, dynamics):
        def spy(*args, real=module._weak_component_labels):
            labelled.append(1)
            return real(*args)
        monkeypatch.setattr(module, "_weak_component_labels", spy)
    answers = set()
    for d, theta, seed in [(100, 0.3, 1), (400, 0.3, 2), (400, 0.5, 3), (150, 1.0, 4)]:
        del labelled[:]
        before = len(states)
        trace = run_adaptive(ModelParams.from_theta(d, theta), seed=seed, max_steps=40,
                             stop="first_cycle", cycle_kind="undirected",
                             x0_mode=x0_mode, plant_cycle=2)
        if x0_mode == "uniform":
            assert len(labelled) <= trace.steps + 1
        for C in states[before:]:
            del labelled[:]
            flag = has_undirected_cycle(C)
            assert labelled == ([] if C._record.labels is not None else [1])
            bare = InteractionMatrix._from_arcs(C.d, *C.arcs)
            assert flag == has_undirected_cycle(bare)
            answers.add((flag, C._record.labels is not None))
    assert {(False, True), (True, True)} <= answers

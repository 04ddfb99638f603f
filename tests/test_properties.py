"""Property tests of the equilibrium and the adaptive step on small
graphs, and of the CSV text of any float.

Hypothesis draws the graphs and floats; the example count is fixed and
the search derandomised, so a run is repeatable and its cost bounded.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jknet import AdaptiveState, InteractionMatrix, equilibrium, is_acs, jk_step  # noqa: E402
from jknet import _csvtext  # noqa: E402
from jknet.adaptation import X0_MODES  # noqa: E402
from jknet.dynamics import KIND_ACS  # noqa: E402
from jknet.rng import stream  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def matrices(draw, max_d=12):
    """Graphs of 2 to ``max_d`` vertices with up to 3d edges."""
    d = draw(st.integers(2, max_d))
    vertex = st.integers(0, d - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * d))
    return InteractionMatrix.from_edges(d, [e for e in edges if e[0] != e[1]])


@PROPERTY
@given(matrices(), st.booleans())
def test_equilibrium_is_a_fixed_point_in_the_simplex(m, analytic):
    eq = equilibrium(m, analytic=analytic)
    x = eq.x_star
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-12
    cx = m.as_float() @ x
    assert np.abs(cx - cx.sum() * x).sum() <= 1e-9
    assert eq.residual <= 1e-9


@PROPERTY
@given(matrices(), st.booleans())
def test_acs_supported_equilibrium_has_an_acs_support(m, analytic):
    eq = equilibrium(m, analytic=analytic)
    if eq.kind == KIND_ACS:
        assert is_acs(m, eq.support)


@PROPERTY
@given(matrices(), st.floats(0.05, 0.5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(X0_MODES))
def test_support_preserved_across_jk_step_while_zeros_exist(m, p, seed,
                                                            x0_mode):
    state = AdaptiveState(0, m, equilibrium(m))
    new_state, record = jk_step(state, p, stream(seed), x0_mode=x0_mode)
    zeros = state.x_star.zero_set
    if zeros.size == 0:
        return
    sup = state.x_star.support
    assert record.chosen in zeros.tolist()
    idx = np.ix_(sup, sup)
    assert (new_state.matrix.entries[idx] == m.entries[idx]).all()
    if state.directed_cycle:
        assert new_state.directed_cycle


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=12), st.integers(1, 3))
def test_csv_text_of_any_float_is_its_repr(values, rows):
    block = np.array(values * rows).reshape(rows, len(values))
    assert _csvtext.csv_block(block) == "".join(
        ",".join(map(repr, row)) + "\n" for row in block.tolist())

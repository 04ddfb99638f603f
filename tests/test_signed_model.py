import numpy as np
import pytest

from jknet.rng import stream
from jknet.signed_model import (
    InconsistencyReport,
    SignedMatrix,
    constrained_field,
    demonstrate_inconsistency,
    integrate_constrained,
    report_to_json_dict,
    sample_signed,
)


def hand_built_witness_matrix():
    """d=2 with a strongly negative pull on component 0 at x = (0, 1)."""
    return SignedMatrix(entries=np.array([[0.0, -0.8], [0.3, 0.0]]))


class TestSignedMatrix:
    def test_validation_of_ranges(self):
        with pytest.raises(ValueError):
            SignedMatrix(entries=np.array([[0.0, 1.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            SignedMatrix(entries=np.array([[0.5, 0.0], [0.0, 0.0]]))


class TestSampleSigned:
    def test_p_zero_empty(self):
        m = sample_signed(5, 0.0, stream(60))
        assert not m.entries.any()

    def test_p_one_all_present_in_range(self):
        m = sample_signed(3, 1.0, stream(61))
        assert (m.entries != 0).all()
        off = ~np.eye(3, dtype=bool)
        assert np.abs(m.entries[off]).max() <= 1.0
        diag = np.diagonal(m.entries)
        assert diag.max() <= 0.0 and diag.min() >= -1.0

    def test_present_offdiagonal_mean_near_zero(self):
        # uniform on [-1, 1]: mean of present off-diagonal entries ~ 0
        vals = []
        for t in range(200):
            m = sample_signed(50, 0.2, stream(62, t))
            off = (m.entries != 0) & ~np.eye(50, dtype=bool)
            vals.extend(m.entries[off].tolist())
        n = len(vals)
        sigma = 1.0 / np.sqrt(3 * n)
        assert abs(np.mean(vals)) < 3 * sigma

    def test_deterministic(self):
        a = sample_signed(6, 0.4, stream(63))
        b = sample_signed(6, 0.4, stream(63))
        assert (a.entries == b.entries).all()


class TestConstrainedField:
    def test_interior_mass_rate_vanishes(self):
        for t in range(100):
            rng = stream(64, t)
            m = sample_signed(10, 0.5, rng)
            x = rng.uniform(0.05, 1.0, 10)
            x /= x.sum()
            assert abs(constrained_field(m, x).sum()) <= 1e-12

    def test_boundary_clamp_leaks_mass(self):
        m = hand_built_witness_matrix()
        x = np.array([0.0, 1.0])
        f = constrained_field(m, x)
        # raw f_0 = -0.8 < 0 is clamped; remaining derivative sums to 0.8
        assert f[0] == 0.0
        assert f.sum() == pytest.approx(0.8, abs=1e-15)

    def test_boundary_rate_matches_direct_sums(self):
        # sum of clamped derivatives equals sum_{j != r}(Cx)_j - sum_k(Cx)_k
        m = hand_built_witness_matrix()
        x = np.array([0.0, 1.0])
        cx = m.entries @ x
        expected = cx[1] - cx.sum()
        assert constrained_field(m, x).sum() == pytest.approx(expected, abs=1e-15)

    def test_zero_matrix_zero_field(self):
        m = SignedMatrix(entries=np.zeros((3, 3)))
        assert not constrained_field(m, np.array([0.2, 0.3, 0.5])).any()


class TestIntegrateConstrained:
    def test_interior_only_run_conserves_mass(self):
        # all interactions mildly positive: concentrations stay interior
        rng = stream(65)
        entries = rng.uniform(0.05, 0.2, (4, 4))
        np.fill_diagonal(entries, 0.0)
        m = SignedMatrix(entries=entries)
        run = integrate_constrained(m, np.full(4, 0.25), t_max=5.0)
        assert run.contact_time is None
        assert np.abs(run.mass - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("h", [0.0, -0.01, float("nan")])
    def test_step_must_be_positive(self, h):
        with pytest.raises(ValueError, match="h must be positive"):
            integrate_constrained(hand_built_witness_matrix(),
                                  np.array([0.3, 0.7]), h=h)

    def test_contact_detected_with_outward_field(self):
        m = hand_built_witness_matrix()
        run = integrate_constrained(m, np.array([0.3, 0.7]), t_max=30.0)
        assert run.contact_time is not None
        assert run.contact_index == 0
        assert abs(run.contact_state[0]) <= 1e-9
        assert run.mass_derivative != 0.0


class TestDemonstrateInconsistency:
    def test_finds_witness_at_moderate_density(self):
        report = demonstrate_inconsistency(10, 0.5, trials=20, seed=66)
        assert report.found
        assert abs(report.mass_derivative) > 1e-3
        assert report.max_drift > 0.01
        # witness mass derivative agrees with the two direct sums:
        # sum_{j != r} f_j = sum_{j != r}(Cx)_j - (sum_{j != r} x_j) sum_k(Cx)_k
        m = report.matrix
        x = report.x_at_contact
        r = int(np.argmin(x))
        cx = m.entries @ x
        expected = (cx.sum() - cx[r]) - (x.sum() - x[r]) * cx.sum()
        assert report.mass_derivative == pytest.approx(expected, abs=1e-12)

    def test_no_witness_report_shape(self):
        report = demonstrate_inconsistency(3, 0.0, trials=2, seed=67)
        assert not report.found
        doc = report_to_json_dict(report)
        assert doc["witness"] is None

    def test_witness_json_schema(self):
        report = demonstrate_inconsistency(10, 0.5, trials=20, seed=68)
        doc = report_to_json_dict(report)
        assert set(doc["witness"]) == {"C", "t_contact", "x_at_contact",
                                       "mass_derivative", "drift_series"}
        assert len(doc["witness"]["C"]) == 10


# (call, its message) for each argument refusal of the module
SIGNED_REFUSALS = [
    (lambda: SignedMatrix(entries=np.zeros((2, 3))), "entries must be a square matrix"),
    (lambda: sample_signed(3, 1.5, stream(1)), "p must lie in [0, 1]"),
    (lambda: sample_signed(3, -0.1, stream(1)), "p must lie in [0, 1]"),
    (lambda: constrained_field(hand_built_witness_matrix(), [0.2, 0.3, 0.5]),
     "dimension mismatch"),
    (lambda: integrate_constrained(hand_built_witness_matrix(), [0.2, 0.3, 0.5]),
     "x0 must have shape (2,), got (3,)"),
    *((lambda x0=x0: integrate_constrained(hand_built_witness_matrix(), x0),
       "x0 must be finite and non-negative")
      for x0 in ([float("nan"), 0.5], [-0.5, 1.5])),
    (lambda: demonstrate_inconsistency(3, 0.5, trials=0, seed=1),
     "trials must be >= 1"),
    *((lambda t_max=t_max: demonstrate_inconsistency(4, 0.5, 2, 1, t_max=t_max),
       f"t_max must be finite and non-negative, got {t_max!r}")
      for t_max in (float("nan"), -5.0, float("inf"))),
]


@pytest.mark.parametrize("call, message", SIGNED_REFUSALS,
                         ids=[m for _, m in SIGNED_REFUSALS])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

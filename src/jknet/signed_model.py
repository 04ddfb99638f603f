"""Signed-interaction variant and its mass-conservation failure.

This model draws real coefficients (off-diagonal in [-1, 1], diagonal in
[-1, 0]) and clamps each component derivative to zero at the boundary
when it points outward: x_i' = f_i unless x_i = 0 and f_i < 0, with
f_i = (Cx)_i - x_i * sum_k (Cx)_k. In the simplex interior the f_i sum to
zero identically, so mass is conserved by the equations themselves; once
a component is clamped the remaining derivatives sum to -f_r != 0 in
general and total mass drifts. The driver here integrates until a
boundary contact with outward-pointing derivative occurs and reports the
witness together with the subsequent mass drift.

Renormalisation is deliberately NOT applied: it would silently repair
exactly the defect being demonstrated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import _check_span, _rk4_step
from .graph import _check_probability
from .rng import stream

__all__ = [
    "SignedMatrix",
    "ConstrainedRun",
    "InconsistencyReport",
    "sample_signed",
    "constrained_field",
    "integrate_constrained",
    "demonstrate_inconsistency",
    "report_to_json_dict",
]

BOUNDARY_ATOL = 1e-12
CONTACT_ATOL = 1e-10
STOP_DRIFT = 10.0
MASS_RATE_MIN = 1e-3
DRIFT_MIN = 0.01


@dataclass(frozen=True, eq=False)
class SignedMatrix:
    """Real d x d coefficients; an absent interaction is an exact zero.

    Off-diagonal entries lie in [-1, 1], diagonal entries in [-1, 0].
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        off = ~np.eye(a.shape[0], dtype=bool)
        if np.abs(a[off]).max(initial=0.0) > 1.0:
            raise ValueError("off-diagonal entries must lie in [-1, 1]")
        diag = np.diagonal(a)
        if diag.max(initial=0.0) > 0.0 or diag.min(initial=0.0) < -1.0:
            raise ValueError("diagonal entries must lie in [-1, 0]")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class ConstrainedRun:
    """Trajectory of the clamped system with contact bookkeeping."""

    times: np.ndarray
    mass: np.ndarray
    contact_time: float | None
    contact_state: np.ndarray | None
    contact_index: int | None
    mass_derivative: float | None


@dataclass(frozen=True, eq=False)
class InconsistencyReport:
    """First witness of boundary mass-loss across a batch of trials."""

    found: bool
    trial: int | None
    matrix: SignedMatrix | None
    t_contact: float | None
    x_at_contact: np.ndarray | None
    mass_derivative: float | None
    drift_series: tuple
    max_drift: float
    trials_run: int
    contacts_seen: int


def sample_signed(d: int, p: float, rng: np.random.Generator) -> SignedMatrix:
    """Each entry present with probability p; values U[-1,1] off-diagonal,
    U[-1,0] on the diagonal.

    Draw order (for reproducibility): presence mask (d*d), off-diagonal
    values (d*d), diagonal values (d).
    """
    _check_probability(p)
    mask = rng.random((d, d)) < p
    vals = rng.uniform(-1.0, 1.0, (d, d))
    np.fill_diagonal(vals, rng.uniform(-1.0, 0.0, d))
    return SignedMatrix(entries=np.where(mask, vals, 0.0))


def constrained_field(M: SignedMatrix, x) -> np.ndarray:
    """f_i = (Cx)_i - x_i sum_k (Cx)_k, zeroed where x_i = 0 and f_i < 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (M.d,):
        raise ValueError("dimension mismatch")
    cx = M.entries @ x
    f = cx - x * cx.sum()
    out = f.copy()
    out[(x <= BOUNDARY_ATOL) & (f < 0)] = 0.0
    return out


def integrate_constrained(M: SignedMatrix, x0, h: float = 0.01,
                          t_max: float = 50.0) -> ConstrainedRun:
    """Integrate the clamped system without renormalisation.

    The first time a component crosses zero the step is bisected until
    the component sits within ``CONTACT_ATOL`` of the boundary, then
    clamped; if the field there points outward the contact is recorded
    (time, state, total mass derivative) and integration continues so the
    mass drift can be observed. Once |mass - 1| exceeds ``STOP_DRIFT``
    the run ends: the trajectory has left the constraint set for good and
    the quadratic field would blow up numerically soon after.
    """
    _check_span(t_max, h, "t_max")  # every step is then positive, and the loop ends
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (M.d,):
        raise ValueError(f"x0 must have shape ({M.d},), got {x.shape}")
    if not (np.isfinite(x) & (x >= 0.0)).all():
        raise ValueError("x0 must be finite and non-negative")
    field = partial(constrained_field, M)
    t = 0.0
    times = [0.0]
    mass = [float(x.sum())]
    contact_time = None
    contact_state = None
    contact_index = None
    mass_derivative = None

    while t < t_max - 1e-12:
        step = min(h, t_max - t)
        x_new = _rk4_step(field, x, step)
        if contact_time is None and x_new.min() < -CONTACT_ATOL:
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                probe = _rk4_step(field, x, mid)
                if probe.min() < -CONTACT_ATOL:
                    hi = mid
                elif probe.min() > CONTACT_ATOL:
                    lo = mid
                else:
                    break
            step = 0.5 * (lo + hi)
            x_new = np.clip(_rk4_step(field, x, step), 0.0, None)
            idx = int(np.argmin(x_new))
            cx = M.entries @ x_new
            if cx[idx] - x_new[idx] * cx.sum() < 0:
                contact_time = t + step
                contact_state = x_new.copy()
                contact_index = idx
                mass_derivative = float(constrained_field(M, x_new).sum())
        x = np.clip(x_new, 0.0, None) if contact_time is not None else x_new
        t += step
        times.append(t)
        mass.append(float(x.sum()))
        if abs(mass[-1] - 1.0) >= STOP_DRIFT:
            break

    return ConstrainedRun(times=np.array(times), mass=np.array(mass),
                          contact_time=contact_time, contact_state=contact_state,
                          contact_index=contact_index, mass_derivative=mass_derivative)


def demonstrate_inconsistency(d: int, p: float, trials: int, seed: int,
                              t_max: float = 50.0,
                              h: float = 0.01) -> InconsistencyReport:
    """Search seeded trials for a boundary witness of mass non-conservation.

    A witness is a trajectory reaching some x_r = 0 with f_r < 0 and
    |sum_i x_i'| > ``MASS_RATE_MIN`` there, whose total mass subsequently
    drifts from 1 by more than ``DRIFT_MIN``. Returns the first such
    witness; ``found`` is False only if every trial stayed interior or no
    contact produced the required drift.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    contacts = 0
    for trial in range(trials):
        rng = stream(seed, trial)
        M = sample_signed(d, p, rng)
        x0 = rng.uniform(0.2, 1.0, d)
        x0 /= x0.sum()
        run = integrate_constrained(M, x0, h=h, t_max=t_max)
        if run.contact_time is None:
            continue
        contacts += 1
        if abs(run.mass_derivative) <= MASS_RATE_MIN:
            continue
        after = run.times >= run.contact_time - 1e-12
        drift = np.abs(run.mass - 1.0)
        series = tuple((float(t), float(dr))
                       for t, dr in zip(run.times[after], drift[after]))
        max_drift = float(drift[after].max())
        if max_drift > DRIFT_MIN:
            return InconsistencyReport(
                found=True, trial=trial, matrix=M,
                t_contact=float(run.contact_time),
                x_at_contact=run.contact_state,
                mass_derivative=float(run.mass_derivative),
                drift_series=series, max_drift=max_drift,
                trials_run=trial + 1, contacts_seen=contacts)
    return InconsistencyReport(found=False, trial=None, matrix=None,
                               t_contact=None, x_at_contact=None,
                               mass_derivative=None, drift_series=(),
                               max_drift=0.0, trials_run=trials, contacts_seen=contacts)


def report_to_json_dict(report: InconsistencyReport) -> dict:
    if not report.found:
        return {"witness": None, "trials_run": report.trials_run,
                "contacts_seen": report.contacts_seen}
    return {
        "witness": {
            "C": [[float(v) for v in row] for row in report.matrix.entries],
            "t_contact": report.t_contact,
            "x_at_contact": [float(v) for v in report.x_at_contact],
            "mass_derivative": report.mass_derivative,
            "drift_series": [[t, dr] for t, dr in report.drift_series],
        },
        "trial": report.trial,
        "max_drift": report.max_drift,
        "trials_run": report.trials_run,
        "contacts_seen": report.contacts_seen,
    }

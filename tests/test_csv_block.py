"""The block CSV formatter, ``jknet._csvtext``, against the ``repr``
oracle, and the premises of its error bound: the power table, the
bound's use of the long double's eps, and the splicing of ``repr`` text
into a block."""
from fractions import Fraction

import numpy as np
import pytest

from jknet import _csvtext, dynamics
from jknet.dynamics import Trajectory, trajectory_to_csv
from jknet.rng import stream

from oracles import joined_trajectory_csv

# a value that sends its text to repr, one of each kind
FALLBACKS = [0.0, -0.0, -0.3, 12.5, 2.0, 0.25, 5e-324, 2.5e-310, np.inf, -np.inf,
             np.nan, 1e-290, 3e290, 1e16]


def _near(centres: np.ndarray, steps: int = 3) -> np.ndarray:
    """``centres`` and their ``steps`` nearest doubles on either side."""
    out = [centres]
    for direction in (np.inf, -np.inf):
        y = centres
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def _digits_corpus(rng, n: int, digits: int) -> np.ndarray:
    """Values written with ``digits`` significant digits, from 1e-40 to 1e20."""
    mantissa = rng.integers(10 ** (digits - 1), 10 ** digits, n)
    return np.array([float(f"{m}e{e}") for m, e in
                     zip(mantissa.tolist(), rng.integers(-40 - digits, 20, n).tolist())])


def _corpus() -> np.ndarray:
    """1.2 M seeded values: random draws of each kind the writers meet or
    may meet, then every value at a threshold of the formatter."""
    rng = stream(31)
    n = 100_000
    parts = [
        rng.random(n),
        10.0 ** rng.uniform(-40, 20, n),
        10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(-2**62, 2**62, n).astype(float),
        rng.integers(0, 10**6, n).astype(float),
        np.cumsum(np.full(n, 0.01)),  # a t grid
        np.ldexp(rng.integers(1, 2**24, n).astype(float), rng.integers(-70, 40, n)),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(float),  # any bit pattern
        *(_digits_corpus(rng, n // 2, digits) for digits in (14, 15, 16, 17)),
        _near(np.array([float(f"1e{k}") for k in range(-300, 301)])),
        _near(np.ldexp(1.0, np.arange(-1074, 1024))),
        _near(np.array([1e-4, 9.9999e-05, 1e-5, 1e16, 9999999999999998.0, 1e15,
                        10.0, 1e-280, 1e280])),
        np.array(FALLBACKS),
    ]
    values = np.concatenate(parts)
    return np.concatenate([values, -values[:50_000]])


def _block_of(values: np.ndarray, cols: int) -> np.ndarray:
    rows = -(-values.size // cols)
    return np.resize(values, rows * cols).reshape(rows, cols)


def _assert_same_text(got: str, want: str) -> None:
    if got != want:
        for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
            if g != w:
                pairs = [(a, b) for a, b in zip(g.split(","), w.split(",")) if a != b]
                pytest.fail(f"line {i} differs, (got, repr) pairs {pairs[:5]}")
        pytest.fail(f"the texts differ in length: {len(got)} != {len(want)}")


def _csv(block: np.ndarray) -> tuple[str, str]:
    """``trajectory_to_csv`` of the block read as (t, states, residual)
    columns, and the oracle's text for it."""
    times, states, residuals = block[:, 0], block[:, 1:-1], block[:, -1]
    return (trajectory_to_csv(Trajectory(times, states, residuals, 0.0, 0.0)),
            joined_trajectory_csv(times, states, residuals))


def test_the_corpus_matches_repr_byte_for_byte():
    values = _corpus()
    assert values.size >= 1_000_000
    # the corpus holds values whose repr needs 15, 16 and 17 digits
    lengths = {len(repr(v).split("e")[0].replace("-", "").replace(".", "").strip("0"))
               for v in values[::7].tolist()}
    assert {15, 16, 17} <= lengths
    _assert_same_text(*_csv(_block_of(values, 101)))


def test_few_trajectory_values_fall_back_to_repr():
    # the bound leaves the vector path almost every value in a trajectory's range
    values = 10.0 ** stream(32).uniform(-40, 0, 100_000)
    assert _csvtext.shortest_digits(values)[2].mean() < 0.02


def test_power_tables_are_correctly_rounded():
    pow_hi, pow_lo = _csvtext.tables()[:2]
    bits = np.finfo(np.longdouble).nmant + 1

    def significand(p) -> int:
        mantissa, _ = np.frexp(p)
        return int(Fraction(*np.ldexp(mantissa, bits).as_integer_ratio()))

    for k, p, lo in zip(range(-300, 301), pow_hi, pow_lo):
        exact = Fraction(10) ** k
        err = abs(Fraction(*p.as_integer_ratio()) - exact)
        for side in (np.longdouble(np.inf), np.longdouble(-np.inf)):
            other = abs(Fraction(*np.nextafter(p, side).as_integer_ratio()) - exact)
            assert err < other or (err == other and significand(p) % 2 == 0), k
        assert lo == float(exact - Fraction(*p.as_integer_ratio())), k


def test_a_double_eps_sends_every_value_to_repr(monkeypatch):
    monkeypatch.setattr(_csvtext, "LD_EPS", float(np.finfo(float).eps))
    values = np.concatenate([10.0 ** stream(33).uniform(-40, 20, 20_000),
                             _near(np.array([1e-4, 1e16, 0.1, 0.3]))])
    assert _csvtext.shortest_digits(values)[2].all()
    _assert_same_text(*_csv(_block_of(values, 40)))


@pytest.mark.parametrize("cols", [3, 7, 202])
def test_fallbacks_at_the_edges_of_rows_and_blocks(cols):
    step = dynamics._CSV_BLOCK // cols  # the rows of one formatted block
    block = 10.0 ** stream(34).uniform(-30, -1, (3 * step + 5, cols))
    block[:, 0] = np.resize(FALLBACKS, len(block))
    block[:, -1] = np.resize(FALLBACKS[::-1], len(block))
    block[step - 1] = block[step] = np.resize(FALLBACKS, cols)  # across a block edge
    block[1::3, 0] = block[2::3, -1] = 0.3  # and rows with a fallback at one end
    _assert_same_text(*_csv(block))
    _assert_same_text(_csvtext.csv_block(block[:step]), _csv(block[:step])[1]
                      .split("\n", 1)[1])


def test_an_all_fallback_block():
    block = _block_of(np.array(FALLBACKS * 20), 5)
    _, e, unsure = _csvtext.shortest_digits(block.ravel())
    assert (unsure | ((e >= 1) & (e <= 15))).all()
    _assert_same_text(*_csv(block))

"""CSV text of float blocks, byte for byte the text of ``repr``.

``csv_block`` turns a ``(rows, cols)`` block of floats into CSV rows
whose bytes are ``",".join(map(repr, row))``. ``shortest_digits`` finds
``repr``'s digits with vectorised long double arithmetic and an error
bound that sends every value it cannot decide to ``repr`` itself.
"""
from functools import cache

import numpy as np

LD_EPS = float(np.finfo(np.longdouble).eps)
POW_SPAN = 300  # the power tables hold 10**k for |k| <= POW_SPAN
# the bit patterns of 1e-280 and 1e280, the span of values formatted without repr
LOW_BITS, HIGH_BITS = np.array([1e-280, 1e280]).view(np.uint64)


@cache
def tables() -> tuple:
    """``shortest_digits``' and ``csv_block``'s tables, built on first use.

    ``pow_hi[k + 300]`` is the long double nearest 10**k, parsed from
    ``"1ek"``, and ``pow_lo[k + 300]`` the double nearest 10**k - pow_hi.
    The rest hold text, zero bytes blank. ``chunk[c]`` is the 4-digit text
    of c, ``chunk[c + 10000]`` the same with its trailing zeros blanked.
    ``head[(2 (e + 300) + one) 10 + d]`` is a value's text up to its first
    digit d and the point after it, right-aligned in 8 bytes, for decimal
    exponent e (``one``: d is its only significant digit).
    ``suffix[601 last + e + 300]`` is the exponent text and the separator,
    a newline when ``last`` and else a comma, left-aligned in 8 bytes.
    """
    def packed(texts: list, width: int) -> np.ndarray:
        return np.frombuffer(np.array(texts, dtype=f"S{width}").tobytes(),
                             f"u{width}")

    def remainder(k: int, p: np.longdouble) -> float:  # int / int rounds correctly
        n, d = p.as_integer_ratio()
        return (10**k * d - n) / d if k >= 0 else (d - n * 10**-k) / (d * 10**-k)

    def lead(e: int, one: bool, d: str) -> bytes:
        text = ("0." + "0" * (-e - 1) + d if -4 <= e < 0
                else d + (".0" if e == 0 and one else "" if one else "."))
        return text.encode().rjust(8, b"\0")

    exps = range(-POW_SPAN, POW_SPAN + 1)
    pow_hi = np.array([np.longdouble(f"1e{k}") for k in exps])
    pow_lo = np.array([remainder(k, p) for k, p in zip(exps, pow_hi)])
    c = np.arange(10000, dtype=np.uint16)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    digits = digits.astype(np.uint8) + 48
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    chunk = np.concatenate([digits, np.where(trailing, 0, digits)]).view(np.uint32)
    # the heads of exponent notation (e = -5 stands for it), e = -4, ..., 0
    heads = packed([lead(e, one, d) for e in range(-5, 1) for one in (False, True)
                    for d in "0123456789"], 8).reshape(6, 20)
    head = heads[[max(e + 5, 0) if e <= 0 else 0 for e in exps]]
    suffix = packed([(("" if -4 <= e <= 15 else f"e{e:+03d}") + sep).encode()
                     for sep in ",\n" for e in exps], 8)
    return pow_hi, pow_lo, chunk.ravel(), head.ravel(), suffix


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of each float in ``x``, found without ``repr``.

    Returns ``(r, e, unsure)``: r in [10**16, 10**17) holds the digits
    and trailing zeros, e is the decimal exponent of the first, and
    ``unsure`` marks the values whose digits are not known here and must
    come from ``repr``.

    Take x a positive normal double in [1e-280, 1e280] that is not a power
    of two, so its round-trip interval is symmetric: half an ulp of x, H,
    on each side. Let e = floor(log10 x) and S = x 10**(16-e), so
    10**16 <= S < 10**17, and measure in units of S's last digit. The
    nearest N-digit decimal to x, for N = 15, 16, 17, is S rounded to a
    multiple of 10**(17-N); it round-trips when it lies within H of S.
    ``repr`` prints the shortest decimal that round-trips, and among those
    the nearest. Here H < 11.1, so at most one multiple of 100 lies within
    H of S: if the nearest does, its digits are ``repr``'s, trailing zeros
    dropped. Else ``repr`` takes the nearest multiple of 10 if it
    round-trips, else the nearest integer, which always does (H > 0.55).

    S is computed as q + f: q is the integer part of the long double
    product of x and the table's 10**(16-e), and f its fraction plus x
    times the power's remainder. Only the product's rounding is left, so
    |S - (q + f)| < eps/2 10**17 for the long double's eps, plus 1e-9 for
    the float64 steps after it. A value whose rounding, or whose
    round-trip test, falls within that bound of its threshold is unsure,
    and so is every value outside the premises above (zeros, negatives,
    subnormals, inf, nan, powers of two, magnitudes past 1e+-280). Where
    the long double is only a double, the bound exceeds every threshold
    and every value is unsure.
    """
    pow_hi, pow_lo = tables()[:2]
    bits = x.view(np.uint64)  # ordered as the values are, past the negatives
    sig = bits & np.uint64(2**52 - 1)  # the stored significand
    ok = (bits >= LOW_BITS) & (bits <= HIGH_BITS) & (sig != 0)
    xs = np.where(ok, x, 1.5)
    e = np.floor(np.log10(xs)).astype(np.intp)
    k = (16 + POW_SPAN) - e
    s = xs.astype(np.longdouble)
    s *= pow_hi.take(k)
    q = s.astype(np.int64)
    s -= q
    f = s.astype(float)
    f += xs * pow_lo.take(k)
    half_ulp = q * 0.5 / (sig | np.uint64(2**52))
    del sig, xs, k, s  # a block's memory is the peak of its live arrays
    bound = LD_EPS / 2 * 1e17 + 1e-9
    q16 = q // 10
    f16 = ((q - 10 * q16) + f) * 0.1  # S / 10 = q16 + f16
    q15 = q16 // 10
    f15 = ((q16 - 10 * q15) + f16) * 0.1  # S / 100 = q15 + f15
    up15, up16, up17 = f15 > 0.5, f16 > 0.5, f > 0.5
    dist15, dist16 = np.abs(f15 - up15), np.abs(f16 - up16)
    in15 = dist15 < 0.01 * half_ulp
    in16 = dist16 < 0.1 * half_ulp
    unsure = np.abs(dist15 - 0.01 * half_ulp) <= 0.01 * bound
    unsure |= ~in15 & ((np.abs(dist16 - 0.1 * half_ulp) <= 0.1 * bound)
                       | (dist16 >= 0.5 - 0.1 * bound))
    unsure |= ~(in15 | in16) & (np.abs(f - up17) >= 0.5 - bound)
    r = np.where(in15, (q15 + up15) * 100,
                 np.where(in16, (q16 + up16) * 10, q + up17))
    top = r == 10**17  # rounded up to 10**(e + 1)
    r[top] = 10**16
    e += top
    return r, e, ~ok | unsure | (q <= 10**16) | (q >= 10**17 - 1)


def csv_block(block: np.ndarray) -> str:
    """CSV text of a ``(rows, cols)`` float block: for each row the bytes
    of ``",".join(map(repr, row)) + "\\n"``, made a block at a time.

    Each value's text is laid out in 32 bytes, blank bytes zero: 8 for
    its text up to the first digit and the point after it, 16 for digits
    2-17 with the trailing zeros blank, 8 for the exponent text and the
    separator. Dropping the blank bytes leaves the CSV. The values
    ``shortest_digits`` is unsure of take ``repr``'s text in the first 24
    bytes, and so do the values from 10 to 1e16, which print positionally
    with digits on both sides of the point.
    """
    _, _, chunk, head, suffix = tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    r, e, unsure = shortest_digits(x)
    fallback = np.flatnonzero(unsure | ((e >= 1) & (e <= 15)))
    e[fallback] = -1  # no exponent text: the repr and the separator alone
    e += POW_SPAN
    d0 = r // 10**16
    r -= d0 * 10**16  # digits 2-17
    words = np.empty((x.size, 4), np.uint64)
    quarters = words.view(np.uint32)
    zeros_after = np.ones(x.size, bool)  # no nonzero digit follows the chunk
    for j in (3, 2, 1, 0):  # digits 14-17, 10-13, 6-9 and 2-5
        q = r // 10**4
        r -= q * 10**4
        # a chunk that only zeros follow blanks its own trailing zeros
        quarters[:, 2 + j] = chunk.take(r + 10000 * zeros_after)
        zeros_after &= r == 0
        r = q
    words[:, 0] = head.take((2 * e + zeros_after) * 10 + d0)
    words[:, 3] = suffix.take(e)
    words.reshape(rows, cols, 4)[:, -1, 3] = suffix.take(
        e.reshape(rows, cols)[:, -1] + (2 * POW_SPAN + 1))
    if fallback.size:
        text = "".join([repr(v).ljust(24, "\0") for v in x[fallback].tolist()])
        words[fallback, :3] = np.frombuffer(text.encode(), np.uint64).reshape(-1, 3)
    text = words.view(np.uint8)
    return text[text != 0].tobytes().decode()

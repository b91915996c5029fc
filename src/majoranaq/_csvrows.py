"""Exact text of trajectory rows: ``%.10g`` for the time, ``%.16e`` for each value.

Only the ``flow`` command imports this module.  A block of rows is laid out
at once as an array of 4-byte words and written with one ``tobytes``; its
bytes equal Python's ``%`` formatting of every field, and no digit is taken
from a float estimate.

A value |v| = a in [1e-15, 1e17) is formatted exactly with 64-bit integer
arithmetic, as in fixed-precision printing (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019).  With an estimate E of
floor(log10 a), a times 10^(16 - E) is held exactly as the 128-bit product
P = m * F of two uint64 words: m = a * 2^s is a's 53-bit significand shifted
left by at most 5 bits, and F = 5^(16 - E) * 2^t, with s + t - (16 - E) = 71
for every E of the exact range, so a * 10^(16 - E) = P / 2^71.  Its integer
part N lies in [10^16, 10^17) exactly when E is right; N is then rounded
half-to-even from the remainder P mod 2^71, and a round-up to 10^17 becomes
10^16 at exponent E + 1.  Values outside the range (the flow's ~1e-16
margins among them, and zeros), and the rare values whose estimate is one
off, are formatted by ``%`` one at a time, as is the time column.
"""

from __future__ import annotations

import numpy as np

# decimal exponents of the values formatted exactly: below 1e-15 the
# product a * 10^(16 - E) needs more than 128 bits
_E_LO, _E_HI = -15, 16
_LOW, _HIGH = 1e-15, 1e17

# words per field slot: a field of ",%.16e" is at most 25 bytes
# (",-d.dddddddddddddddde-ddd"), and %.10g at most 17; unused bytes stay
# NUL and are dropped when the block is written
_SLOT = 7


def _significand_tables():
    """Per exponent E of the exact range: the float 2^s, and F as a high
    word and two 32-bit halves of its low word."""
    scale, f_top, f_hi, f_lo = [], [], [], []
    for E in range(_E_LO, _E_HI + 1):
        # the binary exponent e of 10^E: 2^(e-1) <= 10^E < 2^e
        e = (10 ** E).bit_length() if E >= 0 else 1 - (10 ** -E - 1).bit_length()
        s = 53 - e  # a >= 10^E has exponent >= e, so a * 2^s is an integer
        F = 5 ** (16 - E) << (71 - s + 16 - E)
        scale.append(2.0 ** s)
        f_top.append(F >> 64)
        f_hi.append(F >> 32 & 0xFFFFFFFF)
        f_lo.append(F & 0xFFFFFFFF)
    return (np.array(scale), np.array(f_top, np.uint64),
            np.array(f_hi, np.uint64), np.array(f_lo, np.uint64))


_SCALE, _F_TOP, _F_HI, _F_LO = _significand_tables()


def _words(text: bytes) -> np.ndarray:
    """Consecutive 4-byte groups of ``text`` as native words."""
    return np.frombuffer(text, np.uint32)


# the word of every 4-digit group 0000..9999, from the two-digit pairs
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
# ",", the sign (NUL or "-"), the leading digit, "."; index digit + 10 * negative
_HEADS = _words(b"".join(b",%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)))
# "e", the exponent's sign and two digits, for E_LO..E_HI + 1 (after a round-up)
_EXPONENTS = _words(b"".join(b"e%+03d" % E for E in range(_E_LO, _E_HI + 2)))

_M32 = np.uint64(0xFFFFFFFF)
# 2^70 - 1 = 63 * 2^64 + (2^64 - 1): the high word of the rounding increment;
# its low word carries into hi exactly when the carry below is set
_HALF = np.uint64(63)
_N_LO, _N_HI = np.uint64(10 ** 16 << 7), np.uint64(10 ** 17 << 7)


def _decimal(values: np.ndarray):
    """17 significant digits of each |v|: ``(N, E, exact)``.

    Where ``exact``, |v| rounds half-to-even to N * 10^(E - 16) with
    10^16 <= N < 10^17.  ``exact`` is false outside [1e-15, 1e17) and where
    the estimate floor(log10 |v|) was off.
    """
    a = np.abs(values)
    inside = (a >= _LOW) & (a < _HIGH)  # NaN and infinities fall outside
    a = np.where(inside, a, 1.0)
    N, E, exact = _digits(a, np.floor(np.log10(a)).astype(np.intp))
    return N, E, inside & exact


def _digits(a: np.ndarray, estimate: np.ndarray):
    """:func:`_decimal` of a > 0, given an estimate within one of floor(log10 a).

    The estimate is clipped to the exact range; ``exact`` is false where it
    was off.
    """
    i = np.clip(estimate - _E_LO, 0, _E_HI - _E_LO)
    m = (a * _SCALE.take(i)).astype(np.uint64)  # < 2^59
    f_hi, f_lo = _F_HI.take(i), _F_LO.take(i)
    m_hi, m_lo = m >> np.uint64(32), m & _M32
    p00, p01, p10 = m_lo * f_lo, m_lo * f_hi, m_hi * f_lo
    mid = (p00 >> np.uint64(32)) + (p01 & _M32) + (p10 & _M32)
    # the high word of P = hi * 2^64 + lo; P < 10^17 * 2^71 < 2^128
    hi = (m_hi * f_hi + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
          + (mid >> np.uint64(32)) + m * _F_TOP.take(i))
    exact = (hi >= _N_LO) & (hi < _N_HI)
    # floor((P + 2^70 - 1 + odd) / 2^71) rounds half-to-even: the low word
    # carries into hi unless it is 0 and N is even
    carry = (((mid | p00) << np.uint64(32)) != 0) | (hi & np.uint64(1 << 7) != 0)
    N = (hi + _HALF + carry) >> np.uint64(7)
    up = N == np.uint64(10 ** 17)
    N[up] = 10 ** 16
    return N, i + up + _E_LO, exact


def format_rows(times: np.ndarray, values: np.ndarray) -> bytes:
    """The CSV text of rows ``times[r], values[r, 0], ...``, each ending in ``\\n``.

    Equal, byte for byte, to ``"%.10g" % times[r]`` and ``"%.16e" % v`` for
    every v, joined by commas.
    """
    rows, cols = values.shape
    out = np.zeros((rows, cols + 1, _SLOT), np.uint32)
    fields = out[:, 1:]
    N, E, exact = _decimal(values)
    N = N.astype(np.intp)  # < 2^57 even where the estimate was off
    lead = N // 10 ** 16
    # where the estimate was off, lead may exceed 9; those fields are overwritten
    fields[..., 0] = _HEADS.take(lead + 10 * np.signbit(values), mode="clip")
    rest = N - lead * 10 ** 16
    high8 = rest // 10 ** 8
    for word, half in ((1, high8), (3, rest - high8 * 10 ** 8)):
        top = half // 10 ** 4
        fields[..., word] = _QUADS.take(top)
        fields[..., word + 1] = _QUADS.take(half - top * 10 ** 4)
    fields[..., 5] = _EXPONENTS.take(E - _E_LO)
    rest_r, rest_c = np.nonzero(~exact)
    text = [b",%.16e" % v for v in values[rest_r, rest_c].tolist()]
    fields[rest_r, rest_c] = np.array(text, f"S{4 * _SLOT}").view(np.uint32).reshape(-1, _SLOT)
    out[:, 0] = np.array([b"%.10g" % t for t in times.tolist()],
                         f"S{4 * _SLOT}").view(np.uint32).reshape(rows, _SLOT)
    text_bytes = out.view(np.uint8)
    text_bytes[:, -1, -1] = ord("\n")
    return text_bytes[text_bytes != 0].tobytes()

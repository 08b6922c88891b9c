"""The CSV cells of a table of floats, each as "%.15g" % x prints it,
formatted a whole table at a time.

"%.15g" % x is slow per cell: above 14 digits CPython's dtoa skips its
floating-point quick path and works in bignums.  Here each |x| is scaled
by 10**(14 - e), e = floor(log10 |x|) corrected by at most one pass, in
double-double arithmetic against an exact (hi, lo) pair for the power of
ten, and rounded to its 15 significant digits.  Lookup tables write %g's
fixed or exponent form of those digits, trailing zeros stripped, into
fixed-width cells of a byte matrix, and bytes.translate drops the blank
bytes.

Cells this route cannot settle exactly go through "%.15g" % x itself:
zeros, non-finite values, |x| outside [1e-280, 1e280), and every cell
whose rounding fraction lies within 1e-6 of one half (the double-double
error is below 1e-15), which includes the exact ties that "%.15g"
rounds half to even.
"""

from __future__ import annotations

import functools

import numpy as np

# One cell of the byte matrix that format_table fills, _CELL bytes wide:
# the sign and the "0.000" lead of a fixed-form value below 1 at bytes 0-5,
# five 4-byte words of three digits each, with the point inside the word
# that holds the digit before it, at bytes 6-25, the exponent at bytes
# 26-30 and the delimiter at byte 31.  The lead and the exponent are
# written as 8-byte words at bytes 0 and 24; the digit words, written after
# them, overwrite their two blank ends.
_CELL = 32
_CHUNK = 4096  # cells per pass, so that the temporaries stay in cache
_FAST_RANGE = (1e-280, 1e280)  # where 10**k, its halves and the products stay normal
_TIE = 1e-6  # the double-double rounding fraction is good to 1e-15
_K0 = 300  # the tables cover decimal exponents -_K0.._K0
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_GROUP_DIV = 10.0 ** np.arange(12, -1, -3)[:, None]
# hi, hi's two Veltkamp halves and lo of 10**k = hi + lo, column k + _K0,
# each column computed from exact integers on first use
_POW10 = np.zeros((4, 2 * _K0 + 1))
_POW10_BUILT = np.zeros(2 * _K0 + 1, dtype=bool)


def _halves(x):
    """Veltkamp split: x = hi + lo, each with at most 26 significant bits."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


def _pow10(k):
    """Rows hi, hi's halves and lo of 10**k for the integer array k."""
    first, last = int(k.min()) + _K0, int(k.max()) + _K0
    if not _POW10_BUILT[first:last + 1].all():
        for j in range(first, last + 1):
            e = j - _K0
            if e >= 0:
                hi = float(10**e)
                lo = float(10**e - int(hi))
            else:
                hi = 1 / 10**-e  # int / int rounds correctly
                num, den = hi.as_integer_ratio()
                lo = (den - num * 10**-e) / (den * 10**-e)
            _POW10[:, j] = (hi, *_halves(hi), lo)
        _POW10_BUILT[first:last + 1] = True
    return [row.take(k + _K0) for row in _POW10]


def _scaled(a, k):
    """a * 10**k as the unevaluated sum p + err, good to about 1e-31 of it
    (Dekker's exact product of a and hi, plus a * lo)."""
    hi, hi1, hi2, lo = _pow10(k)
    a1, a2 = _halves(a)
    p = a * hi
    err = a1 * hi1
    err -= p
    err += a1 * hi2
    err += a2 * hi1
    err += a2 * hi2
    err += a * lo
    return p, err


def _as_words(strings):
    return np.array(strings, dtype="S8").view(np.uint64)


@functools.cache
def _format_tables():
    """The lookup tables of _format_chunk, built on first use.

    digits[1000 (4 keep + p) + g]: the 4-byte word of the three digits of g.
    Its first keep digits show and the rest up to its last nonzero one;
    keep 4 shows all three, for a later group that is nonzero.  p > 0 puts
    the point after digit p - 1, shown only when a digit follows it.
    offsets[j, 5 c + z]: the 1000 (4 keep + p) of group j, when the point
    follows digit c (15: the point is in the lead) and the last z groups
    are zero.  point[e + _K0]: 5 c for decimal exponent e.  lead and
    exponent: the words for e, at e + _K0, and at e + 3 _K0 + 1 for x < 0.
    """
    g = np.arange(1000)
    chars = np.stack([g // 100, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    trailing = np.logical_and.accumulate(chars[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    keep = np.arange(5)[:, None, None]
    shown = np.where(trailing & (np.arange(3) >= keep), 0, chars)  # [keep, g, digit]
    words = np.zeros((5, 4, 1000, 4), dtype=np.uint8)
    words[:, 0, :, :3] = shown
    for o in range(3):
        after = (shown[:, :, o + 1:] != 0).any(axis=2) | (keep[:, :, 0] == 4)
        words[:, o + 1, :, :o + 1] = shown[:, :, :o + 1]
        words[:, o + 1, :, o + 1] = np.where(after, ord("."), 0)
        words[:, o + 1, :, o + 2:] = shown[:, :, o + 1:]
    c, z, j = np.arange(16)[:, None, None], np.arange(5)[:, None], np.arange(5)
    last = np.where(c == 15, 0, c)  # the last digit that %g keeps even when it is 0
    group_keep = np.where(j >= 4 - z, np.clip(last + 1 - 3 * j, 0, 3), 4)
    p = np.where((c < 15) & (c - 3 * j >= 0) & (c - 3 * j < 3), c - 3 * j + 1, 0)
    offsets = np.ascontiguousarray((1000 * (4 * group_keep + p)).reshape(80, 5).T)
    exponents = range(-_K0, _K0 + 1)
    fixed = [-4 <= e < 15 for e in exponents]
    lead = _as_words([
        sign + (b"0." + b"0" * (-e - 1) if e < 0 and f else b"")
        for sign in (b"", b"-") for e, f in zip(exponents, fixed)
    ])
    exponent = np.tile(_as_words([
        b"" if f else b"\0\0" + ("e%+03d" % e).encode() for e, f in zip(exponents, fixed)
    ]), 2)
    point = 5 * np.array([
        (15 if e < 0 else e) if f else 0 for e, f in zip(exponents, fixed)
    ], dtype=np.intp)
    tables = (words.reshape(-1, 4).view(np.uint32).ravel(), offsets, lead, exponent, point)
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _format_chunk(x, lead_words, digit_words, exponent_words):
    """Write the cells of the float array x through the three word views;
    return the indices of the cells left to "%.15g" % x."""
    digits, offsets, lead, exponent, point = _format_tables()
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a[~fast] = 1.0
    # y + t = |x| 10**(14 - e) in [1e14, 1e15): floor(log10) is off by at most one
    e = np.floor(np.log10(a)).astype(np.intp)
    y, t = _scaled(a, 14 - e)
    off = np.flatnonzero((y < 1e14) | (y >= 1e15))
    if off.size:
        e[off] += np.where(y[off] >= 1e15, 1, -1)
        y[off], t[off] = _scaled(a[off], 14 - e[off])
        fast[off] &= (y[off] >= 1e14) & (y[off] < 1e15)
    # n: the 15 significant digits, rounded to nearest
    n = np.floor(y)
    frac = y - n
    frac += t
    fast &= np.abs(frac - 0.5) >= _TIE
    n += frac > 0.5
    carry = n == 1e15
    n[carry] = 1e14
    e += carry
    e += _K0
    # the five 3-digit groups of n, and how many of the last groups are zero;
    # every quotient and product here is an exact integer below 2**53
    q = (n / _GROUP_DIV).astype(np.int64)
    zero_after = (q * _GROUP_DIV == n).view(np.uint8)
    code = point.take(e)
    for row in zero_after[:4]:
        code += row
    q[1:] -= 1000 * q[:-1]
    q += np.take(offsets, code, axis=1)
    e[np.signbit(x)] += 2 * _K0 + 1
    lead_words[:] = lead.take(e)
    exponent_words[:] = exponent.take(e)
    for j, words in enumerate(digits.take(q)):
        digit_words[:, j] = words
    return np.flatnonzero(~fast)


def format_table(columns) -> bytes:
    """The CSV rows of the columns, each cell as "%.15g" % cell prints it."""
    x = np.stack([np.asarray(col, dtype=float) for col in columns], axis=1)
    rows, ncols = x.shape
    x = x.ravel()
    if not x.size:
        return b""
    cells = np.empty((x.size, _CELL), dtype=np.uint8)
    lead = np.ndarray((x.size,), np.uint64, cells, 0, (_CELL,))
    digits = np.ndarray((x.size, 5), np.uint32, cells, 6, (_CELL, 4))
    exponent = np.ndarray((x.size,), np.uint64, cells, 24, (_CELL,))
    slow = []
    for s in range(0, x.size, _CHUNK):
        part = slice(s, s + _CHUNK)
        slow.append(s + _format_chunk(x[part], lead[part], digits[part], exponent[part]))
    slow = np.concatenate(slow)
    if slow.size:
        text = ["%.15g" % v for v in x[slow].tolist()]
        cells[slow] = np.array(text, dtype="S%d" % _CELL).view(np.uint8).reshape(-1, _CELL)
    delimiters = cells.reshape(rows, ncols, _CELL)[:, :, -1]
    delimiters[:] = ord(",")
    delimiters[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")

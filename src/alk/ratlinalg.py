"""Linear algebra over Q.

`mat_mul` and `transpose` work on any entries that support + and *.
`rational` is the one place that decides what a rational number is: int
and Fraction as they are, any other `numbers.Rational` through Fraction,
and `NotRational`, both a TypeError and a ValueError, for anything else
(float, str, complex, a field element); `real` also reads a finite float,
as its exact binary value.  `integer_matrix` clears a matrix, read entry by
entry as `rational` reads it, to integers over one least denominator.
Elimination is exact and fraction-free, so every intermediate is an
integer minor: `bareiss` gives determinants and leading minors and
`adjugate` inverses, `mat_det` and `mat_inv` give Fraction results through
them, and `in_gl_zp` decides membership in GL_n(Z_p) from the cleared
matrix.  Matrices are lists of lists; only `bareiss` mutates its argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply {n}x{len(a[0])} by {k}x{m}")
    return [
        [sum((a[i][t] * b[t][j] for t in range(1, k)), start=a[i][0] * b[0][j])
         for j in range(m)]
        for i in range(n)
    ]


def transpose(a):
    return [list(row) for row in zip(*a)]


class NotRational(TypeError, ValueError):
    """An input that is not a rational number.  Both a TypeError and a
    ValueError, so `mat_inv` and `mat_det` refuse with the TypeError they
    always raised and the GL2 and GL4 coordinates with their ValueError."""


def rational(x):
    """x as an exact rational; hot paths test for int and Fraction inline
    and call this for the rest."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise NotRational(f"inputs must be rational numbers: int or Fraction, not {type(x).__name__}")


def real(x) -> Fraction:
    """An Archimedean input as a Fraction, a finite float read exactly."""
    if isinstance(x, float) and math.isfinite(x) or isinstance(x, Rational):
        return Fraction(x)
    raise NotRational(f"real inputs must be finite numbers: int, Fraction or float, not {x!r}")


def integer_matrix(a):
    """(m, den) with integer m, a = m / den and den > 0 least, so m and den
    have no common factor.  One pass over a reads int and Fraction entries
    as they are and every other entry through `rational`."""
    rows, dens = [], []
    for row in a:
        r = []
        for x in row:
            if not isinstance(x, (int, Fraction)):
                x = rational(x)
            d = x.denominator
            r.append((x.numerator, d))
            dens.append(d)
        rows.append(r)
    den = math.lcm(*dens)
    return [[n * (den // d) for n, d in r] for r in rows], den


def bareiss(m) -> tuple[list[int], int]:
    """(pivots, swaps): Bareiss's elimination of the square integer matrix m,
    in place, and the row swaps it made.  Before the first swap, pivots[k] is
    the leading principal minor of order k + 1; a zero pivot with no row to
    swap in ends a singular m.  det m = (-1)^swaps * pivots[-1]."""
    n = len(m)
    pivots, swaps, prev = [], 0, 1
    for col in range(n):
        if m[col][col] == 0:  # the first nonzero entry below is the pivot
            piv = next((r for r in range(col + 1, n) if m[r][col] != 0), None)
            if piv is None:
                return pivots + [0], swaps
            m[col], m[piv], swaps = m[piv], m[col], swaps + 1
        pivot_row = m[col]
        p = pivot_row[col]
        pivots.append(p)
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            m[r] = row[:col + 1] + [(p * x - f * y) // prev
                                    for x, y in zip(row[col + 1:], pivot_row[col + 1:])]
        prev = p
    return pivots, swaps


def adjugate(m) -> tuple[list[list[int]], int]:
    """(adj m, det m) of a square integer matrix by fraction-free
    Gauss-Jordan elimination on [m | I]: each step leaves integer minors,
    and the last ends at [q * I | q * m^-1] for q = det m times the sign of
    the row swaps.  Raises ZeroDivisionError on singular input."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev, sign = 1, 1
    for col in range(n):
        if aug[col][col] == 0:
            piv = next((r for r in range(col + 1, n) if aug[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[piv], sign = aug[piv], aug[col], -sign
        pivot_row = aug[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], pivot_row)]
        prev = p
    return [[sign * x for x in row[n:]] for row in aug], sign * prev


def mat_inv(a):
    m, den = integer_matrix(a)
    adj, det = adjugate(m)
    return [[Fraction(den * x, det) for x in row] for row in adj]


def mat_det(a):
    m, den = integer_matrix(a)
    pivots, swaps = bareiss(m)
    return Fraction((-1) ** swaps * pivots[-1], den ** len(m))


def in_gl_zp(a, p: int) -> bool:
    """a in GL_n(Z_p) for a rational square a and a prime p: with a = m / den
    cleared over its least denominator, every entry is p-integral iff
    p does not divide den, and then det a is a p-adic unit iff p does not
    divide det m."""
    m, den = integer_matrix(a)
    if den % p == 0:
        return False
    pivots, _ = bareiss(m)
    return pivots[-1] % p != 0

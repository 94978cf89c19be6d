"""Linear algebra over Q.

`mat_mul`, `mat_vec` and `transpose` work on any entries that support
+ and *.  `mat_inv`, `mat_det` and `leading_minors` take matrices of int
and Fraction entries only and raise TypeError on any other entry type:
each clears its matrix to one integer matrix over a common denominator
and eliminates fraction-free (Bareiss), so every intermediate is an
integer minor, and gives Fraction results.  The pivot is the first
nonzero entry of its column.  Matrices are lists of lists; nothing here
mutates its arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply {n}x{len(a[0])} by {k}x{m}")
    return [
        [sum((a[i][t] * b[t][j] for t in range(1, k)), start=a[i][0] * b[0][j])
         for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(1, len(v))), start=a[i][0] * v[0])
            for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def _as_integer_matrix(a):
    """(m, den) with integer m and a = m / den; TypeError unless every
    entry of a is an int or a Fraction."""
    for row in a:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction entries, got {type(x).__name__}")
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _swap_in_pivot(m, col) -> bool:
    """Bring the first row at or below col with a nonzero entry in column
    col to row col; False when there is none."""
    piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
    if piv is None:
        return False
    m[col], m[piv] = m[piv], m[col]
    return True


def mat_inv(a):
    """Inverse by fraction-free Gauss-Jordan elimination on [m | I]; each
    step leaves integer minors, and the last ends at [det * I | det * m^-1].
    Raises ZeroDivisionError on singular input."""
    n = len(a)
    m, den = _as_integer_matrix(a)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        if not _swap_in_pivot(aug, col):
            raise ZeroDivisionError("singular matrix")
        pivot_row = aug[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], pivot_row)]
        prev = p
    # a^-1 = den * m^-1
    return [[Fraction(den * x, prev) for x in row[n:]] for row in aug]


def _bareiss_step(m, col, prev):
    """Fraction-free elimination below m[col][col] in the integer matrix m;
    entries left of col + 1 below the pivot are not updated."""
    pivot_row = m[col]
    p = pivot_row[col]
    for r in range(col + 1, len(m)):
        row = m[r]
        f = row[col]
        m[r] = row[:col + 1] + [(p * x - f * y) // prev
                                for x, y in zip(row[col + 1:], pivot_row[col + 1:])]


def mat_det(a):
    n = len(a)
    m, den = _as_integer_matrix(a)
    sign, prev = 1, 1
    for col in range(n - 1):
        if m[col][col] == 0:
            if not _swap_in_pivot(m, col):
                return Fraction(0)
            sign = -sign
        _bareiss_step(m, col, prev)
        prev = m[col][col]
    return Fraction(sign * m[n - 1][n - 1], den ** n)


def leading_minors(a) -> list:
    """The leading principal minors of a, up to the first one that is zero,
    exactly from one Bareiss pass without row swaps: after k steps the
    pivot m[k][k] is the leading minor of order k + 1 of the integer
    matrix, den^(k+1) times that of a."""
    m, den = _as_integer_matrix(a)
    minors = []
    prev = 1
    for col in range(len(m)):
        p = m[col][col]
        minors.append(Fraction(p, den ** (col + 1)))
        if p == 0:
            break
        _bareiss_step(m, col, prev)
        prev = p
    return minors

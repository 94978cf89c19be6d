"""Generic linear algebra over any field-like element type.

Entries must support +, -, *, / and compare equal to 0.  Used with
Fraction and number field elements (quadratic fields included) alike, and
with float and complex entries too.  Matrices of int and Fraction entries
are cleared to one integer matrix over a common denominator and
eliminated fraction-free (Bareiss), so every intermediate is an integer
minor; they give Fraction results.  Other entry types go through
Gauss-Jordan elimination.  The pivot is the first nonzero entry of its
column, which exact types need and which suits symmetric positive
definite float Grams (their leading pivots are positive).  Matrices are
lists of lists; nothing here mutates its arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
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


def _unit(x):
    """The 1 of the entry type of x; Fraction(1) for int entries, so that
    division stays exact."""
    return Fraction(1) if isinstance(x, int) else x ** 0


def _as_integer_matrix(a):
    """(m, den) with integer m and a = m / den, when every entry of a is
    an int or a Fraction; None otherwise."""
    if not all(isinstance(x, (int, Fraction)) for row in a for x in row):
        return None
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _swap_in_pivot(m, col) -> bool:
    """Bring the first row at or below col with a nonzero entry in column
    col to row col; False when there is none."""
    piv = next((r for r in range(col, len(m)) if not m[r][col] == 0), None)
    if piv is None:
        return False
    m[col], m[piv] = m[piv], m[col]
    return True


def mat_inv(a):
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    cleared = _as_integer_matrix(a)
    if cleared is not None:
        # fraction-free Gauss-Jordan on [m | I]: each step leaves integer
        # minors, and the last ends at [det * I | det * m^-1]
        m, den = cleared
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
    one = _unit(a[0][0])
    aug = [list(row) + [one if i == j else one * 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        if not _swap_in_pivot(aug, col):
            raise ZeroDivisionError("singular matrix")
        inv_p = one / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col] == 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    cleared = _as_integer_matrix(a)
    if cleared is not None:
        m, den = cleared
        sign, prev = 1, 1
        for col in range(n - 1):
            if m[col][col] == 0:
                if not _swap_in_pivot(m, col):
                    return Fraction(0)
                sign = -sign
            _bareiss_step(m, col, prev)
            prev = m[col][col]
        return Fraction(sign * m[n - 1][n - 1], den ** n)
    m = [list(row) for row in a]
    det = one = _unit(m[0][0])
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col] == 0), None)
        if piv is None:
            return det * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = det * -1
        det = det * m[col][col]
        inv_p = one / m[col][col]
        for r in range(col + 1, n):
            if not m[r][col] == 0:
                f = m[r][col] * inv_p
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def leading_minors(a) -> list:
    """The leading principal minors of a, up to the first one that is zero.
    For int and Fraction entries they come exactly from one Bareiss pass
    without row swaps; other entry types take mat_det of each leading
    block."""
    n = len(a)
    cleared = _as_integer_matrix(a)
    minors = []
    if cleared is None:
        for k in range(1, n + 1):
            minors.append(mat_det([row[:k] for row in a[:k]]))
            if minors[-1] == 0:
                break
        return minors
    # after k Bareiss steps the pivot m[k][k] is the leading minor of order
    # k + 1 of the integer matrix, den^(k+1) times that of a
    m, den = cleared
    prev = 1
    for col in range(n):
        p = m[col][col]
        minors.append(Fraction(p, den ** (col + 1)))
        if p == 0:
            break
        _bareiss_step(m, col, prev)
        prev = p
    return minors


def solve(a, rhs):
    """Solve a x = rhs for a vector rhs."""
    inv = mat_inv(a)
    return mat_vec(inv, rhs)

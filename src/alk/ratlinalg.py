"""Generic linear algebra over any field-like element type.

Entries must support +, -, *, / and compare equal to 0.  Used with
Fraction, quadratic field elements and number field elements alike, and
with float, complex and mpmath entries too.  The pivot is the first
nonzero entry of its column, which exact types need and which suits
symmetric positive definite float Grams (their leading pivots are
positive).  Matrices are lists of lists; nothing here mutates its
arguments.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), start=a[i][0] * b[0][j] * 0)
         for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=a[i][0] * v[0] * 0)
            for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def _unit(x):
    """The 1 of the entry type of x; Fraction(1) for int entries, so that
    division stays exact."""
    return Fraction(1) if isinstance(x, int) else x ** 0


def mat_inv(a):
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    one = _unit(a[0][0])
    aug = [list(row) + [one if i == j else one * 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col] == 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = one / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col] == 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_det(a):
    n = len(a)
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


def solve(a, rhs):
    """Solve a x = rhs for a vector rhs."""
    inv = mat_inv(a)
    return mat_vec(inv, rhs)

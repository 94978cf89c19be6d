"""Theta sums by Fincke-Pohst enumeration on an exact integer Gram.

An `arakelov.EuclideanLattice` holds the upper-triangular rows U that one
`ratlinalg.bareiss` pass leaves on its integer Gram num, a fraction-free
LDL^T: with pivots p_k = U[k][k], x^T num x = sum_k (U_k . x)^2 /
(p_{k-1} p_k), p_{-1} = 1, and p_{i-1} times the part of that sum from
level i on is an integer.  `gauss_sum` walks these rows in integers, so no
float enters a range or the choice of a point.  The tests check it against
an exact listing of a box.
"""

from __future__ import annotations

import math

KERNEL_NAME = "python"


class BudgetExceeded(RuntimeError):
    """A budget of `budget` units ran out, more than `found` being needed.
    The units are lattice points or outer-level values in `gauss_sum`, box
    rows or box points in `arakelov.box_count`."""

    def __init__(self, budget: int, found: int, units: str):
        super().__init__(f"enumeration budget {budget} exceeded: more than {found} {units}")
        self.budget = budget
        self.found = found


def gauss_sum(rows, den, bound, budget=5_000_000):
    """(sum of exp(-pi * Q(x)), count) over the integer x with
    Q(x) = x^T num x / den <= bound: rows the upper-triangular U of a
    positive definite symmetric integer matrix num (`EuclideanLattice.rows`,
    every pivot U[k][k] > 0), den > 0, and bound an int, Fraction or float,
    taken as its exact value, so the test is x^T num x <= floor(bound * den).

    At level i, with x[j] set for j > i, s = U_i . x over j > i and q / p_i
    the norm the levels above take, y = p_i x[i] + s needs y^2 <=
    p_{i-1} (p_i floor(bound * den) - q): x[i] runs exactly over
    ceil((-s - r) / p_i) .. floor((r - s) / p_i) for r the isqrt of the
    right side.  The last level steps x^T num x by integer differences.

    Against the exact sum over the same points, the result is off by a
    relative error of at most (count / 2 + 3 pi bound + 3) * 2^-53, to
    first order: each argument -pi * (x^T num x / den) takes three
    roundings (3 pi bound * 2^-53 after exp), exp one ulp, and the
    (count - 1) / 2 terms and the final 1 + 2 * (half sum) one rounding
    each.

    No point is stored.  The budget bounds the points, and also the values
    the outer levels walk (each range is counted when it is set), so a long
    outer range of mostly empty inner runs is refused instead of walked.
    Only the half space where the last nonzero coordinate is positive is
    visited, and the full sum is 1 (the origin) plus twice the half sum.
    """
    n = len(rows)
    bn, bd = bound.as_integer_ratio()
    if bn < 0:
        return 0.0, 0
    if budget < 1:  # the origin alone exceeds it
        raise BudgetExceeded(budget, max(budget, 0), "lattice points")
    top = bn * den // bd  # x^T num x <= top
    room = (budget - 1) // 2  # half-space points allowed besides the origin
    prev = [1] + [rows[k][k] for k in range(n - 1)]
    exp = math.exp
    neg_pi = -math.pi
    x = [0] * n
    total = 0.0
    count = 0
    nodes = 0

    def level(i, q, free):
        # x[j] for j > i are set and take q / p_i of x^T num x; free: one of
        # them is nonzero, so x[i] ranges over both signs, otherwise only
        # over x[i] >= 0
        nonlocal total, count, nodes
        row, pp = rows[i], prev[i]
        p = row[i]
        s = 0
        for j in range(i + 1, n):
            s += row[j] * x[j]
        r = math.isqrt(pp * (p * top - q))
        hi = (r - s) // p
        lo = -((r + s) // p) if free else 0
        if i:
            nodes += max(hi - lo + 1, 0)
            if nodes > budget:
                raise BudgetExceeded(budget, budget, "outer-level values")
            for xi in range(lo, hi + 1):
                y = p * xi + s
                x[i] = xi
                level(i - 1, (y * y + pp * q) // p, free or xi != 0)
            x[i] = 0
            return
        if not free:
            lo = 1  # x = 0 is the origin, counted once outside the sum
        if hi < lo:
            return
        count += hi - lo + 1
        if count > room:
            raise BudgetExceeded(budget, budget, "lattice points")
        # x^T num x = (y^2 + q) / p for y = p * x[0] + s; one step of x[0]
        # adds 2y + p, which grows by 2p
        y = p * lo + s
        qx = (y * y + q) // p
        dq = 2 * y + p
        for _ in range(hi - lo + 1):
            total += exp(neg_pi * (qx / den))
            qx += dq
            dq += 2 * p

    level(n - 1, 0, False)
    return 1.0 + 2.0 * total, 1 + 2 * count

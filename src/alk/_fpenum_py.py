"""Lattice enumeration and theta sums (Fincke-Pohst) for a positive
definite float Gram G: nested interval search on its Cholesky factor for
the integer x with x^T G x <= bound, with slack.  `gauss_sum` is the theta
kernel; the tests check it against a reference that lists the points.
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


def _cholesky_upper(gram):
    """Upper-triangular U with U^T U = G."""
    n = len(gram)
    u = [[0.0] * n for _ in range(n)]
    for i in range(n):
        s = gram[i][i] - sum(u[k][i] * u[k][i] for k in range(i))
        if s <= 0.0:
            raise ValueError("Gram matrix not positive definite")
        u[i][i] = math.sqrt(s)
        for j in range(i + 1, n):
            u[i][j] = (gram[i][j] - sum(u[k][i] * u[k][j] for k in range(i))) / u[i][i]
    return u


def _first_false(lo, hi, pred):
    """The least v in [lo, hi] with pred(v) false, or hi + 1, for a pred that
    holds on a prefix of [lo, hi]; by bisection."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid + 1
        else:
            hi = mid - 1
    return lo


def gauss_sum(gram, bound, budget=5_000_000):
    """(sum of exp(-pi * Q(x)), count) over the integer x with Q(x) <= bound.

    No point is stored: each exp is added as the innermost level reaches
    it.  The point set, inclusion test and point budget are those of the
    full point list that the tests keep as the reference; the same budget
    also bounds the values the outer levels walk (each level's range is
    counted once, when it is set), so a long outer range of mostly empty
    inner runs is refused instead of walked.  Only the half space
    where the last nonzero coordinate is positive is visited.  The partial
    sums s negate exactly in floating point, so x and -x get the same
    terms t, the same norm and the same verdict, and the full sum is 1
    (the origin) plus twice the half sum.
    """
    n = len(gram)
    u = _cholesky_upper(gram)
    top = bound + 1e-9 * (1.0 + abs(bound))
    if top < 0:
        return 0.0, 0
    if budget < 1:  # the origin alone exceeds it
        raise BudgetExceeded(budget, max(budget, 0), "lattice points")
    room = (budget - 1) // 2  # half-space points allowed besides the origin
    exp = math.exp
    neg_pi = -math.pi
    x = [0] * n
    total = 0.0
    count = 0
    nodes = 0

    def level(i, used, free):
        # x[j] for j > i are set; free: one of them is nonzero, so x[i]
        # ranges over both signs, otherwise only over x[i] >= 0
        nonlocal total, count, nodes
        rem = top - used
        if rem < 0:
            return
        ui = u[i]
        d = ui[i]
        s = 0
        for j in range(i + 1, n):
            s += ui[j] * x[j]
        half = math.sqrt(rem)
        hi = math.floor((-s + half) / d + 1e-12)
        lo = math.ceil((-s - half) / d - 1e-12) if free else 0
        if i:
            nodes += max(hi - lo + 1, 0)
            if nodes > budget:
                raise BudgetExceeded(budget, budget, "outer-level values")
            for xi in range(lo, hi + 1):
                t = (d * xi + s) ** 2
                if used + t <= top:
                    x[i] = xi
                    level(i - 1, used + t, free or xi != 0)
            x[i] = 0
            return
        if not free:
            lo = 1  # x = 0 is the origin, counted once outside the sum
        # the accepted x[0] form one run: trim the ends, then sum without tests.
        # y = d*x + s rises with x, so Q falls while y < 0 and rises after:
        # the rejected x below the run (y < 0) and above it (y > 0) are found
        # by bisection.  Single steps would not end past 2^53, where float(x)
        # repeats over many integers
        if lo <= hi and used + (d * lo + s) ** 2 > top:
            lo = _first_false(lo, hi, lambda v: (y := d * v + s) < 0 and used + y ** 2 > top)
        if lo <= hi and used + (d * hi + s) ** 2 > top:
            hi = _first_false(lo, hi, lambda v: (y := d * v + s) <= 0 or used + y ** 2 <= top) - 1
        if hi < lo:
            return
        count += hi - lo + 1
        if count > room:
            raise BudgetExceeded(budget, budget, "lattice points")
        for xi in range(lo, hi + 1):
            total += exp(neg_pi * (used + (d * xi + s) ** 2))

    level(n - 1, 0.0, False)
    return 1.0 + 2.0 * total, 1 + 2 * count

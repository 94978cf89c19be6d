"""Lattice enumeration and certified theta sums.

One pure-Python Fincke-Pohst kernel (`_fpenum_py`) does the work.  A
theta sum builds no point list: the kernel adds exp(-pi Q(x)) as it
reaches each x, visits only the half space where the last nonzero
coordinate of x is positive, and returns 1 + 2 * (half sum), which is
exact because x and -x get bit-identical norms.

Theta sums are truncated at a radius R whose Gaussian tail is certified:
with m the lattice minimum, balls of radius sqrt(m)/2 around lattice
points are disjoint, so #{v : |v| <= r} <= (1 + 2r/sqrt(m))^n and

    sum_{|v| > R} e^{-pi |v|^2}
        <= sum_{k >= 0} (1 + 2(R+k+1)/sqrt(m))^n e^{-pi (R+k)^2}.

The reported tail_bound is this sum; R is grown until it is below the
requested tolerance.
"""

from __future__ import annotations

import math

from . import _fpenum_py

KERNEL_NAME = _fpenum_py.KERNEL_NAME
BudgetExceeded = _fpenum_py.BudgetExceeded
DEFAULT_BUDGET = 5_000_000
DEFAULT_TAIL_TOL = 1e-12


def enumerate_vectors(gram, bound, budget=DEFAULT_BUDGET):
    """Integer vectors with Q(x) <= bound (slightly over-covered; callers
    needing exactness filter with the exact form)."""
    return _fpenum_py.enumerate_vectors([list(map(float, r)) for r in gram],
                                        float(bound), budget)


def lattice_minimum(gram) -> float:
    """Smallest nonzero value of the quadratic form on Z^n (float)."""
    bound = min(float(gram[i][i]) for i in range(len(gram)))
    while True:
        _, norms = enumerate_vectors(gram, bound)
        nz = [q for q in norms if q > 1e-12]
        if nz:
            return min(nz)
        bound *= 2.0


def gaussian_tail_bound(radius: float, minimum: float, n: int) -> float:
    root_m = math.sqrt(minimum)
    total = 0.0
    k = 0
    while True:
        term = (1.0 + 2.0 * (radius + k + 1) / root_m) ** n \
            * math.exp(-math.pi * (radius + k) ** 2)
        total += term
        if term < 1e-40 and k > 2:
            return total
        k += 1


def theta_log_sum(gram, tail_tol=DEFAULT_TAIL_TOL, budget=DEFAULT_BUDGET):
    """(h0, truncation_radius, tail_bound) with h0 = log sum e^{-pi Q(v)}
    over the whole lattice, certified to the given tail tolerance."""
    n = len(gram)
    m = lattice_minimum(gram)
    radius = max(1.5, math.sqrt(math.log(4.0 / tail_tol) / math.pi))
    while gaussian_tail_bound(radius, m, n) >= tail_tol:
        radius += 0.25
    tail = gaussian_tail_bound(radius, m, n)
    gram_f = [list(map(float, r)) for r in gram]
    total, _count = _fpenum_py.gauss_sum(gram_f, radius * radius, budget)
    return math.log(total), radius, tail

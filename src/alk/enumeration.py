"""Certified theta sums; box counts sum exact rows in `arakelov.box_count`.

One pure-Python Fincke-Pohst kernel (`_fpenum_py`) walks the fraction-free
LDL^T rows the lattice holds, exactly, so the points summed are those with
Q(x) <= R^2; it makes no elimination of its own.  It builds no point list: it adds exp(-pi Q(x)) as it reaches each x,
visits only the half space where the last nonzero coordinate of x is
positive, and returns 1 + 2 * (half sum).

The sum stops at a radius set by the rank n and the tolerance alone.
For c > 1/sqrt(2 pi), Banaszczyk's lemma (Math. Ann. 296 (1993), Lemma
1.5) bounds the mass e^{-pi |v|^2} of any rank-n lattice outside radius
c sqrt(n) by C^n theta, with C = c sqrt(2 pi e) e^{-pi c^2}.  So the log
of the partial sum falls below log theta by less than -log(1 - C^n), the
reported tail_bound; it covers truncation, and `gauss_sum` bounds rounding.

Each call sums one lattice.  `arakelov.theta_invariants_euclidean` calls it
on the sparser of L and L* only and derives the other side by Poisson
summation, which keeps the same tail_bound plus the rounding of log det;
a Hermitian bundle goes through it too, so it takes one call.
"""

from __future__ import annotations

import functools
import math

from . import _fpenum_py

KERNEL_NAME = _fpenum_py.KERNEL_NAME
BudgetExceeded = _fpenum_py.BudgetExceeded
DEFAULT_BUDGET = 5_000_000
DEFAULT_TAIL_TOL = 1e-12


def _banaszczyk_bound(n: int, radius: float) -> float:
    """-log(1 - C^n) for c = radius / sqrt(n); inf where C^n >= 1."""
    c = radius / math.sqrt(n)
    log_cn = n * (math.log(c) + 0.5 * math.log(2 * math.pi * math.e) - math.pi * c * c)
    return math.inf if log_cn >= 0 else -math.log1p(-math.exp(log_cn))


@functools.lru_cache(maxsize=None)
def truncation_radius(n: int, tail_tol: float) -> tuple[float, float]:
    """(R, bound): the smallest radius, to 40 bisection steps, at which the
    Banaszczyk bound for rank n is below tail_tol, and that bound."""
    lo = hi = math.sqrt(n / (2 * math.pi))  # where C = 1
    while _banaszczyk_bound(n, hi) >= tail_tol:
        lo, hi = hi, 2 * hi
    for _ in range(40):
        mid = (lo + hi) / 2
        if _banaszczyk_bound(n, mid) < tail_tol:
            hi = mid
        else:
            lo = mid
    return hi, _banaszczyk_bound(n, hi)


def theta_log_sum(lat, tail_tol=DEFAULT_TAIL_TOL, budget=DEFAULT_BUDGET):
    """(h0, truncation_radius, tail_bound) with h0 = log sum e^{-pi Q(v)}
    over the whole `arakelov.EuclideanLattice` lat, certified to the given
    tail tolerance."""
    if not 0 < tail_tol < 1:
        raise ValueError(f"tail tolerance {tail_tol} not in (0, 1)")
    if not lat.rank:
        raise ValueError("theta sum of a rank-0 lattice")
    radius, tail = truncation_radius(lat.rank, tail_tol)
    total, _ = _fpenum_py.gauss_sum(lat.rows, lat.den, radius * radius, budget)
    return math.log(total), radius, tail

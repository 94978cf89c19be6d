"""Independent reference computations for checking alk's outputs.

Nothing here calls the alk routine it checks: elements of Q(sqrt d) are
plain (a, b) pairs of Fractions meaning a + b*sqrt(d), box counts are
integer loops instead of lattice enumeration, and square classes are
decided with math.isqrt.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


# -- integers and rationals ------------------------------------------------

def is_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def quad_disc(d: int) -> int:
    """|disc| of Q(sqrt d) for squarefree d."""
    return abs(d) if d % 4 == 1 else 4 * abs(d)


def squarefree_part(n: int) -> int:
    sign, n = (-1 if n < 0 else 1), abs(n)
    out, k = 1, 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
        if n % k == 0:
            out *= k
            n //= k
        k += 1
    return sign * out * n


def det_fraction(m) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# -- Q(sqrt d) as (a, b) pairs ---------------------------------------------

def qmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def qnorm(x, d) -> Fraction:
    return x[0] * x[0] - d * x[1] * x[1]


def qinv(x, d):
    n = qnorm(x, d)
    return (x[0] / n, -x[1] / n)


def qpow(x, e: int, d):
    if e < 0:
        x, e = qinv(x, d), -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = qmul(out, x, d)
    return out


def omega(d: int):
    """Generator of the ring of integers as an (a, b) pair."""
    return (Fraction(1, 2), Fraction(1, 2)) if d % 4 == 1 else (Fraction(0), Fraction(1))


def omega_min_poly(d: int) -> tuple[int, int]:
    """(c0, c1) with omega^2 + c1 omega + c0 = 0."""
    return ((1 - d) // 4, -1) if d % 4 == 1 else (-d, 0)


def leq_sqrt(a: Fraction, b: Fraction, d: int, bound: Fraction) -> bool:
    """Exact test of a + b*sqrt(d) <= bound for d > 0."""
    rem = bound - a
    if b == 0:
        return rem >= 0
    if b > 0:
        return rem >= 0 and b * b * d <= rem * rem
    return rem >= 0 or b * b * d >= rem * rem


def prime_generator(d: int, p: int, kind: str):
    """A generator of the first prime of O_F over p (class number one),
    with the place convention of alk: at a split prime the first place
    contains omega - r for the smallest root r of omega's polynomial mod p."""
    if kind == "inert":
        return (Fraction(p), Fraction(0))
    c0, c1 = omega_min_poly(d)
    r = next(x for x in range(p) if (x * x + c1 * x + c0) % p == 0
             and (2 * x + c1) % p != 0) if kind == "split" else None
    w = omega(d)
    for size in range(1, 60):
        for v in range(0, size + 1):
            for u in range(-size, size + 1):
                if max(abs(u), v) != size:
                    continue
                y = (u + v * w[0], v * w[1])
                if abs(qnorm(y, d)) != p:
                    continue
                if r is None or (u + v * r) % p == 0:
                    return y
    raise ValueError(f"no generator of norm {p} found in Q(sqrt {d})")


def fundamental_unit(d: int):
    """The unit u + v*omega of norm +-1 with the smallest v > 0 (real F)."""
    w = omega(d)
    for v in range(1, 10_000):
        for u in range(-4 * v - 4, 4 * v + 5):
            y = (u + v * w[0], v * w[1])
            if abs(qnorm(y, d)) == 1:
                return y
    raise ValueError(f"no unit found in Q(sqrt {d})")


def _log_embeddings(x, d: int) -> tuple[float, float]:
    """(log |sigma_1 x|, log |sigma_2 x|) for x != 0 in a real field,
    from the non-cancelling embedding and the norm, in big-int logs."""
    root = Fraction(math.isqrt(d * 10 ** 60), 10 ** 30)
    big = abs(x[0]) + abs(x[1]) * root
    log_big = math.log(big.numerator) - math.log(big.denominator)
    n = abs(qnorm(x, d))
    log_small = math.log(n.numerator) - math.log(n.denominator) - log_big
    return (log_big, log_small) if x[0] * x[1] >= 0 else (log_small, log_big)


def balanced(mu, d: int):
    """mu times the power of the fundamental unit that makes its two real
    embeddings closest in absolute value (the same principal ideal)."""
    eps = fundamental_unit(d)
    l1, _ = _log_embeddings(eps, d)
    m1, m2 = _log_embeddings(mu, d)
    return qmul(mu, qpow(eps, round((m2 - m1) / (2 * l1)), d), d)


def count_norm_ball(d: int, bound: Fraction) -> int:
    """#{y in O_F : Nr(y) <= bound} for imaginary F = Q(sqrt d)."""
    c0, c1 = omega_min_poly(d)
    tr, n = -c1, c0  # Nr(u + v omega) = u^2 + tr*u*v + n*v^2
    disc = 4 * n - tr * tr
    vmax = math.isqrt(int(4 * bound / disc) + 1) + 1
    count = 0
    for v in range(-vmax, vmax + 1):
        centre = -tr * v / 2
        half = math.sqrt(max(0.0, float(bound) - disc * v * v / 4)) + 1
        for u in range(math.floor(centre - half), math.ceil(centre + half) + 1):
            if u * u + tr * u * v + n * v * v <= bound:
                count += 1
    return count


def count_real_box(d: int, mu, r1: Fraction, r2: Fraction) -> int:
    """#{x in mu*O_F : |sigma_1 x| <= r1, |sigma_2 x| <= r2}, real F,
    by a float-bounded integer loop with an exact membership test."""
    s = math.sqrt(d)
    w = omega(d)
    w1, w2 = float(w[0]) + float(w[1]) * s, float(w[0]) - float(w[1]) * s
    m1 = abs(float(mu[0]) + float(mu[1]) * s)
    m2 = abs(float(mu[0]) - float(mu[1]) * s)
    a1, a2 = float(r1) / m1, float(r2) / m2  # bounds on |sigma_i(y)|
    vmax = int((a1 + a2) / abs(w1 - w2)) + 1
    r1sq, r2sq = r1 * r1, r2 * r2
    count = 0
    for v in range(-vmax, vmax + 1):
        lo = max(-a1 - v * w1, -a2 - v * w2)
        hi = min(a1 - v * w1, a2 - v * w2)
        for u in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            x = qmul(mu, (u + v * w[0], v * w[1]), d)
            sq = qmul(x, x, d)
            if leq_sqrt(sq[0], sq[1], d, r1sq) and leq_sqrt(sq[0], -sq[1], d, r2sq):
                count += 1
    return count


def count_box(d: int, p: int, kind: str, e: int, radii) -> int:
    """Reference count of {x : |x|_v <= q_v^e at the first place over p,
    |x|_w <= 1 at other finite places, Archimedean radii as given} for a
    class-number-one field: x = pi^(-e) y with y integral."""
    if d < 0:
        q = p * p if kind == "inert" else p
        return count_norm_ball(d, Fraction(radii[0]) * Fraction(q) ** e)
    mu = balanced(qpow(prime_generator(d, p, kind), -e, d), d)
    return count_real_box(d, mu, Fraction(radii[0]), Fraction(radii[1]))


def count_principal_box(d: int, gen, radii) -> int:
    """#{s in gen*O_F : |sigma(s)| <= rho_sigma}; for imaginary F the
    complex condition is Nr(s) <= rho^2."""
    if d < 0:
        return count_norm_ball(d, Fraction(radii[0]) ** 2 / qnorm(gen, d))
    return count_real_box(d, balanced(gen, d), Fraction(radii[0]), Fraction(radii[1]))


# -- quartic towers -------------------------------------------------------

def tower_type(d: int, delta) -> str:
    """Galois type of F(sqrt delta) by the square class of Nr(delta);
    delta is an (a, b) pair, b = 0 meaning the biquadratic datum."""
    if delta[1] == 0:
        return "biquadratic"
    n = qnorm(delta, d)
    if is_square(n):
        return "biquadratic"
    if is_square(n * d):
        return "cyclic"
    return "dihedral"


def gaussian_period(p: int) -> complex:
    """eta_0 = sum of zeta_p^h over the index-4 subgroup of (Z/p)^x."""
    h = {pow(x, 4, p) for x in range(1, p)}
    return sum(cmath.exp(2j * math.pi * k / p) for k in h)


def poly_residual(coeffs, z: complex) -> float:
    """|m(z)| relative to the sum of the absolute terms."""
    val, scale = 0j, 0.0
    for i, c in enumerate(coeffs):
        term = float(c) * z ** i
        val += term
        scale += abs(term)
    return abs(val) / max(scale, 1.0)


def mult_rows(min_poly, coeffs):
    """Rows i = coordinates of x * theta^i on the power basis, for x with
    the given coordinates (this is alk's regular representation)."""
    n = len(min_poly) - 1
    rows, cur = [], [Fraction(c) for c in coeffs] + [Fraction(0)] * (n - len(coeffs))
    for _ in range(n):
        rows.append(cur)
        # multiply by theta and reduce with the monic minimal polynomial
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        cur = [c - top * Fraction(m) for c, m in zip(cur, min_poly[:n])]
    return rows


# -- GL2 torus coordinates ------------------------------------------------

def torus_coords(d: int, alpha, gamma):
    """m = c gamma c^(-1) with c^(-1) = [[1, 1], [alpha, conj alpha]];
    entries as (a, b) pairs."""
    abar = (alpha[0], -alpha[1])
    det = (abar[0] - alpha[0], abar[1] - alpha[1])
    inv_det = qinv(det, d)
    one = (Fraction(1), Fraction(0))
    c = [[qmul(abar, inv_det, d), qmul((-one[0], -one[1]), inv_det, d)],
         [qmul((-alpha[0], -alpha[1]), inv_det, d), qmul(one, inv_det, d)]]
    cinv = [[one, one], [alpha, abar]]
    g = [[(Fraction(x), Fraction(0)) for x in row] for row in gamma]

    def mm(a, b):
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                s = (Fraction(0), Fraction(0))
                for t in range(2):
                    prod = qmul(a[i][t], b[t][j], d)
                    s = (s[0] + prod[0], s[1] + prod[1])
                row.append(s)
            out.append(row)
        return out

    return mm(mm(c, g), cinv)

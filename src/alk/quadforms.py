"""Binary forms over Q(sqrt(d)): the form sum_sigma sigma(x) sigma(y)^* /
R_sigma of a fractional ideal under its Archimedean radii, its Lagrange-Gauss
reduction (`lagrange`) in integers of Q(sqrt(d)), and the exact count of the
box |sigma(x)| <= rho_sigma by rows on the reduced basis (`box_count`)."""

from __future__ import annotations

import math
from fractions import Fraction

from . import enumeration
from .numfield import FracIdeal
from .ratlinalg import real

_GRAM_BITS = 64  # a rounded `lattice_gram` has A * 2^s >= 2^_GRAM_BITS, A its first entry


def positive_radii(radii, message: str) -> tuple[Fraction, ...]:
    """One radius or a tuple or list of them as Fractions, each read by
    `ratlinalg.real`; ValueError(message) unless every radius is positive."""
    radii = tuple(real(r) for r in (radii if isinstance(radii, (tuple, list)) else (radii,)))
    if any(r <= 0 for r in radii):
        raise ValueError(message)
    return radii


def _surd_negative(x: int, y: int, d: int) -> bool:
    """x + y*sqrt(d) < 0, for y = 0 or a nonsquare d > 0: the larger term's sign."""
    return (x if x * x > y * y * d else y) < 0


def _floor_surd(p: int, q: int, d: int, m: int) -> int:
    """floor((p + q*sqrt(d)) / m) for m > 0, and q = 0 or a nonsquare d > 0."""
    r = math.isqrt(q * q * d)
    return (p + (r if q >= 0 else -r - 1)) // m


def lagrange(gram, d: int = 0):
    """(gram', (c0, c1)): the Lagrange-Gauss reduction of a positive definite
    binary form, exact.  gram = (A, B, C) stands for [[A, B], [B, C]], each
    entry an integer pair (x, y) for x + y*sqrt(d): y = 0 for a rational form,
    whatever d is, and otherwise d > 0 is a nonsquare and the conjugate form
    (y -> -y) is positive definite too, as it is for sum sigma(x)sigma(y)/R_sigma
    (the conjugate swaps the radii).  gram' is the Gram of the reduced basis
    r_j = c_j[0]*e_0 + c_j[1]*e_1, with A' <= C' and |2B'| <= A'."""
    (a, ay), (b, by), (c, cy) = gram
    c0, c1 = (1, 0), (0, 1)
    while True:
        if _surd_negative(c - a, cy - ay, d):
            a, ay, c, cy, c0, c1 = c, cy, a, ay, c1, c0
        # mu = floor(B/A + 1/2) = floor((2B + A) * conj(A) / (2 A conj(A)))
        x, y = 2 * b + a, 2 * by + ay
        mu = _floor_surd(x * a - y * ay * d, y * a - x * ay, d, 2 * (a * a - ay * ay * d))
        if mu == 0:
            return ((a, ay), (b, by), (c, cy)), (c0, c1)
        c, cy = c - mu * (2 * b - mu * a), cy - mu * (2 * by - mu * ay)
        b, by = b - mu * a, by - mu * ay
        c1 = (c1[0] - mu * c0[0], c1[1] - mu * c0[1])


def reduce_forms(d: int, forms, s: int = 1, t: int = 0):
    """(gram, columns, reduced): `lagrange` on the Gram of
    s*(u*u' + |d|*v*v') + t*(u*v' + v*u')*sqrt(d) over two integer forms
    (u, v) of (u + v*sqrt(d)) / D, and the reduced forms.  That is
    D^2 * sum_sigma sigma(x)sigma(y)^* / R_sigma for s = 1/R_1 + 1/R_2 and
    t = 1/R_1 - 1/R_2; s = 1, t = 0 is the trace form.  t = 0 at equal
    radii and at the complex place."""
    (u0, v0), (u1, v1) = forms
    gram = tuple((s * (x[0] * y[0] + abs(d) * x[1] * y[1]), t * (x[0] * y[1] + x[1] * y[0]))
                 for x, y in ((forms[0], forms[0]), (forms[0], forms[1]), (forms[1], forms[1])))
    gram, cols = lagrange(gram, d)
    return gram, cols, tuple((m * u0 + k * u1, m * v0 + k * v1) for m, k in cols)


def box_form(ideal: FracIdeal, radii):
    """(gram, columns, reduced, k, D): `reduce_forms` on k times the form
    sum_sigma sigma(x) sigma(y)^* / R_sigma of the box of `box_count`'s radii,
    R_sigma = rho_sigma^2 at the real embeddings or R at the complex place
    (the form 2*Re(x y^*) / R), over the ideal's HNF rows, integer forms
    (u, v) of (u + v*sqrt(d)) / D for D its den; it is at most 2 on the box."""
    k = len(radii)  # 1/R_sigma = (q/p)^k for rho_sigma = p/q, or R = p/q at the complex place
    (n1, e1), (n2, e2) = ((r.denominator ** k, r.numerator ** k) for r in (radii * 2)[:2])
    a, b, e = n1 * e2, n2 * e1, e1 * e2  # s, t = (a + b) / e, (a - b) / e
    g = math.gcd(a + b, a - b, e)
    gram, cols, reduced = reduce_forms(ideal.field.d, ideal.rows, (a + b) // g, (a - b) // g)
    return gram, cols, reduced, e // g * ideal.den ** 2, ideal.den


def lattice_gram(form, d: int) -> tuple[list[list[int]], int]:
    """(m, den): the Gram of a `box_form` over its k on its reduced basis, as
    integers in lowest terms: exact when t = 0 (equal radii, or the complex place),
    else each entry (x + y*sqrt(d)) / k rounded to nearest on 2^-s, s >= 0 least
    with A * 2^s >= 2^64 (A the first entry), so within 2^-s-1 <= A * 2^-65.  It
    stays positive definite: a reduced form has |2B| <= A <= C, so det >= 3AC/4,
    and errors e < A/4 keep A - e > 0 and lower det by at most e(2A + C) <= 3Ce < 3AC/4."""
    gram, _, _, k, _ = form
    if any(y for _, y in gram):
        (a, ay), _, _ = gram
        # A >= 1/(2ak), as A*conj(A)*k^2 = a^2 - ay^2*d >= 1: floor(A*2^s) has >= 65 bits
        s = _GRAM_BITS + 1 + k.bit_length() + a.bit_length()
        s = max(s + _GRAM_BITS + 1 - _floor_surd(a << s, ay << s, d, k).bit_length(), 0)
        gram = [(_floor_surd((x << s + 1) + k, y << s + 1, d, 2 * k), 0) for x, y in gram]
        k = 1 << s
    g = math.gcd(*(x for x, _ in gram), k)
    a, b, c = (x // g for x, _ in gram)
    return [[a, b], [b, c]], k // g


def box_count(ideal, radii, budget: int = enumeration.DEFAULT_BUDGET) -> int:
    """#{x in the ideal : |sigma(x)| <= rho_sigma} at both real embeddings
    (radii (rho_1, rho_2)), or with Nr(x) <= R at the complex place (radii
    (R,)), exact.  Over Q the ideal is a rational q > 0 and radii (rho,)."""
    if not isinstance(ideal, FracIdeal):
        return 2 * math.floor(radii[0] / ideal) + 1
    return count_rows(box_form(ideal, radii), radii, ideal.field.d, budget)


def count_rows(form, radii, d: int, budget: int) -> int:
    """The points x = s*r0 + t*r1 of the box on the reduced basis of its own
    `box_form`, summed as row widths: the box lies in A*s^2 + 2*B*s*t + C*t^2
    <= 2k, so |t| <= sqrt(2k*A / (AC - B^2)), whatever the ratio of the radii.
    Each row's s-range is exact; row -t is row t negated."""
    ((a, ay), (b, by), (c, cy)), _, ((p0, q0), (p1, q1)), k, D = form
    # 2k*A / (AC - B^2) = 2k*A*E' / N(E) for E = AC - B^2 = ex + ey*sqrt(d) and
    # its conjugate E'; N(E) > 0, as the conjugate form is positive definite too
    ex, ey = a * c + ay * cy * d - b * b - by * by * d, a * cy + ay * c - 2 * b * by
    t_max = math.isqrt(_floor_surd(2 * k * (a * ex - ay * ey * d), 2 * k * (ay * ex - a * ey),
                                   d, ex * ex - ey * ey * d))
    if t_max >= budget:  # more rows than the budget
        raise enumeration.BudgetExceeded(budget, budget, "box rows")
    if d < 0:  # a rational form: A*s^2 + 2*B*s*t + C*t^2 <= 2k in integers
        def row(t: int) -> tuple[int, int]:
            disc = (b * t) ** 2 - a * (c * t * t - 2 * k)
            r = math.isqrt(max(disc, 0))
            return (-((b * t + r) // a), (r - b * t) // a) if disc >= 0 else (1, 0)
    else:
        # |s*alpha + t*beta| <= rho*D for alpha, beta the images of r0, r1 at
        # sqrt(d) -> g*sqrt(d); over n = alpha*conj(alpha) and rho = i/j the
        # two ends (+-i*D - t*j*beta) / (j*alpha) are (P + Q*sqrt(d)) / (j*|n|)
        n = p0 * p0 - d * q0 * q0
        h = 1 if n > 0 else -1
        strips = [(h * i * D * p0, -g * h * i * D * q0, h * j * (d * q0 * q1 - p0 * p1),
                   g * h * j * (p1 * q0 - p0 * q1), j * abs(n))
                  for g, (i, j) in zip((1, -1), (r.as_integer_ratio() for r in radii))]

        def row(t: int) -> tuple[int, int]:
            # ceil(min) = min(ceil) and floor(max) = max(floor) of the ends
            ends = [[(t * P1 + e * P0, t * Q1 + e * Q0, M) for e in (1, -1)]
                    for P0, Q0, P1, Q1, M in strips]
            return (max(min(-_floor_surd(-P, -Q, d, M) for P, Q, M in s) for s in ends),
                    min(max(_floor_surd(P, Q, d, M) for P, Q, M in s) for s in ends))
    found = 0
    for t in range(t_max + 1):
        lo, hi = row(t)
        found += max(hi - lo + 1, 0) * (2 if t else 1)
        if found > budget:
            raise enumeration.BudgetExceeded(budget, budget, "box points")
    return found

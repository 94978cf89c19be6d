"""Shared generators for the test suite.

Everything random is driven by explicit random.Random instances so the
suite is deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from alk.arakelov import make_bundle
from alk.numfield import FracIdeal, QuadField


def random_posdef_gram(rng: random.Random, n: int, shift: int = 3):
    """A^T A + shift*I over the integers, as Fractions."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [Fraction(sum(a[k][i] * a[k][j] for k in range(n)) + (shift if i == j else 0))
         for j in range(n)]
        for i in range(n)
    ]


def random_nonzero_elem(rng: random.Random, F: QuadField, span: int = 3):
    while True:
        x = F.elem(Fraction(rng.randint(-span, span)),
                   Fraction(rng.randint(-span, span)))
        if not x.is_zero():
            return x


def random_principal_bundle(rng: random.Random, F: QuadField):
    """Principal-ideal Hermitian line bundle with modest radii."""
    g = random_nonzero_elem(rng, F)
    ideal = FracIdeal.from_gens(F, [g])
    r1 = Fraction(rng.randint(1, 6), rng.randint(1, 2))
    r2 = r1 if not F.is_real else Fraction(rng.randint(1, 6), rng.randint(1, 2))
    return make_bundle(F, ideal, (r1, r2))


def random_gl2_zp(rng: random.Random, p: int):
    """Random 2x2 integer matrix with unit determinant mod p."""
    from alk.intarith import valuation

    while True:
        m = [[Fraction(rng.randint(-p * p, p * p)) for _ in range(2)]
             for _ in range(2)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 0 and valuation(det, p) == 0:
            return m


def random_invertible(rng: random.Random, n: int, span: int = 3):
    from alk.ratlinalg import mat_det

    while True:
        m = [[Fraction(rng.randint(-span, span)) for _ in range(n)]
             for _ in range(n)]
        if mat_det([row[:] for row in m]) != 0:
            return m


def gauss_jordan(a):
    """(det, inverse or None) of a square matrix by plain Gauss-Jordan
    elimination over any field-like entries (int and Fraction taken as
    Fractions, NFElem, complex), with the first nonzero pivot of each
    column: the oracle for ratlinalg's fraction-free elimination and for
    the closed-form inverses of the package, which inverts nothing but
    rational matrices."""
    n = len(a)
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    one = a[0][0] ** 0
    aug = [row + [one if i == j else one * 0 for j in range(n)] for i, row in enumerate(a)]
    det = one
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col] == 0), None)
        if piv is None:
            return one * 0, None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        p = aug[col][col]
        det = det * p
        inv_p = one / p
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col] == 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def random_tower(rng: random.Random):
    """A quartic tower F(sqrt(base * mu^2)), or None when the radicand is
    zero or a square in F.  delta * mu^2 keeps the square class of
    Nr(delta); d + b sqrt(d) with d - b^2 a square is cyclic, and b = 0
    marks a field with no such datum, so all three Galois types occur."""
    from alk.numfield import make_quad_field, make_tower

    d, b = rng.choice(((2, 1), (5, 1), (5, 2), (10, 3), (13, 2), (-1, 0), (3, 0),
                       (-7, 0), (6, 0)))
    F = make_quad_field(d)
    base = rng.choice((F.elem(d, b),
                       F.elem(rng.randint(-9, 9), rng.randint(-9, 9)),
                       F.elem(rng.randint(-9, 9))))
    mu = F.elem(rng.randint(-2, 2), rng.randint(-2, 2)) / rng.randint(1, 3)
    try:
        return make_tower(F, base * mu * mu)
    except ValueError:
        return None


def within_seconds(seconds: int, fn):
    """fn(), or TimeoutError once it has run for the given seconds, so that
    a regression to a hang fails instead of stalling the suite."""
    import signal

    def stop(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def closure_mul(x, y, delta):
    """Product in F(u, v), u^2 = delta and v^2 = conj(delta), of elements
    given by their F-coordinates on (1, u, v, uv): the reference for the
    structure constants of the Kummer closure."""
    from alk.numfield import conj

    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    bar = conj(delta)
    return (x0 * y0 + x1 * y1 * delta + x2 * y2 * bar + x3 * y3 * delta.norm(),
            x0 * y1 + x1 * y0 + (x2 * y3 + x3 * y2) * bar,
            x0 * y2 + x2 * y0 + (x1 * y3 + x3 * y1) * delta,
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1)


def eta_closure(tower):
    """(L, sqrt(d), u, v) for a dihedral tower K = F(u), u^2 = delta, with L
    on the power basis of eta = u + 2v: the degree-8 construction that the
    Kummer closure replaced, kept as its oracle.

    L = F(u, v) with v^2 = conj(delta) is generated by eta, whose
    conjugates +-u +- 2v and +-v +- 2u are distinct.  One exact elimination
    over the basis sqrt(d)^i u^j v^k gives eta^8 and the coordinates of
    sqrt(d), u and v in the power basis of eta."""
    from alk.nfpoly import NumberField
    from alk.ratlinalg import mat_inv, mat_vec, transpose

    delta, F = tower.delta, tower.base
    zero, one = F.elem(0), F.elem(1)
    eta = (zero, one, F.elem(2), zero)
    powers = [(one, zero, zero, zero)]
    for _ in range(8):
        powers.append(closure_mul(powers[-1], eta, delta))

    def coords(x):
        return [c for q in x for c in q.coeffs]

    inv = mat_inv(transpose([coords(p) for p in powers[:8]]))
    eta8, sqrt_d, u, v = (mat_vec(inv, coords(x)) for x in (
        powers[8], (F.elem(0, 1), zero, zero, zero), (zero, one, zero, zero),
        (zero, zero, one, zero)))
    L = NumberField(tuple(-c for c in eta8) + (Fraction(1),))
    return L, L.elem(sqrt_d), L.elem(u), L.elem(v)

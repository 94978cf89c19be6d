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

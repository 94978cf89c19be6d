"""NFElem against plain Fraction polynomial arithmetic.

The reference multiplies schoolbook and reduces by long division over
Fraction coefficient lists, composes by Horner's rule, and takes traces
and norms of the multiplication matrix it builds itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from alk import quartics
from alk.nfpoly import NFElem, NumberField
from alk.numfield import make_quad_field, make_tower


# ---------------------------------------------------------------------------
# reference arithmetic on coefficient lists (low degree first)


def ref_mod(a, m):
    """Remainder of a by the monic m, padded to length deg m."""
    a, n = list(a), len(m) - 1
    while len(a) > n:
        top = a.pop()
        for i in range(n):
            a[len(a) - n + i] -= top * m[i]
    return a + [Fraction(0)] * (n - len(a))


def ref_mul(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_mod(out, m)


def ref_compose(a, c, m):
    """a(c(x)) mod m by Horner's rule."""
    out = [Fraction(0)]
    for coeff in reversed(a):
        out = ref_mul(out, c, m)
        out[0] += coeff
    return ref_mod(out, m)


def ref_mult_matrix(a, m):
    n = len(m) - 1
    cols = [ref_mul(a, [Fraction(int(i == j)) for i in range(n)], m) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ref_det(a):
    n, total = len(a), Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(sign)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


# ---------------------------------------------------------------------------
# fields: (min_poly, conjugation polynomials or None)


def _fields():
    F = make_quad_field(3)
    rational = make_tower(F, F.elem(Fraction(1, 2), Fraction(1, 3)))
    towers = {
        "zeta5": quartics.zeta5_tower(),
        "gaussian13": quartics.gaussian_period_tower(13),
        "biquadratic23": quartics.biquadratic_tower(2, 3),
        "dihedral211": quartics.dihedral_tower(2, 1, 1),
        "nonintegral": rational,
    }
    return {name: (tuple(t.theta_min_poly), t.conj_polys) for name, t in towers.items()}


FIELDS = _fields()


def test_nonintegral_field_is_covered():
    m, _ = FIELDS["nonintegral"]
    assert any(c.denominator != 1 for c in m)


def _rand_coeffs(rng, n, span=9):
    return [Fraction(rng.randint(-span, span), rng.randint(1, 6))
            if rng.random() < 0.8 else Fraction(0) for _ in range(n)]


def _is_canonical(x: NFElem) -> bool:
    from math import gcd

    return x.den > 0 and gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_match_reference(name):
    m, _ = FIELDS[name]
    K, n = NumberField(m), len(m) - 1
    rng = random.Random(7001)
    for _ in range(25):
        a, b = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
        x, y = K.elem(a), K.elem(b)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        k = rng.randint(-5, 5)
        cases = {
            "add": (x + y, [s + t for s, t in zip(a, b)]),
            "sub": (x - y, [s - t for s, t in zip(a, b)]),
            "neg": (-x, [-s for s in a]),
            "mul": (x * y, ref_mul(a, b, m)),
            "mul_int": (x * k, [s * k for s in a]),
            "rmul_int": (k * x, [s * k for s in a]),
            "mul_frac": (x * q, [s * q for s in a]),
            "rmul_frac": (q * x, [s * q for s in a]),
            "add_int": (x + k, [a[0] + k] + a[1:]),
            "rsub_frac": (q - x, [q - a[0]] + [-s for s in a[1:]]),
            "pow3": (x ** 3, ref_mul(ref_mul(a, a, m), a, m)),
            "pow0": (x ** 0, ref_mod([Fraction(1)], m)),
        }
        for op, (got, want) in cases.items():
            assert isinstance(got, NFElem) and _is_canonical(got), op
            assert list(got.coeffs) == want, op
        assert x.trace() == sum(ref_mult_matrix(a, m)[i][i] for i in range(n))
        assert x.norm() == ref_det(ref_mult_matrix(a, m))
        assert x.mult_matrix() == ref_mult_matrix(a, m)
        long_input = _rand_coeffs(rng, 3 * n)
        assert list(K.elem(long_input).coeffs) == ref_mod(long_input, m)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_division_and_inverse_match_reference(name):
    m, _ = FIELDS[name]
    K, n = NumberField(m), len(m) - 1
    rng = random.Random(7002)
    one = ref_mod([Fraction(1)], m)
    for _ in range(15):
        a, b = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
        if not any(b):
            continue
        x, y = K.elem(a), K.elem(b)
        inv = y.inverse()
        assert ref_mul(list(inv.coeffs), b, m) == one
        assert ref_mul(list((x / y).coeffs), b, m) == ref_mod(a, m)
        assert ref_mul(list((3 / y).coeffs), b, m) == ref_mod([Fraction(3)], m)
        assert list((y ** -2).coeffs) == list((inv * inv).coeffs)
        k = rng.choice([-4, -1, 2, 7])
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert list((x / k).coeffs) == [s / k for s in a]
        assert list((x / q).coeffs) == [s / q for s in a]
    with pytest.raises(ZeroDivisionError):
        K.elem([0]).inverse()
    with pytest.raises(ZeroDivisionError):
        K.one() / 0


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_apply_conj_matches_composition(name):
    m, conj_polys = FIELDS[name]
    K, n = NumberField(m), len(m) - 1
    rng = random.Random(7003)
    # automorphisms where the tower has them, arbitrary polynomials otherwise:
    # x -> a(c(x)) mod m is well defined for any c
    polys = list(conj_polys or []) + [tuple(_rand_coeffs(rng, n, 3)) for _ in range(2)]
    for c in polys:
        for _ in range(10):
            a = _rand_coeffs(rng, n)
            got = K.elem(a).apply_conj(c)
            assert _is_canonical(got)
            assert list(got.coeffs) == ref_compose(a, list(c), m)
    if conj_polys:
        # automorphisms are ring maps
        for c in conj_polys:
            x, y = K.elem(_rand_coeffs(rng, n)), K.elem(_rand_coeffs(rng, n))
            assert (x * y).apply_conj(c) == x.apply_conj(c) * y.apply_conj(c)


def test_canonical_form_equality_and_hash():
    m, _ = FIELDS["nonintegral"]
    K = NumberField(m)
    half = K.elem([Fraction(1, 2)])
    pairs = [
        (K.elem([Fraction(2, 4)]), half),
        (K.elem([Fraction(3, 6), 0, 0, 0]), half),
        (K.elem([1]) * Fraction(2, 4), half),
        (K.elem([2]) / 4, half),
        (K.elem([Fraction(1, 3), Fraction(2, 6)]) * 3, K.elem([1, 1])),
        (K.elem([Fraction(1, 2), Fraction(1, 2)]) + K.elem([Fraction(1, 2), Fraction(-1, 2)]),
         K.one()),
        (K.gen - K.gen, K.elem([0])),
    ]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert (got.num, got.den) == (want.num, want.den)
        assert _is_canonical(got)
    assert half == Fraction(1, 2) and half != Fraction(1, 3) and half != 0
    assert K.elem([0]) == 0 and K.one() == 1
    assert K.elem([0]).den == 1
    assert K.gen != Fraction(0) and K.gen != K.one()
    # the same value in a different field is a different element
    other = NumberField(FIELDS["zeta5"][0])
    assert other.elem([1, 2]) != K.elem([1, 2])


def test_elements_of_different_fields_do_not_mix():
    sqrt2 = NumberField((-2, 0, 1)).gen
    sqrt3 = NumberField((-3, 0, 1)).gen
    theta = NumberField(FIELDS["zeta5"][0]).gen
    for x, y in ((sqrt2, sqrt3), (sqrt2, theta), (theta, sqrt2)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError, match="different fields"):
                op()
        assert x != y
    # equal minimal polynomials are the same field, built twice
    assert sqrt2 * NumberField((Fraction(-2), 0, 1)).gen == 2

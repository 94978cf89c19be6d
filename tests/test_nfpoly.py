"""NFElem against plain Fraction arithmetic.

On a power basis the reference multiplies schoolbook and reduces by long
division over Fraction coefficient lists, and composes by Horner's rule.
On a Kummer basis it multiplies F-coordinates on (1, u, v, uv) by
conftest.closure_mul.  Traces and norms are taken of the multiplication
matrix the reference builds itself.
"""

import random
from fractions import Fraction

import pytest

from alk import quartics
from alk.git4 import regular_embedding
from alk.nfpoly import Automorphism, NFElem, NumberField
from alk.numfield import make_quad_field, make_tower
from conftest import closure_mul, eta_closure, gauss_jordan


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


def ref_kummer_mul(a, b, squares):
    """a * b on the Kummer basis sqrt(d)^s u^j v^k (index s + 2j + 4k) of
    F(u[, v]), u^2 = p + q sqrt(d) for squares = ((d, 0), (p, q), ...),
    through F-coordinates on (1, u, v, uv)."""
    F, n = make_quad_field(int(squares[0][0])), len(a)
    delta = F.elem(*squares[1])

    def f_coords(x):
        x = list(x) + [Fraction(0)] * (8 - n)
        return [F.elem(x[2 * k], x[2 * k + 1]) for k in range(4)]

    prod = closure_mul(f_coords(a), f_coords(b), delta)
    return [c for q in prod for c in q.coeffs][:n]


def ref_product(K):
    """The reference product on K's basis, as a function of two coordinate
    lists."""
    if K.min_poly is not None:
        return lambda a, b: ref_mul(a, b, K.min_poly)
    return lambda a, b: ref_kummer_mul(a, b, K.squares)


def ref_mult_matrix(a, mul, n):
    cols = [mul(a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ref_det(a):
    """By plain Gauss-Jordan elimination over Fractions: the Leibniz sum has
    40,320 terms in degree 8."""
    return gauss_jordan(a)[0]


# ---------------------------------------------------------------------------
# fields: theta's power basis of each tower, the Kummer closure of each
# tower, a Kummer field whose squares are not integral, and the dihedral
# closure on the power basis of eta = u + 2v, as it was built before


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
    out = {}
    for name, t in towers.items():
        out[name] = NumberField(t.theta_min_poly)
        out[name + "_kummer"] = regular_embedding(t).closure
    out["dihedral211_closure"] = eta_closure(towers["dihedral211"])[0]
    half, third = Fraction(1, 2), Fraction(1, 3)
    out["fractional_kummer"] = NumberField(squares=((3, 0), (half, third), (half, -third)))
    return out


FIELDS = _fields()
EMBEDDINGS = {name: regular_embedding(t) for name, t in (
    ("zeta5", quartics.zeta5_tower()), ("gaussian13", quartics.gaussian_period_tower(13)),
    ("biquadratic23", quartics.biquadratic_tower(2, 3)),
    ("dihedral211", quartics.dihedral_tower(2, 1, 1)))}


def test_nonintegral_field_is_covered():
    assert any(c.denominator != 1 for c in FIELDS["nonintegral"].min_poly)
    assert FIELDS["fractional_kummer"]._table[2] != 1
    # scaling u makes the structure constants of every closure integral
    assert all(FIELDS[name + "_kummer"]._table[2] == 1 for name in
               ("zeta5", "gaussian13", "biquadratic23", "dihedral211", "nonintegral"))


def test_galois_fields_carry_their_automorphisms():
    assert FIELDS["dihedral211_closure"].degree == FIELDS["dihedral211_kummer"].degree == 8
    assert FIELDS["zeta5_kummer"].degree == 4 and FIELDS["zeta5_kummer"].min_poly is None
    for name, emb in EMBEDDINGS.items():
        count = 8 if name == "dihedral211" else 4
        assert len(emb.automorphisms) == len(set(emb.galois_image)) == count


def _rand_coeffs(rng, n, span=9):
    return [Fraction(rng.randint(-span, span), rng.randint(1, 6))
            if rng.random() < 0.8 else Fraction(0) for _ in range(n)]


def _is_canonical(x: NFElem) -> bool:
    from math import gcd

    return x.den > 0 and gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_match_reference(name):
    K = FIELDS[name]
    n, mul = K.degree, ref_product(K)
    rng = random.Random(7001)
    for _ in range(25):
        a, b = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
        x, y = K.elem(a), K.elem(b)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        k = rng.randint(-5, 5)
        one = [Fraction(1)] + [Fraction(0)] * (n - 1)
        cases = {
            "add": (x + y, [s + t for s, t in zip(a, b)]),
            "sub": (x - y, [s - t for s, t in zip(a, b)]),
            "neg": (-x, [-s for s in a]),
            "mul": (x * y, mul(a, b)),
            "mul_int": (x * k, [s * k for s in a]),
            "rmul_int": (k * x, [s * k for s in a]),
            "mul_frac": (x * q, [s * q for s in a]),
            "rmul_frac": (q * x, [s * q for s in a]),
            "add_int": (x + k, [a[0] + k] + a[1:]),
            "rsub_frac": (q - x, [q - a[0]] + [-s for s in a[1:]]),
            "pow3": (x ** 3, mul(mul(a, a), a)),
            "pow0": (x ** 0, one),
        }
        for op, (got, want) in cases.items():
            assert isinstance(got, NFElem) and _is_canonical(got), op
            assert list(got.coeffs) == want, op
        matrix = ref_mult_matrix(a, mul, n)
        assert x.trace() == sum(matrix[i][i] for i in range(n))
        assert x.norm() == ref_det(matrix)
        assert x.mult_matrix() == matrix
        long_input = _rand_coeffs(rng, 3 * n)
        if K.min_poly is not None:
            assert list(K.elem(long_input).coeffs) == ref_mod(long_input, K.min_poly)
        else:
            with pytest.raises(ValueError, match="coordinates for a field of degree"):
                K.elem(long_input)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_division_and_inverse_match_reference(name):
    K = FIELDS[name]
    n, mul = K.degree, ref_product(K)
    rng = random.Random(7002)
    one = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(15):
        a, b = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
        if not any(b):
            continue
        x, y = K.elem(a), K.elem(b)
        inv = y.inverse()
        assert mul(list(inv.coeffs), b) == one
        assert mul(list((x / y).coeffs), b) == a
        assert mul(list((3 / y).coeffs), b) == [3 * c for c in one]
        assert list((y ** -2).coeffs) == list((inv * inv).coeffs)
        k = rng.choice([-4, -1, 2, 7])
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert list((x / k).coeffs) == [s / k for s in a]
        assert list((x / q).coeffs) == [s / q for s in a]
    with pytest.raises(ZeroDivisionError):
        K.elem([0]).inverse()
    with pytest.raises(ZeroDivisionError):
        K.one() / 0


@pytest.mark.parametrize("name", sorted(n for n in FIELDS if FIELDS[n].min_poly is not None))
def test_automorphism_from_power_basis_images_is_composition(name):
    """Sending x^i to c^i is x -> a(c(x)) mod m for any c; on the Galois
    fields some c are automorphisms."""
    K = FIELDS[name]
    n, m = K.degree, K.min_poly
    rng = random.Random(7003)
    for _ in range(3):
        c = _rand_coeffs(rng, n, 3)
        tau = Automorphism(K, [K.elem(c) ** i for i in range(n)])
        for _ in range(10):
            a = _rand_coeffs(rng, n)
            got = tau(K.elem(a))
            assert _is_canonical(got)
            assert list(got.coeffs) == ref_compose(a, c, m)


def conj_in(L, x):
    """conj(x) for x = a + b sqrt(d) in the Kummer field L."""
    assert not any(x.num[2:])
    return L.elem([x.coeffs[0], -x.coeffs[1]])


@pytest.mark.parametrize("name", sorted(EMBEDDINGS))
def test_closure_automorphisms_are_ring_maps_from_generator_images(name):
    """Each automorphism of a Kummer closure sends sqrt(d), u and v to
    +-sqrt(d) and +-u, +-v (or +-v, +-u with sqrt(d) negated, where v is
    a basis element or, in an abelian closure, an F-multiple of u), sends
    each basis element to the product of its generators' images, and is a
    ring map; on the dihedral closure it is a signed permutation."""
    emb = EMBEDDINGS[name]
    L = emb.closure
    n = L.degree
    gens = [L.elem([int(i == 1 << b) for i in range(n)]) for b in range(len(L.squares))]
    sqrt_d, u = gens[0], gens[1]
    # the roots are alpha +- u/c and conj(alpha) +- v/c
    r = emb.g[1]
    v = (r[2] - r[3]) / (r[0] - r[1]).coeffs[2]
    assert (r[0] - r[1]) / (r[0] - r[1]).coeffs[2] == u and v * v == conj_in(L, u * u)
    if n == 8:
        assert v == gens[2]
    rng = random.Random(7004)
    for tau in emb.automorphisms:
        e = 1 if tau(sqrt_d) == sqrt_d else -1
        assert tau(sqrt_d) == e * sqrt_d
        x, y = (u, v) if e == 1 else (v, u)
        assert tau(u) in (x, -x) and tau(v) in (y, -y)
        for i in range(n):
            want = L.one()
            for b, g in enumerate(gens):
                if i >> b & 1:
                    want = want * tau(g)
            assert tau(L.elem([int(j == i) for j in range(n)])) == want
        for _ in range(5):
            x, y = L.elem(_rand_coeffs(rng, n)), L.elem(_rand_coeffs(rng, n))
            assert tau(x * y) == tau(x) * tau(y) and tau(x + y) == tau(x) + tau(y)
        if n == 8:
            assert tau._den == 1 and all(len(cols) == 1 and coeffs[0] in (1, -1)
                                         for cols, coeffs in tau._rows)


def test_canonical_form_equality_and_hash():
    K = FIELDS["nonintegral"]
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
    other = FIELDS["zeta5"]
    assert other.elem([1, 2]) != K.elem([1, 2])
    # and so is the same coordinate vector on a Kummer basis
    kummer = FIELDS["zeta5_kummer"]
    assert kummer.elem([1, 2]) != other.elem([1, 2]) and kummer.elem(3) != other.elem(3)
    assert kummer.elem([1, 2]) == NumberField(squares=kummer.squares).elem([1, 2])


def test_elements_of_different_fields_do_not_mix():
    sqrt2 = NumberField((-2, 0, 1)).gen
    sqrt3 = NumberField((-3, 0, 1)).gen
    theta = FIELDS["zeta5"].gen
    for x, y in ((sqrt2, sqrt3), (sqrt2, theta), (theta, sqrt2)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError, match="different fields"):
                op()
        assert x != y
    # equal minimal polynomials are the same field, built twice
    assert sqrt2 * NumberField((Fraction(-2), 0, 1)).gen == 2

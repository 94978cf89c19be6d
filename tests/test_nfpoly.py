"""NFElem against plain Fraction arithmetic.

Every field is on a Kummer basis: the quadratic fields Q(sqrt d), each
tower's K = F(u), the Galois closures of git4, and a field whose squares
are not integral.  The reference multiplies F-coordinates on (1, u, v, uv)
by conftest.closure_mul.  Traces, norms and inverses are read from the
multiplication matrix the reference builds itself, by gauss_jordan.  The
power basis of theta (or of eta = u + 2v on the dihedral closure) enters
as conftest's reference field, through the tower's P and P^-1.
"""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from alk import nfpoly, quartics
from alk.git4 import regular_embedding
from alk.nfpoly import Automorphism, NFElem, NumberField
from alk.numfield import make_quad_field, make_tower
from conftest import (PowerBasisField, closure_mul, eta_closure, gauss_jordan, is_canonical,
                      rand_coeffs, rand_ints)


# ---------------------------------------------------------------------------
# reference arithmetic on coordinate lists


def ref_kummer_mul(a, b, squares):
    """a * b on the Kummer basis sqrt(d)^s u^j v^k (index s + 2j + 4k) of
    F(u[, v]), u^2 = p + q sqrt(d) for squares = ((d, 0), (p, q), ...),
    through F-coordinates on (1, u, v, uv)."""
    F, n = make_quad_field(int(squares[0][0])), len(a)
    delta = F.elem(*squares[1]) if len(squares) > 1 else F.elem(1)

    def f_coords(x):
        x = list(x) + [Fraction(0)] * (8 - n)
        return [F.elem(x[2 * k], x[2 * k + 1]) for k in range(4)]

    prod = closure_mul(f_coords(a), f_coords(b), delta)
    return [c for q in prod for c in q.coeffs][:n]


def ref_product(K):
    """The reference product on K's basis, as a function of two coordinate
    lists."""
    return lambda a, b: ref_kummer_mul(a, b, K.squares)


def ref_mult_matrix(a, mul, n):
    cols = [mul(a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# fields: K of each tower and its Galois closure (K itself when K/Q is
# abelian), quadratic fields, and a Kummer field whose squares are not
# integral


def _towers():
    F = make_quad_field(3)
    return {
        "zeta5": quartics.zeta5_tower(),
        "gaussian13": quartics.gaussian_period_tower(13),
        "biquadratic23": quartics.biquadratic_tower(2, 3),
        "dihedral211": quartics.dihedral_tower(2, 1, 1),
        "nonintegral": make_tower(F, F.elem(Fraction(1, 2), Fraction(1, 3))),
    }


TOWERS = _towers()


def _fields():
    out = {}
    for name, t in TOWERS.items():
        out[name] = t.nf
        out[name + "_kummer"] = regular_embedding(t).closure
    for d in (2, 5, -7):
        out[f"sqrt{d}"] = make_quad_field(d).nf
    half, third = Fraction(1, 2), Fraction(1, 3)
    out["fractional_kummer"] = NumberField(squares=((3, 0), (half, third), (half, -third)))
    return out


FIELDS = _fields()
EMBEDDINGS = {name: regular_embedding(TOWERS[name]) for name in
              ("zeta5", "gaussian13", "biquadratic23", "dihedral211")}


def test_number_field_has_one_basis():
    """A field is its Kummer squares and nothing else: no polynomial, no
    matrix route, and no linear algebra behind the arithmetic; from
    ratlinalg it takes only `rational`, which reads a scalar, and
    `integer_matrix`, which clears denominators."""
    assert [f.name for f in dataclasses.fields(NumberField)] == ["squares"]
    for name in ("min_poly", "_monic", "gen", "_traces"):
        assert not hasattr(NumberField, name), name
    for name in ("_int_mult_matrix", "mult_matrix"):
        assert not hasattr(NFElem, name), name
    tree = ast.parse(Path(nfpoly.__file__).read_text())
    assert [alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and n.module and "ratlinalg" in n.module for alias in n.names] == ["integer_matrix",
                                                                       "rational"]


def test_nonintegral_field_is_covered():
    assert TOWERS["nonintegral"].delta.den != 1
    assert FIELDS["fractional_kummer"]._table[2] != 1
    # scaling u makes the structure constants of every K and closure integral
    assert all(FIELDS[name]._table[2] == FIELDS[name + "_kummer"]._table[2] == 1
               for name in TOWERS)


def test_fields_of_a_tower_share_their_leading_basis():
    """F c K c L embed by zero-padding coordinates: products and inverses
    of elements of a subfield have zero coordinates beyond it."""
    rng = random.Random(7000)
    for name, t in TOWERS.items():
        F, K, L = t.base.nf, FIELDS[name], FIELDS[name + "_kummer"]
        assert L.squares[:2] == K.squares and K.squares[:1] == F.squares
        for small, big in ((F, K), (K, L), (F, L)):
            for _ in range(5):
                a, b = rand_coeffs(rng, small.degree), rand_coeffs(rng, small.degree)
                x, y = small.elem(a), small.elem(b)
                assert big.elem(a) * big.elem(b) == big.elem((x * y).coeffs)
                if any(b):
                    assert big.elem(b).inverse() == big.elem(y.inverse().coeffs)
                    assert big.elem(b).norm() == y.norm() ** (big.degree // small.degree)


def test_galois_fields_carry_their_automorphisms():
    assert FIELDS["dihedral211_kummer"].degree == 8 and FIELDS["dihedral211"].degree == 4
    assert FIELDS["zeta5_kummer"].degree == 4 and FIELDS["zeta5_kummer"] is FIELDS["zeta5"]
    for name, emb in EMBEDDINGS.items():
        count = 8 if name == "dihedral211" else 4
        assert len(emb.automorphisms) == len(set(emb.galois_image)) == count


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_match_reference(name):
    K = FIELDS[name]
    n, mul = K.degree, ref_product(K)
    rng = random.Random(7001)
    for _ in range(25):
        a, b = rand_coeffs(rng, n), rand_coeffs(rng, n)
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
            assert isinstance(got, NFElem) and is_canonical(got), op
            assert list(got.coeffs) == want, op
        # trace, norm and inverse from the reference multiplication matrix
        matrix = ref_mult_matrix(a, mul, n)
        det, inv = gauss_jordan(matrix)
        assert x.trace() == sum(matrix[i][i] for i in range(n))
        assert x.norm() == det
        if any(a):
            assert list(x.inverse().coeffs) == [row[0] for row in inv]
        with pytest.raises(ValueError, match="coordinates for a field of degree"):
            K.elem(rand_coeffs(rng, n + 1))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_division_and_inverse_match_reference(name):
    K = FIELDS[name]
    n, mul = K.degree, ref_product(K)
    rng = random.Random(7002)
    one = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(15):
        a, b = rand_coeffs(rng, n), rand_coeffs(rng, n)
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


def _power_bases():
    """name -> (field, P, P^-1, reference field): theta's powers in each
    tower's K, and those of eta = (u + 2v)/c in the dihedral closure,
    whose reference field is eta_closure's."""
    out = {name: (t.nf, t.theta_powers, t.theta_basis_inverse,
                  PowerBasisField(t.theta_min_poly)) for name, t in TOWERS.items()}
    t, L = TOWERS["dihedral211"], FIELDS["dihedral211_kummer"]
    eta = L.elem([0, 0, 1, 0, 2]) / t.u_scale
    P = [eta ** i for i in range(8)]
    out["dihedral211_closure"] = (L, P, gauss_jordan([x.coeffs for x in P])[1],
                                  eta_closure(t)[0])
    return out


POWER_BASES = _power_bases()


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_automorphism_from_power_basis_images_is_composition(name):
    """Sending theta^i to c^i is x = a(theta) -> a(c) for any c; on the
    Galois fields some c are automorphisms.  The map is built on the
    Kummer basis, e_j going to the image of its power-basis coordinates
    (row j of P^-1), and checked against composition in the reference
    field of theta's minimal polynomial."""
    K, P, P_inv, ref = POWER_BASES[name]
    n = K.degree
    rng = random.Random(7003)

    def from_power(coords):
        return sum((c * p for c, p in zip(coords, P)), K.elem(0))

    for _ in range(3):
        c = rand_coeffs(rng, n, 3)
        powers = [from_power(c) ** i for i in range(n)]
        tau = Automorphism(K, [sum((r * p for r, p in zip(row, powers)), K.elem(0))
                               for row in P_inv])
        for _ in range(10):
            a = rand_coeffs(rng, n)
            got = tau(from_power(a))
            assert is_canonical(got)
            want = sum((x * ref.elem(c) ** i for i, x in enumerate(a)), ref.elem(0))
            assert [sum(x * row[i] for x, row in zip(got.coeffs, P_inv)) for i in range(n)] \
                == list(want.coeffs)


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
            x, y = L.elem(rand_coeffs(rng, n)), L.elem(rand_coeffs(rng, n))
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
        (K.elem([0, 1]) - K.elem([0, 1]), K.elem([0])),
    ]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert (got.num, got.den) == (want.num, want.den)
        assert is_canonical(got)
    assert half == Fraction(1, 2) and half != Fraction(1, 3) and half != 0
    assert K.elem([0]) == 0 and K.one() == 1
    assert K.elem([0]).den == 1
    assert K.elem([0, 1]) != Fraction(0) and K.elem([0, 1]) != K.one()
    # the same coordinate vector in a different field is a different element
    other = FIELDS["zeta5"]
    assert other.elem([1, 2]) != K.elem([1, 2]) and other.elem(3) != K.elem(3)
    # and so is the same value in a subfield
    assert FIELDS["sqrt5"].elem([1, 2]) != other.elem([1, 2])
    assert other.elem([1, 2]) == NumberField(squares=other.squares).elem([1, 2])


def test_elements_of_different_fields_do_not_mix():
    sqrt2 = NumberField(((2, 0),)).elem([0, 1])
    sqrt3 = NumberField(((3, 0),)).elem([0, 1])
    u = FIELDS["zeta5"].elem([0, 0, 1])
    for x, y in ((sqrt2, sqrt3), (sqrt2, u), (u, sqrt2)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError, match="different fields"):
                op()
        assert x != y
    # equal squares are the same field, built twice
    assert sqrt2 * NumberField(((Fraction(2), 0),)).elem([0, 1]) == 2


# ---------------------------------------------------------------------------
# generated kernels against loops written here


def schoolbook_product(K, a, b):
    """a*b on K's Kummer basis from the squares alone: e_i e_j is e_(i^j)
    times the product s = p + q w_0 of the squares w_b^2 at the set bits of
    i&j, and e_t w_0 = d^(t&1) e_(t^1)."""
    n, d = K.degree, K.squares[0][0]
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            p, q = Fraction(1), Fraction(0)
            for bit, (sp, sq) in enumerate(K.squares):
                if (i & j) >> bit & 1:
                    p, q = p * sp + d * q * sq, p * sq + q * sp
            t, c = i ^ j, a[i] * b[j]
            out[t] += c * p
            out[t ^ 1] += c * q * (d if t & 1 else 1)
    return out


def dot_product_image(images, x):
    """sum_j x_j images[j], coordinate by coordinate."""
    return [sum((c * y.coeffs[i] for c, y in zip(x.coeffs, images)), Fraction(0))
            for i in range(len(x.num))]


def _kernel_fields():
    """name -> (field, the embedding whose automorphisms act on it, or None)."""
    F3 = make_quad_field(3)
    long_dihedral = regular_embedding(quartics.dihedral_tower(2, Fraction("1e-400"), Fraction("1e400")))
    out = {f"sqrt{d}": (make_quad_field(d).nf, None) for d in (2, 5, -7)}
    out["zeta5"] = (TOWERS["zeta5"].nf, EMBEDDINGS["zeta5"])
    out["gaussian13"] = (TOWERS["gaussian13"].nf, EMBEDDINGS["gaussian13"])
    out["biquadratic23"] = (TOWERS["biquadratic23"].nf, EMBEDDINGS["biquadratic23"])
    out["dihedral211_closure"] = (EMBEDDINGS["dihedral211"].closure, EMBEDDINGS["dihedral211"])
    out["nonintegral"] = (make_tower(F3, F3.elem(Fraction(1, 2), Fraction(1, 3))).nf, None)
    out["fractional_kummer"] = (FIELDS["fractional_kummer"], None)
    out["long_dihedral_closure"] = (long_dihedral.closure, long_dihedral)
    return out


KERNEL_FIELDS = _kernel_fields()


def _basis_images(L, tau):
    """The images of L's basis under tau, as products of the images of the
    generators, the way an automorphism of a Kummer field is built."""
    images = [L.one()]
    for b in range(len(L.squares)):
        y = tau(L.elem([int(i == 1 << b) for i in range(L.degree)]))
        images += [x * y for x in images]
    return images


def test_kernel_fields_cover_a_fractional_table_and_long_constants():
    assert KERNEL_FIELDS["fractional_kummer"][0]._table[2] != 1
    L = KERNEL_FIELDS["long_dihedral_closure"][0]
    assert L.degree == 8 and max(abs(c) for row in L._table[1] for _, c in row) > 10 ** 399


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_generated_product_matches_schoolbook(name):
    """The generated `_mul_ints` gives the schoolbook product times the
    table denominator, on integer vectors with zero and long entries, and
    every product it feeds is in lowest terms."""
    K = KERNEL_FIELDS[name][0]
    n, den = K.degree, K._table[2]
    rng = random.Random(7005)
    for digits in (1, 3, 40):
        for _ in range(12):
            a, b = rand_ints(rng, n, digits), rand_ints(rng, n, digits)
            got = K._mul_ints(a, b)
            assert all(type(c) is int for c in got)
            assert [Fraction(c, den) for c in got] == schoolbook_product(K, a, b)
            x, y = K.elem(a) / rng.randint(1, 9), K.elem(b)
            xy = x * y
            assert is_canonical(xy)
            assert list(xy.coeffs) == schoolbook_product(K, x.coeffs, y.coeffs)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_generated_automorphism_matches_dot_product(name):
    """Each generated automorphism is the dot product with the images of
    the basis it was built from, in lowest terms: for the closure
    automorphisms of a tower, for a signed permutation (the shortcut
    path), for twice one (an integer matrix that needs the gcd) and for
    maps with fractional images.  The
    automorphisms of a dihedral closure and of a biquadratic tower with a
    rational radicand take the shortcut and call no reduction."""
    K, emb = KERNEL_FIELDS[name]
    n = K.degree
    rng = random.Random(7006)
    basis = [K.elem([int(i == j) for i in range(n)]) for j in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signed = [rng.choice((1, -1)) * basis[j] for j in perm]
    maps = [signed, [2 * x for x in signed], [x / 2 + basis[0] / 3 for x in signed],
            [K.elem(rand_coeffs(rng, n)) for _ in range(n)]]
    maps = [(Automorphism(K, images), images) for images in maps]
    if emb is not None:
        maps += [(tau, _basis_images(K, tau)) for tau in emb.automorphisms]
    for tau, images in maps:
        for digits in (1, 40):
            for _ in range(8):
                x = K.elem(rand_ints(rng, n, digits)) / rng.randint(1, 10 ** digits)
                got = tau(x)
                assert got.field is K and is_canonical(got)
                assert list(got.coeffs) == dot_product_image(images, x)
    if emb is not None:
        # on a cyclic field the automorphisms of order 4 need the reduction
        shortcuts = ["canonical" not in tau._kernel.__code__.co_freevars
                     for tau in emb.automorphisms]
        assert all(shortcuts) == (n == 8 or name == "biquadratic23"), name


def test_constants_beyond_the_int_string_limit():
    """u^2 = c^2 delta for zeta5's delta = -10 + 2 sqrt 5 and c = 10^2200:
    the square has more than 4,300 digits, the default limit on the digits
    of an int rendered as text, so kernels that wrote their constants into
    their source could not be built.  The field is cyclic, and its
    automorphism sqrt5 -> -sqrt5, u -> v = 4 c^2 sqrt5 / u (uv = 4 c^2 sqrt5,
    as N(c^2 delta) = 5 (4 c^2)^2) has long entries and a denominator."""
    c = 10 ** 2200
    K = NumberField(((5, 0), (-10 * c * c, 2 * c * c)))
    assert abs(K.squares[1][0]) > 10 ** 4300
    sqrt5, u = K.elem([0, 1]), K.elem([0, 0, 1])
    v = 4 * c * c * sqrt5 / u
    assert v * v == K.elem([-10 * c * c, -2 * c * c])
    tau = Automorphism(K, [K.one(), -sqrt5, v, -sqrt5 * v])
    assert tau._den != 1
    rng = random.Random(7007)
    for _ in range(5):
        x, y = K.elem(rand_coeffs(rng, 4)), K.elem(rand_coeffs(rng, 4))
        xy = x * y
        assert list(xy.coeffs) == schoolbook_product(K, x.coeffs, y.coeffs)
        if not x.is_zero():
            assert x * x.inverse() == 1
        assert tau(xy) == tau(x) * tau(y) and is_canonical(tau(x))
        assert tau(tau(tau(tau(x)))) == x

import math
import random
from fractions import Fraction

import pytest
from conftest import (
    is_square_in_field_reference,
    norm_square_class_reference,
    power_basis_disc_reference,
    random_tower,
    trace_form_det,
    within_seconds,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alk import quartics
from alk.intarith import factorize, is_prime, sqrt_mod, valuation
from alk.localgeom import different_and_orders
from alk.numfield import (
    FieldTower,
    FracIdeal,
    Place,
    QuadField,
    _hensel_root,
    conj,
    content,
    embeddings,
    finite_places,
    finite_valuation,
    gen_coords,
    is_square_in_field,
    make_quad_field,
    make_tower,
    norm_square_class,
    prime_ideal,
    splitting_type,
)

FIELDS = [-1, 2, 5, -3]


def test_field_rejects_non_squarefree():
    with pytest.raises(ValueError):
        QuadField(4)
    with pytest.raises(ValueError):
        QuadField(12)
    with pytest.raises(ValueError):
        QuadField(1)


def test_disc_convention():
    assert QuadField(-1).disc == 4
    assert QuadField(2).disc == 8
    assert QuadField(5).disc == 5
    assert QuadField(-3).disc == 3


def test_omega_satisfies_its_minimal_polynomial():
    for d in FIELDS:
        F = QuadField(d)
        w = F.omega
        c0, c1 = F.gen_min_poly()
        assert (w * w + w * c1 + c0).is_zero()


def test_splitting_types_small_primes():
    # quadratic residue computations done by hand
    assert splitting_type(QuadField(-1), 2) == "ramified"
    assert splitting_type(QuadField(-1), 5) == "split"
    assert splitting_type(QuadField(-1), 3) == "inert"
    assert splitting_type(QuadField(2), 2) == "ramified"
    assert splitting_type(QuadField(2), 7) == "split"
    assert splitting_type(QuadField(2), 3) == "inert"
    assert splitting_type(QuadField(5), 5) == "ramified"
    assert splitting_type(QuadField(5), 11) == "split"
    assert splitting_type(QuadField(5), 2) == "inert"


def test_split_valuations_add_up_to_norm_valuation():
    rng = random.Random(7)
    for d, p in ((-1, 5), (5, 11), (2, 7), (-7, 11)):
        F = QuadField(d)
        v1, v2 = finite_places(F, p)
        for _ in range(25):
            x = F.elem(Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                       Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            if x.is_zero():
                continue
            from alk.intarith import valuation

            assert finite_valuation(x, v1) + finite_valuation(x, v2) \
                == valuation(x.norm(), p)


def _valuation_by_ideals(x, place, bound):
    """v_P(x) from ideal arithmetic alone: the largest g with x in
    P^g * conj(P)^(-bound) * (1/D), D the prime-to-p part of x's
    denominator.  Valid while both valuations over p lie in [-bound, bound]."""
    from alk.intarith import valuation

    p = place.p
    P = prime_ideal(place)
    den = x.den
    D = den // p ** valuation(den, p)
    # P * conj(P) = (p), so P^g * conj(P)^(-bound) = P^(g + bound) / p^bound
    scale = Fraction(1, p ** bound * D)

    def contains(g):
        return (P ** (g + bound)).scale(scale).contains(x)

    lo, hi = -bound, bound + 1  # contains(lo) holds, contains(hi) fails
    assert contains(lo) and not contains(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if contains(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("d", [-1, 2, 5, -3, -15, 13, -7, 17])
def test_hensel_root_is_the_least_root_of_a_search(d):
    """Tonelli-Shanks answers as the search over range(p) it replaced, for
    every split p < 2000, p = 2 included where it splits."""
    F = QuadField(d)
    c0, c1 = map(int, F.gen_min_poly())
    split = [p for p in range(2, 2000) if is_prime(p) and splitting_type(F, p) == "split"]
    assert len(split) > 130
    for p in split:
        want = next(x for x in range(p) if (x * x + c1 * x + c0) % p == 0)
        assert _hensel_root(d, p) == want, p
    with pytest.raises(ValueError, match="not a square mod 7"):
        sqrt_mod(3, 7)


def test_content_at_a_large_split_prime_answers():
    # the norm's prime 22673594243 splits; a search over range(p) for the
    # root mod p ran for more than 60 s
    F = QuadField(-15)
    x = F.elem(10 ** 7 + 19, 10 ** 6 + 3)
    p = 22673594243
    assert p in factorize(x.norm().numerator) and splitting_type(F, p) == "split"
    assert abs(within_seconds(5, lambda: content(F, x)) - 1) < 1e-9

def test_split_valuation_matches_an_ideal_membership_oracle():
    """Valuations past 100, denominators with p and other primes, both
    split places, and p = 2 split, against the FracIdeal oracle."""
    from alk.intarith import valuation

    rng = random.Random(23)
    bound, deep = 140, 0
    for d, p in ((17, 2), (41, 2), (-7, 2), (-1, 5), (2, 7), (5, 11), (-2, 3), (13, 3)):
        F = QuadField(d)
        places = finite_places(F, p)
        c0, c1 = F.gen_min_poly()
        roots = [v.hensel_root() for v in places]
        assert all(0 <= r < p and (r * r + c1 * r + c0) % p == 0 for r in roots)
        assert roots[0] != roots[1]
        assert prime_ideal(places[0]).conj() == prime_ideal(places[1])
        # y = omega - r' with r' = r mod p and Nr(y) = f(r') of valuation 1
        # lies in the prime of r, to the first power, and not in its conjugate
        r = next(r for r in (roots[0], roots[0] + p) if (r * r + c1 * r + c0) % p ** 2)
        y = F.omega - r
        for _ in range(6):
            c = F.elem(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
            den = rng.choice((1, 3, 5, 7, 12)) * p ** rng.randint(0, 4)
            a = rng.choice((rng.randint(0, 20), rng.randint(95, 120)))
            x = (y ** a * conj(y) ** rng.randint(0, 20)
                 * c * Fraction(p ** rng.randint(0, 3), den))
            if rng.random() < 0.3:
                x = x.inverse()
            vals = [finite_valuation(x, v) for v in places]
            assert vals == [_valuation_by_ideals(x, v, bound) for v in places], (d, p, x)
            assert sum(vals) == valuation(x.norm(), p)
            deep += max(map(abs, vals)) >= 100
        for q in (Fraction(p ** 5, 3), Fraction(7, p ** 2)):
            x = F.elem(q)
            assert [finite_valuation(x, v) for v in places] \
                == [_valuation_by_ideals(x, v, bound) for v in places]
    assert deep >= 10


def test_prime_ideal_norms():
    for d, p in ((-1, 5), (-1, 3), (-1, 2), (5, 5), (2, 3)):
        F = QuadField(d)
        for place in finite_places(F, p):
            ideal = prime_ideal(place)
            assert ideal.is_ideal()
            want = p * p if place.tag == "inert" else p
            assert ideal.norm() == want


def test_ideal_arithmetic_norm_multiplicative_and_inverse():
    rng = random.Random(3)
    for d in FIELDS:
        F = QuadField(d)
        for _ in range(10):
            g1 = F.elem(rng.randint(-4, 4), rng.randint(-4, 4))
            g2 = F.elem(rng.randint(-4, 4), rng.randint(-4, 4))
            if g1.is_zero() or g2.is_zero():
                continue
            i1 = FracIdeal.from_gens(F, [g1])
            i2 = FracIdeal.from_gens(F, [g2])
            assert (i1 * i2).norm() == i1.norm() * i2.norm()
            assert i1 * i1.inverse() == FracIdeal.maximal_order(F)


def _product_by_generators(a, b):
    """The ideal product through the generators' field arithmetic."""
    return FracIdeal.from_gens(a.field, [x * y for x in a.basis_elems()
                                         for y in b.basis_elems()])


def _power_by_generators(a, n):
    out = FracIdeal.maximal_order(a.field)
    base = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        out = _product_by_generators(out, base)
    return out


def test_integer_ideal_product_matches_the_generator_route():
    rng = random.Random(5)
    cases = 0
    for d in (-15, -11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 10, 13, 17):
        F = QuadField(d)
        ideals = []
        for p in (2, 3, 5, 7, 11, 13):
            for place in finite_places(F, p):
                P = prime_ideal(place)
                for e in range(-6, 7):
                    got, want = P ** e, _power_by_generators(P, e)
                    assert (got.rows, got.den) == (want.rows, want.den), (d, place, e)
                    cases += 1
                ideals.append(P)
        for _ in range(12):
            g = F.elem(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            if not g.is_zero():
                ideals.append(FracIdeal.from_gens(F, [g]))
        for _ in range(40):
            a, b = rng.choice(ideals), rng.choice(ideals)
            got, want = a * b, _product_by_generators(a, b)
            assert (got.rows, got.den) == (want.rows, want.den), (d, a, b)
            cases += 1
    assert cases > 1000


# entries small, moderate and near +-10^40, with zero rows and rows (0, y)
_HNF_ENTRY = st.one_of(st.integers(-6, 6), st.integers(-10 ** 6, 10 ** 6),
                       st.integers(10 ** 40 - 10 ** 3, 10 ** 40 + 10 ** 3),
                       st.integers(-10 ** 40 - 10 ** 3, -10 ** 40 + 10 ** 3))
_HNF_ROW = st.one_of(st.tuples(_HNF_ENTRY, _HNF_ENTRY), st.tuples(st.just(0), _HNF_ENTRY),
                     st.just((0, 0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_HNF_ROW, min_size=1, max_size=8))
def test_hnf_of_rows_matches_an_independent_oracle(rows):
    # the HNF ((a, b), (0, c)) of a rank-2 Z-module M: a generates the first
    # coordinates, a*c = [Z^2 : M] is the gcd of the 2x2 minors, each row is
    # an integer combination of the two HNF rows, and 0 <= b < c
    minors = math.gcd(*(x * w - y * z for i, (x, y) in enumerate(rows) for z, w in rows[i + 1:]))
    F = QuadField(2)
    if minors == 0:
        with pytest.raises(ValueError):
            FracIdeal._from_rows(F, rows, 1)
        return
    ideal = FracIdeal._from_rows(F, rows, 1)
    (a, b), (zero, c) = ideal.rows
    assert ideal.den == 1 and zero == 0
    assert a == math.gcd(*(x for x, _ in rows))
    assert a * c == minors
    assert 0 <= b < c
    assert all(x % a == 0 and (y - x // a * b) % c == 0 for x, y in rows)


def test_powers_form_no_wasted_products(monkeypatch):
    # by squaring from P itself: no product with O_F, no square past the top bit
    P = prime_ideal(finite_places(QuadField(2), 7)[0])
    calls = []
    from_rows = FracIdeal._from_rows
    monkeypatch.setattr(FracIdeal, "_from_rows",
                        staticmethod(lambda *args: calls.append(args) or from_rows(*args)))
    for e, formed in ((1, 0), (2, 1), (24, 5), (-1, 1), (-24, 6)):
        calls.clear()
        P ** e
        assert len(calls) == formed, e


def _repeated_powers(P, top):
    """{e: P^e} for |e| <= top, by repeated multiplication by P and by P^-1."""
    out = {0: FracIdeal.maximal_order(P.field)}
    for step, sign in ((P, 1), (P.inverse(), -1)):
        for k in range(1, top + 1):
            out[sign * k] = out[sign * (k - 1)] * step
    return out


def test_large_powers_equal_repeated_products():
    # P^+-24 at the split places over 7 in Q(sqrt 2) and over 5 in Q(i),
    # where the HNF of a power once took over 400 us; then e = -30..30 at a
    # split, an inert and a ramified prime of five fields
    def check(P, exponents):
        powers = _repeated_powers(P, max(map(abs, exponents)))
        for e in exponents:
            got = P ** e
            assert got == powers[e], (P, e)
            assert got.norm() == P.norm() ** e, (P, e)

    def run():
        for d, p in ((2, 7), (-1, 5)):
            for place in finite_places(QuadField(d), p):
                check(prime_ideal(place), (24, -24))
        for d in (-1, 2, 5, -3, 13):
            F = QuadField(d)
            for tag in ("split", "inert", "ramified"):
                p = next(p for p in (2, 3, 5, 7, 11, 13, 17) if splitting_type(F, p) == tag)
                for place in finite_places(F, p):
                    check(prime_ideal(place), range(-30, 31))

    within_seconds(20, run)


def test_ideal_contains_its_basis():
    F = QuadField(-1)
    ideal = FracIdeal.from_gens(F, [F.elem(2, 1)])
    for b in ideal.basis_elems():
        assert ideal.contains(b)
        assert ideal.contains(b * F.omega)


def test_trace_form_of_integral_basis_gives_signed_discriminant():
    for d in (-1, 2, 5, -3, 13, -7):
        F = QuadField(d)
        det = trace_form_det((F.elem(1), F.omega))
        signed = d if d % 4 == 1 else 4 * d
        assert det == signed


def test_square_detection_in_field():
    F = QuadField(2)
    x = F.elem(1, 1)
    assert is_square_in_field(x * x)
    assert is_square_in_field(F.elem(2))  # sqrt(2)^2
    assert not is_square_in_field(F.elem(3))
    assert not is_square_in_field(F.elem(1, 1))


def test_norm_square_class_worked_values():
    # Nr = 4 = 2^2; Nr = 2 = 1^2 * 2; Nr = 7; a rational delta has Nr = delta^2
    assert norm_square_class(QuadField(5).elem(3, 1)) == ("biquadratic", 2)
    assert norm_square_class(QuadField(2).elem(2, 1)) == ("cyclic", 1)
    assert norm_square_class(QuadField(2).elem(3, 1)) == ("dihedral", None)
    assert norm_square_class(QuadField(3).elem(-5)) == ("biquadratic", 5)
    zeta5_delta = QuadField(5).elem(Fraction(-5, 2), Fraction(1, 2))
    kind, r = norm_square_class(zeta5_delta)
    assert kind == "cyclic" and 5 * r * r == zeta5_delta.norm()


# the integer square tests against their Fraction routes (conftest)

SQUAREFREE = (-103, -15, -7, -3, -2, -1, 2, 3, 5, 6, 10, 13, 101)
# d + b sqrt(d) with d - b^2 a square has Nr = d (d - b^2), a square times d
CYCLIC_BASES = ((2, 1), (5, 1), (5, 2), (10, 3), (13, 2))
BIG = 10 ** 40
big_rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
rationals = st.one_of(big_rationals, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@st.composite
def radicands(draw):
    """(kind, F, delta) with delta = y^2 q c for y in F and a rational q:
    biquadratic for c = 1, cyclic for c a cyclic base, and any class (mostly
    dihedral) for a drawn c, with 40-digit numerators and denominators."""
    kind = draw(st.sampled_from(("biquadratic", "cyclic", "any")))
    if kind == "cyclic":
        d, b = draw(st.sampled_from(CYCLIC_BASES))
        F = QuadField(d)
        c = F.elem(d, b)
    else:
        F = QuadField(draw(st.sampled_from(SQUAREFREE)))
        c = F.elem(1) if kind == "biquadratic" else F.elem(draw(rationals), draw(rationals))
    y = F.elem(draw(rationals), draw(st.one_of(st.just(0), rationals)))
    q = draw(rationals)
    assume(not (y.is_zero() or c.is_zero()) and q != 0)
    return kind, F, y * y * q * c


@settings(max_examples=400, deadline=None)
@given(radicands())
@example(("any", QuadField(2), QuadField(2).elem(3, 1)))
def test_norm_square_class_equals_the_fraction_route(data):
    kind, _, delta = data
    got = norm_square_class(delta)
    assert got == norm_square_class_reference(delta)
    assert kind == "any" or got[0] == kind


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SQUAREFREE), rationals, st.one_of(st.just(0), rationals),
       st.sampled_from(((1, 0), (-1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1))))
def test_square_test_equals_the_fraction_route(d, a, b, m):
    # y^2 is a square, and y^2 m is one exactly when m is
    F = QuadField(d)
    y, m = F.elem(a, b), F.elem(*m)
    assume(not y.is_zero())
    assert is_square_in_field(y * y) and is_square_in_field_reference(y * y)
    assert is_square_in_field(y * y * m) == is_square_in_field_reference(y * y * m) \
        == is_square_in_field_reference(m)


@settings(max_examples=300, deadline=None)
@given(radicands(), rationals, rationals.filter(lambda b: b.denominator != 1))
def test_power_basis_disc_equals_the_fraction_route(data, a1, b1):
    # alpha with a fractional sqrt(d) part, so E > 1 in D^6 E^8
    _, F, delta = data
    try:
        tower = FieldTower(F, delta, F.elem(a1, b1))
    except ValueError:
        assume(False)
    assert quartics.power_basis_disc(tower) == power_basis_disc_reference(tower)


def test_tower_rejects_square_delta():
    F = QuadField(2)
    with pytest.raises(ValueError):
        make_tower(F, F.elem(2))
    with pytest.raises(ValueError):
        make_tower(None, Fraction(9))


def _quartic_is_reducible(coeffs) -> bool:
    """Whether the monic quartic c0 + c1 x + c2 x^2 + c3 x^3 + x^4 factors
    over Q, decided independently of alk.

    x -> y/D, with the least such D, clears the denominators to a monic
    integer quartic q.  By Gauss's lemma q factors over Q iff it has an
    integer root or a monic integer quadratic factor y^2 + u y + v.  Every
    root of q lies below Cauchy's bound R (q's leading term outweighs the
    others beyond R), so a root r has |r| < R, and a factor has |u| < 2R
    and |v| < R^2, v | q0.
    """
    coeffs = [Fraction(c) for c in coeffs[:4]]
    D = next(D for D in range(1, math.lcm(*(c.denominator for c in coeffs)) + 1)
             if all((c * D ** (4 - i)).denominator == 1 for i, c in enumerate(coeffs)))
    q0, q1, q2, q3 = (int(c * D ** (4 - i)) for i, c in enumerate(coeffs))
    R = 1
    while R ** 4 <= abs(q3) * R ** 3 + abs(q2) * R ** 2 + abs(q1) * R + abs(q0):
        R += 1
    if any(r ** 4 + q3 * r ** 3 + q2 * r ** 2 + q1 * r + q0 == 0 for r in range(-R, R + 1)):
        return True
    for v in range(-R * R, R * R + 1):
        if v == 0 or q0 % v:
            continue
        for u in range(-2 * R, 2 * R + 1):
            # q = (y^2 + u y + v)(y^2 + s y + t) + remainder
            s = q3 - u
            t = q2 - v - u * s
            if q1 == u * t + v * s and q0 == v * t:
                return True
    return False


SQUAREFREE_D = [d for d in range(-30, 31)
                if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5))]


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(SQUAREFREE_D),
    kind=st.sampled_from(["general", "rational", "square"]),
    an=st.integers(-6, 6), ad=st.integers(1, 3),
    bn=st.integers(-6, 6), bd=st.integers(1, 3),
)
@example(d=3, kind="rational", an=3, ad=1, bn=0, bd=1)  # e = d
@example(d=3, kind="square", an=0, ad=1, bn=2, bd=1)  # e = d * 2^2
@example(d=3, kind="square", an=2, ad=1, bn=0, bd=1)  # e = 2^2
@example(d=2, kind="general", an=0, ad=1, bn=0, bd=1)  # delta = 0
def test_make_tower_rejects_exactly_the_reducible_quartics(d, kind, an, ad, bn, bd):
    """The tower's nonsquare test is the only check on make_tower's data;
    it must raise exactly when the tower quartic is reducible."""
    F = QuadField(d)
    a, b = Fraction(an, ad), Fraction(bn, bd)
    if kind == "general":
        delta = F.elem(a, b)
    elif kind == "rational":
        delta = F.elem(a)
    else:
        delta = F.elem(a, b) ** 2
    if delta.b != 0:
        quartic = (delta.norm(), 0, -delta.trace(), 0, 1)
    else:  # theta = sqrt(d) + sqrt(e)
        quartic = ((d - delta.a) ** 2, 0, -2 * (d + delta.a), 0, 1)
    reducible = _quartic_is_reducible(quartic)
    if kind == "square":
        assert reducible
    try:
        tower = make_tower(F, delta)
    except ValueError:
        assert reducible
        return
    assert not reducible
    assert tower.theta_min_poly == quartic


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([-1, 2, 5, -3, 3, -7]),
    an=st.integers(-9, 9), ad=st.integers(1, 4),
    bn=st.integers(-9, 9), bd=st.integers(1, 4),
)
def test_product_of_absolute_values_is_one(d, an, ad, bn, bd):
    """Product formula over all places, floating only at infinity."""
    F = make_quad_field(d)
    x = F.elem(Fraction(an, ad), Fraction(bn, bd))
    if x.is_zero():
        return
    assert abs(content(F, x) - 1.0) < 1e-9


def test_place_residue_sizes():
    F = QuadField(5)
    assert Place(F, "finite", 2, "inert").residue_size == 4
    assert Place(F, "finite", 5, "ramified").residue_size == 5
    assert finite_places(F, 11)[0].residue_size == 11


# ---------------------------------------------------------------------------
# quadratic field elements (NFElems on x^2 - d) against plain rational pairs


def _ref_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_norm(x, d):
    return x[0] * x[0] - d * x[1] * x[1]


def _ref_inverse(x, d):
    n = _ref_norm(x, d)
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, e, d):
    if e < 0:
        x, e = _ref_inverse(x, d), -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = _ref_mul(out, x, d)
    return out


def _coords(x):
    return (x.a, x.b)


def _canonical(x):
    (an, bn), den = x.num, x.den
    return den > 0 and math.gcd(an, bn, den) == 1 and \
        (x.a, x.b) == (Fraction(an, den), Fraction(bn, den))


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([-15, -11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 10, 13, 17]),
    xs=st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)), min_size=4, max_size=4),
    e=st.integers(-4, 4),
)
def test_quadratic_elements_match_rational_pairs(d, xs, e):
    F = QuadField(d)
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = xs
    rx = (Fraction(p0, q0), Fraction(p1, q1))
    ry = (Fraction(p2, q2), Fraction(p3, q3))
    x, y = F.elem(*rx), F.elem(*ry)
    assert _canonical(x) and _coords(x) == rx
    assert _coords(x + y) == (rx[0] + ry[0], rx[1] + ry[1])
    assert _coords(x - y) == (rx[0] - ry[0], rx[1] - ry[1])
    assert _coords(-x) == (-rx[0], -rx[1])
    assert _coords(x * y) == _ref_mul(rx, ry, d)
    assert _coords(conj(x)) == (rx[0], -rx[1])
    # conj flips the sign of the sqrt(d) numerator: an equal element of F,
    # and a ring map
    assert conj(x) == F.elem(rx[0], -rx[1]) and conj(x).field is x.field
    assert conj(x * y) == conj(x) * conj(y) and conj(conj(x)) == x
    assert x.norm() == _ref_norm(rx, d) and type(x.norm()) is Fraction
    assert x.trace() == 2 * rx[0] and type(x.trace()) is Fraction
    # x = u + v*omega, with omega = (1 + sqrt d)/2 when d = 1 mod 4
    if d % 4 == 1:
        assert gen_coords(x) == (rx[0] - rx[1], 2 * rx[1])
    else:
        assert gen_coords(x) == rx
    # scalars on both sides
    q = Fraction(p2, q2)
    assert _coords(x * q) == _coords(q * x) == (rx[0] * q, rx[1] * q)
    assert _coords(x + p3) == _coords(p3 + x) == (rx[0] + p3, rx[1])
    assert _coords(p3 - x) == (p3 - rx[0], -rx[1])
    for z in (x + y, x * y, x * q, conj(x), -x, x + p3):
        assert _canonical(z)
    if not x.is_zero():
        assert _coords(x.inverse()) == _ref_inverse(rx, d)
        assert _canonical(x.inverse())
        assert _coords(y / x) == _ref_mul(ry, _ref_inverse(rx, d), d)
        assert _coords(1 / x) == _ref_inverse(rx, d)
        assert _coords(x ** e) == _ref_pow(rx, e, d)
    if q != 0:
        assert _coords(x / q) == (rx[0] / q, rx[1] / q)
    # equality and hashing follow the value, not how it was reached
    same = F.elem(rx[0] * 3, rx[1] * 3) * Fraction(1, 3)
    assert same == x and hash(same) == hash(x)
    assert (x == y) == (rx == ry)
    r = F.elem(rx[0])
    assert r == rx[0] and (r == rx[0] + 1) is False
    assert (x == rx[0]) == (rx[1] == 0)
    if rx[0].denominator == 1:
        assert r == int(rx[0])


def test_quadratic_elements_canonical_denominator():
    F = QuadField(5)
    x = F.elem(Fraction(1, 2), Fraction(1, 2))
    assert (x.num, x.den) == ((1, 1), 2) and x == F.omega
    y = x * 2 - 1  # sqrt(5)
    assert (y.num, y.den) == ((0, 1), 1)
    z = F.elem(Fraction(2, 6), Fraction(-4, 6)).inverse()
    # (1 - 2 sqrt 5) / 3 has norm -19/9, inverse -3 (1 + 2 sqrt 5) / 19
    assert (z.num, z.den) == ((-3, -6), 19)
    assert F.elem(0) == 0 and F.elem(0).den == 1
    assert hash(F.elem(3)) == hash(F.elem(Fraction(6, 2)))
    with pytest.raises(ZeroDivisionError):
        F.elem(0).inverse()
    with pytest.raises(ValueError):
        x * QuadField(-1).elem(1, 1)



@pytest.mark.parametrize("d", (-7, -1, 2, 5, 13))
def test_integer_pairs_build_the_element_of_the_fraction_route(d):
    # elem(a, b) on two ints builds no Fraction; its (num, den) is the one
    # that the same pair given as Fractions gives
    F = QuadField(d)
    for a, b in ((3, -1), (0, 0), (-4, 6), (10 ** 40, -(10 ** 41) - 1)):
        x, y = F.elem(a, b), F.elem(Fraction(a), Fraction(b))
        assert (x.num, x.den) == (y.num, y.den) == ((a, b), 1)
        assert all(type(c) is int for c in x.num)
    assert F.elem(True, False) == F.elem(1)

# (d, a, b) -> the embeddings of a + b*sqrt(d), pinned as floats:
# arakelov.ideal_gram's float Gram at unequal real radii is built from
# these values, so they must not move by a bit
PINNED_EMBEDDINGS = {
    (2, Fraction(1, 3), Fraction(2, 7)): (0.7373943511542176, -0.07072768448755101),
    (5, Fraction(-7, 2), Fraction(3, 2)): (-0.1458980337503153, -6.854101966249685),
    (13, Fraction(1000001, 3), Fraction(-5, 11)): (333332.0277797233, 333335.3055536101),
    (-1, Fraction(1, 3), Fraction(-2, 7)): (0.3333333333333333 - 0.2857142857142857j,
                                            0.3333333333333333 + 0.2857142857142857j),
    (-3, Fraction(5, 2), Fraction(1, 2)): (2.5 + 0.8660254037844386j,
                                           2.5 - 0.8660254037844386j),
    (-7, Fraction(-1, 9), Fraction(22, 7)): (-0.1111111111111111 + 8.315218406203j,
                                             -0.1111111111111111 - 8.315218406203j),
}


def test_embeddings_are_pinned_bit_for_bit():
    for (d, a, b), want in PINNED_EMBEDDINGS.items():
        got = embeddings(QuadField(d).elem(a, b))
        assert got == want, (d, a, b)
        assert all(type(z) is (float if d > 0 else complex) for z in got)


def test_make_tower_rejects_delta_from_another_field():
    with pytest.raises(ValueError):
        make_tower(QuadField(2), QuadField(3).elem(1, 1))
    # the same value as an element of F itself is accepted
    tower = make_tower(QuadField(2), QuadField(2).elem(1, 1))
    assert tower.base.d == 2 and tower.delta == QuadField(2).elem(1, 1)


def _closed_forms(tower):
    """(theta_min_poly, sqrt_d_coords) by the two closed forms for the
    towers of make_tower: theta = sqrt(delta) for delta = a + b sqrt(d)
    with b != 0, where sqrt(d) = (theta^2 - a)/b, and
    theta = sqrt(d) + sqrt(e) for rational delta = e, where
    theta^3 - (3d + e) theta = 2 (e - d) sqrt(d)."""
    d, delta = tower.base.d, tower.delta
    if delta.b != 0:
        assert tower.alpha == 0
        return ((delta.norm(), 0, -delta.trace(), 0, 1),
                (-delta.a / delta.b, 0, 1 / delta.b, 0))
    assert tower.alpha == tower.base.elem(0, 1)
    e = delta.a
    c = 1 / (2 * (e - d))
    return ((d - e) ** 2, 0, -2 * (d + e), 0, 1), (0, -(3 * d + e) * c, 0, c)


def test_derived_tower_data_equals_the_closed_forms():
    towers = [quartics.zeta5_tower(), quartics.sqrt2plus_tower()]
    towers += [quartics.biquadratic_tower(d, e)
               for d, e in ((2, 3), (5, -1), (-1, -3), (3, 7), (-7, 2), (2, 12))]
    towers += [quartics.dihedral_tower(d, a, b)
               for d, a, b in ((2, 1, 1), (5, 1, 1), (-1, 1, 2), (3, Fraction(1, 2), 3))]
    rng = random.Random(53)
    seeded = [t for t in (random_tower(rng) for _ in range(60)) if t is not None]
    assert len(seeded) >= 30
    for tower in towers + seeded:
        mp, sq = _closed_forms(tower)
        assert tower.theta_min_poly == mp and tower.sqrt_d_coords == sq
        assert all(type(c) is Fraction for c in tower.theta_min_poly + tower.sqrt_d_coords)


def test_tower_constructor_refuses_zero_square_and_rational_data():
    F = QuadField(2)
    zero, sqrt2 = F.elem(0), F.elem(0, 1)
    # delta = 0; 2 = sqrt(2)^2 and 3 + 2 sqrt(2) = (1 + sqrt 2)^2 are squares
    # in F; theta = 1 + sqrt(3) lies in a quadratic field
    for delta, alpha in ((zero, sqrt2), (zero, F.elem(1, 1)), (F.elem(2), sqrt2),
                         (F.elem(3, 2), zero), (F.elem(9), sqrt2), (F.elem(3), F.elem(1)),
                         (F.elem(3), zero), (F.elem(3, 1), None), (Fraction(3), sqrt2)):
        with pytest.raises(ValueError):
            FieldTower(F, delta, alpha)
    for delta in (0, 2, 9, F.elem(3, 2), zero):
        with pytest.raises(ValueError):
            make_tower(F, delta)
    for delta in (0, 9, Fraction(4, 9)):
        with pytest.raises(ValueError):
            FieldTower(None, Fraction(delta))
        with pytest.raises(ValueError):
            make_tower(None, delta)
    with pytest.raises(ValueError):
        FieldTower(None, Fraction(3), sqrt2)
    # theta = 1 + sqrt(2) + sqrt(3) is primitive:
    # N((x - 1 - sqrt 2)^2 - 3) = (x^2 - 2x)^2 - 8 (1 - x)^2
    assert FieldTower(F, F.elem(3), F.elem(1, 1)).theta_min_poly == (-8, 16, -4, -4, 1)


# ---------------------------------------------------------------------------
# FracIdeal operations on integer rows against the generator route


def _contains_by_fractions(ideal, x):
    """Membership by solving (u, w) * den = m*(a, b) + n*(0, c) over Q, for
    x = u + w*sqrt(d)."""
    u, w = x.a, x.b
    (a, b), (_, c) = ideal.rows
    m = u * ideal.den / a
    if m.denominator != 1:
        return False
    return ((w * ideal.den - m * b) / c).denominator == 1


def test_ideal_operations_match_the_generator_route():
    rng = random.Random(41)
    cases = 0
    for d in (-15, -11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 10, 13, 17):
        F = QuadField(d)
        omega = F.omega
        for p in (2, 3, 5, 7, 11, 13):
            for place in finite_places(F, p):
                P = prime_ideal(place)
                for e in range(-6, 7):
                    ideal = P ** e
                    basis = ideal.basis_elems()
                    n = ideal.norm()
                    assert ideal.inverse() == FracIdeal.from_gens(
                        F, [conj(x) / n for x in basis])
                    assert ideal.conj() == FracIdeal.from_gens(F, [conj(x) for x in basis])
                    c = F.elem(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    for s in (c, Fraction(rng.randint(1, 9), rng.randint(1, 9)), -2):
                        assert ideal.scale(s) == FracIdeal.from_gens(F, [x * s for x in basis])
                    assert ideal.is_ideal()
                    assert all(_contains_by_fractions(ideal, x * omega) for x in basis)
                    for _ in range(4):
                        x = basis[0] * rng.randint(-5, 5) + basis[1] * rng.randint(-5, 5)
                        y = x + F.elem(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                       Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                        for z in (x, y, x * Fraction(1, p)):
                            assert ideal.contains(z) == _contains_by_fractions(ideal, z)
                    cases += 1
    assert cases > 1300


# d = 1 and 5 mod 8, then d = 2 and 3 mod 4, each of both signs; 3 splits
# in the fields of d = 13, -11, 10 and -2
ROW_FIELDS = (17, -7, 13, -11, 5, -3, 10, -2, 3, -1)


def test_ideal_rows_are_sqrt_d_numerators():
    rng = random.Random(43)
    kinds = set()
    for d in ROW_FIELDS:
        F = QuadField(d)
        omega = F.omega
        c0, c1 = F.gen_min_poly()
        assert omega * omega + omega * c1 + c0 == F.elem(0)
        O = FracIdeal.maximal_order(F)
        assert O == FracIdeal.from_gens(F, [F.elem(1)]) and O.norm() == 1
        assert O.rows == (((1, 1), (0, 2)) if d % 4 == 1 else ((1, 0), (0, 1)))
        # (a + b*sqrt(d)) / den and c*sqrt(d) / den are the basis elements
        for ideal in [O] + [prime_ideal(v) ** e for p in (2, 3, 5)
                            for v in finite_places(F, p) for e in (-2, -1, 1, 3)]:
            (a, b), (_, c) = ideal.rows
            assert ideal.basis_elems() == (F.elem(Fraction(a, ideal.den), Fraction(b, ideal.den)),
                                           F.elem(0, Fraction(c, ideal.den)))
            assert ideal * ideal.inverse() == O
        for p in (2, 3, 5):
            for v in finite_places(F, p):
                kinds.add((d % 8 if d % 4 == 1 else d % 4, d > 0, p, v.tag))
                P = prime_ideal(v)
                assert P.norm() == v.residue_size
                assert P * P.inverse() == O and P.inverse() * P == O
        for _ in range(20):
            g = F.elem(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                       Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            if g.is_zero():
                continue
            ideal = FracIdeal.from_gens(F, [g])
            assert ideal.norm() == abs(g.norm())
            assert ideal.contains(g) and ideal.contains(g * omega)
            assert not ideal.contains(g / 2)
            assert ideal * ideal.inverse() == O
            assert ideal.is_ideal()
    # every splitting type of 2, 3 and 5 over the two signs
    assert {k[2:] for k in kinds} >= {(p, t) for p in (2, 3, 5)
                                      for t in ("split1", "split2", "inert", "ramified")}


def test_non_ideal_modules_are_rejected():
    for d in (-1, 5, 2, -3):
        F = QuadField(d)
        # Z + 2*sqrt(d)*Z is an order, not an O_F-ideal
        module = FracIdeal(F, ((1, 0), (0, 2)), 1)
        assert not module.is_ideal()
        assert module.contains(F.elem(1)) and not module.contains(F.omega)
        assert module != FracIdeal.maximal_order(F)
        assert FracIdeal.maximal_order(F) == FracIdeal.from_gens(F, [F.elem(-1)])
        # a basis that is not the canonical HNF is refused, not compared
        for rows, den in ((((2, 0), (0, 2)), 2), (((1, 3), (0, 2)), 1),
                          (((1, 0), (1, 1)), 1), (((-1, 0), (0, 1)), 1)):
            with pytest.raises(ValueError, match="canonical"):
                FracIdeal(F, rows, den)


def test_factorize_stops_trial_division_at_ten_to_the_six():
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}
    assert factorize(2 ** 5 * 7 * 999983 ** 2) == {2: 5, 7: 1, 999983: 2}
    assert factorize(1000003 * 999983) == {999983: 1, 1000003: 1}
    assert factorize(10 ** 12 + 39) == {10 ** 12 + 39: 1}  # prime, below 1000001^2
    for n in (1000003 ** 2, 2 ** 61 - 1):  # the cofactor may be composite
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            within_seconds(5, lambda: factorize(n))


def test_content_of_an_element_with_a_huge_norm_is_an_error():
    # the exact values of the floats 1/6 and 3/4 are Fractions over 2^55;
    # trial division of the norm ran for more than 8 s
    F = QuadField(-15)
    with pytest.raises(ValueError, match="cannot factor"):
        within_seconds(5, lambda: content(F, F.elem(Fraction(1 / 6), Fraction(3 / 4))))


def test_valuation_needs_a_base_of_at_least_two():
    # p = 1 and p = -1 divide every integer, so the loop never ended; p = 0
    # raised ZeroDivisionError
    for p in (1, -1, 0, -7):
        with pytest.raises(ValueError, match="at least 2"):
            within_seconds(5, lambda: valuation(12, p))
    assert valuation(Fraction(48, 5), 4) == 2  # a residue size base is kept


@pytest.mark.parametrize("p", [4, 1, 0, -3, 15])
def test_places_exist_only_over_primes(p):
    # finite_places(QuadField(-1), 4) returned an inert place at 4
    with pytest.raises(ValueError, match="not a prime"):
        finite_places(QuadField(-1), p)
    with pytest.raises(ValueError, match="not a prime"):
        different_and_orders(5, p)

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alk.boxcount import (
    count_box,
    count_box_naive,
    counting_bound_check,
    make_radius_family,
    norm_of_family,
)
from alk.arakelov import box_points, box_sections, ideal_gram, make_bundle
from alk.enumeration import BudgetExceeded
from alk.numfield import (
    FracIdeal,
    Place,
    QuadField,
    conj,
    finite_places,
    gen_coords,
    make_quad_field,
    prime_ideal,
    splitting_type,
)
from conftest import within_seconds


def test_gaussian_integers_in_small_disc():
    F = make_quad_field(-1)
    fam = make_radius_family(F, [], [Fraction(2)])
    assert count_box(F, fam) == 9
    assert count_box_naive(F, fam) == 9


def test_golden_units_in_unit_box():
    F = make_quad_field(5)
    fam = make_radius_family(F, [], [Fraction(1), Fraction(1)])
    assert count_box(F, fam) == 3
    assert count_box_naive(F, fam) == 3


def test_denominator_at_a_split_place_enlarges_the_count():
    F = make_quad_field(-1)
    v1, _ = finite_places(F, 5)
    fam = make_radius_family(F, [(v1, Fraction(5))], [Fraction(2)])
    got = count_box(F, fam)
    assert got == count_box_naive(F, fam)
    assert got == 37


def test_rational_base_box():
    fam = make_radius_family(None, [], [Fraction(7, 2)])
    assert count_box(None, fam) == 7
    assert count_box_naive(None, fam) == 7


def test_radius_must_lie_in_the_value_group():
    F = make_quad_field(5)
    inert = Place(F, "finite", 2, "inert")  # residue size 4
    with pytest.raises(ValueError):
        make_radius_family(F, [(inert, Fraction(2))], [1, 1])
    make_radius_family(F, [(inert, Fraction(4))], [1, 1])


def test_norm_of_family_multiplies_all_radii():
    F = make_quad_field(-1)
    v1, v2 = finite_places(F, 5)
    fam = make_radius_family(F, [(v1, Fraction(5)), (v2, Fraction(1, 5))],
                             [Fraction(3)])
    assert norm_of_family(fam) == 3


def test_two_counting_routes_agree_on_random_families():
    rng = random.Random(19)
    for d in (-1, 2, 5, -3):
        F = make_quad_field(d)
        for _ in range(8):
            finite = []
            for p in (2, 3, 5):
                if rng.random() < 0.4:
                    place = finite_places(F, p)[0]
                    e = rng.choice([-1, 1])
                    finite.append((place, Fraction(place.residue_size) ** e))
            if F.is_real:
                inf = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))]
            else:
                inf = [Fraction(rng.randint(1, 8))]
            fam = make_radius_family(F, finite, inf)
            assert count_box(F, fam) == count_box_naive(F, fam)


@settings(max_examples=25, deadline=None)
@given(r=st.integers(1, 12))
def test_count_is_odd_and_monotone_in_the_radius(r):
    F = make_quad_field(-1)
    c1 = count_box(F, make_radius_family(F, [], [Fraction(r)]))
    c2 = count_box(F, make_radius_family(F, [], [Fraction(r + 1)]))
    assert c1 % 2 == 1 and c2 % 2 == 1
    assert c1 <= c2


def test_bound_check_reports_hypothesis_violation():
    F = make_quad_field(-1)
    fam = make_radius_family(F, [], [Fraction(1)])
    res = counting_bound_check(F, fam, Fraction(10))  # norm 1 < 10 * disc
    assert res["hypothesis_ok"] is False
    assert res["status"] == "hypothesis_violated"
    assert res["passed"] is None


def test_bound_check_passes_in_hypothesis():
    F = make_quad_field(-1)
    fam = make_radius_family(F, [], [Fraction(8)])
    res = counting_bound_check(F, fam, Fraction(1))  # norm 8 >= disc 4
    assert res["hypothesis_ok"] and res["passed"]
    assert res["count"] <= res["bound"]


# ---------------------------------------------------------------------------
# box_points against a membership test on field elements


def _leq_with_sqrt(rational_part, sqrt_part, d, bound):
    """Exact test of rational_part + sqrt_part*sqrt(d) <= bound (d > 0)."""
    rem = bound - rational_part
    if sqrt_part == 0:
        return rem >= 0
    if sqrt_part > 0:
        return rem >= 0 and sqrt_part * sqrt_part * d <= rem * rem
    return rem >= 0 or sqrt_part * sqrt_part * d >= rem * rem


def _in_box_reference(x, F, radii):
    """|sigma_i(x)| <= rho_i at the real embeddings, Nr(x) <= R at the
    complex place."""
    if F.is_real:
        sq = x * x  # sigma_1(x)^2 = a + b sqrt(d), sigma_2 flips the sign
        return (_leq_with_sqrt(sq.a, sq.b, F.d, radii[0] ** 2)
                and _leq_with_sqrt(sq.a, -sq.b, F.d, radii[1] ** 2))
    return x.norm() <= radii[0]


def _basis_coords(ideal, x):
    """(m, k) with x = m*b0 + k*b1 over the HNF basis of the ideal."""
    u, w = gen_coords(x)
    (a, b), (_, c) = ideal.rows
    m = u * ideal.den / a
    k = (w * ideal.den - m * b) / c
    assert m.denominator == 1 and k.denominator == 1
    return int(m), int(k)


MEMBERSHIP_FIELDS = (5, 13, 17, 2, 3, 6, -3, -7, -11, -15, -1, -2, -5)


def test_box_points_match_the_field_route():
    rng = random.Random(31)
    seen = {"in": 0, "out": 0, "boundary": 0}
    kinds = set()
    for d in MEMBERSHIP_FIELDS:
        F = QuadField(d)
        ideals = [FracIdeal.maximal_order(F)]
        for p in (2, 3, 5, 7):
            kinds.add((F.is_real, d % 4 == 1, splitting_type(F, p)))
            for place in finite_places(F, p):
                for e in (-2, -1, 1, 2):
                    ideals.append(prime_ideal(place) ** e)
        for ideal in ideals:
            b0, b1 = ideal.basis_elems()
            (_, b), (_, c) = ideal.rows
            g = math.gcd(b, c)
            x_rat = b0 * (c // g) - b1 * (b // g)  # the least positive rational
            assert x_rat.b == 0
            q = abs(x_rat.a)
            boxes = []
            if F.is_real:
                # equal and unequal radii, and radii met exactly by the
                # rational points k*x_rat, the only ones with a rational
                # |sigma(x)|
                for _ in range(2):
                    r1 = Fraction(rng.randint(1, 60), rng.randint(1, 9)) * q
                    boxes.append(((r1, r1), []))
                    boxes.append(((r1, Fraction(rng.randint(1, 60), rng.randint(1, 9)) * q), []))
                t = rng.randint(1, 3)
                boxes.append(((t * q, t * q), [x_rat * t]))
                boxes.append(((t * q, 2 * t * q), [x_rat * t, x_rat * -t]))
            else:
                for _ in range(3):
                    boxes.append(((Fraction(rng.randint(1, 200), rng.randint(1, 9)) * q * q,), []))
                # Nr(x) = R on the boundary: any lattice point x, and the
                # units at R = 1 when the ideal is O_F
                x = b0 * rng.randint(-3, 3) + b1 * rng.randint(1, 3)
                boxes.append(((x.norm(),), [x, -x]))
                if ideal == FracIdeal.maximal_order(F):
                    units = [u for u in (F.elem(1), F.elem(0, 1), F.omega, F.omega - 1)
                             if u.norm() == 1]
                    boxes.append(((Fraction(1),), units + [-u for u in units]))
            for radii, boundary in boxes:
                points = list(box_points(ideal, radii))
                assert len(set(points)) == len(points)
                points = set(points)
                for m in range(-3, 4):
                    for k in range(-3, 4):
                        want = _in_box_reference(b0 * m + b1 * k, F, radii)
                        assert ((m, k) in points) == want, (d, ideal, radii, m, k)
                        seen["in" if want else "out"] += 1
                # boundary points are returned, and drop out when any one
                # radius shrinks
                for x in boundary:
                    mk = _basis_coords(ideal, x)
                    assert mk in points, (d, ideal, radii, x)
                    hit = [i for i in range(len(radii))
                           if mk not in box_points(ideal, [r * (1 - Fraction(1, 10 ** 9)) if j == i
                                                           else r for j, r in enumerate(radii)])]
                    assert hit, (d, ideal, radii, x)
                    seen["boundary"] += 1
    assert min(seen.values()) > 300, seen
    # real and imaginary fields, d = 1 mod 4 and not, split, inert and ramified
    assert len(kinds) == 12, kinds


def test_budget_counts_box_points_only():
    # the parent route enumerated an ellipse holding more points than the
    # box, so it raised at these budgets
    for d, rinf, count in ((5, [20, 20], 717), (2, [30, 7], 299)):
        F = QuadField(d)
        fam = make_radius_family(F, [], rinf)
        assert count_box(F, fam, budget=count) == count == count_box_naive(F, fam)
        with pytest.raises(BudgetExceeded):
            count_box(F, fam, budget=count - 1)


def test_needle_thin_box_is_refused_by_the_budget():
    # radii 10^-10 and 10^10 over O_F: billions of rows of the trace-form
    # ellipse, nearly all empty, are not walked
    F = QuadField(5)
    fam = make_radius_family(F, [], [Fraction(1, 10 ** 10), 10 ** 10])
    with pytest.raises(BudgetExceeded):
        within_seconds(5, lambda: count_box(F, fam))


# ---------------------------------------------------------------------------
# the one ideal Gram behind count_box, box_sections and direct_image


def _exact_value(a: Fraction, b: Fraction, d: int, R1, R2) -> Decimal:
    """sigma_1(x)/R1 + sigma_2(x)/R2 for x = a + b*sqrt(d), to 50 digits."""
    dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
    root = Decimal(d).sqrt()
    s, t = 1 / Fraction(R1) + 1 / Fraction(R2), 1 / Fraction(R1) - 1 / Fraction(R2)
    return dec(a * s) + dec(b * t) * root


def test_ideal_gram_matches_the_trace_and_embedding_grams():
    # the Gram on the reduced basis r_j = c_j[0]*b0 + c_j[1]*b1: exact at
    # equal radii and at the complex place, and at unequal real radii each
    # entry within 4 ulp of its exact value, correctly rounded from 50 digits
    rng = random.Random(37)
    kinds, seen = set(), {"equal": 0, "unequal": 0, "complex": 0}
    with localcontext() as ctx:
        ctx.prec = 50
        for d in MEMBERSHIP_FIELDS:
            F = QuadField(d)
            ideals = [FracIdeal.maximal_order(F)]
            for p in (2, 3, 5, 7):
                kinds.add((F.is_real, splitting_type(F, p)))
                for place in finite_places(F, p):
                    ideals += [prime_ideal(place) ** e for e in range(-4, 5) if e]
            for ideal in ideals:
                b = ideal.basis_elems()
                R = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                R2 = R * Fraction(rng.randint(10, 30), rng.randint(1, 9)) ** 2  # > R
                for sq_radii in ([(R,)] if d < 0 else [(R, R), (R, R2), (R2, R)]):
                    got, cols = ideal_gram(ideal, sq_radii)
                    (m0, k0), (m1, k1) = cols
                    assert abs(m0 * k1 - m1 * k0) == 1
                    r = [b[0] * m + b[1] * k for m, k in cols]
                    if d < 0 or sq_radii[0] == sq_radii[1]:
                        # 2*Nr(x)/R = (|sigma(x)|^2 + |conj sigma(x)|^2)/R
                        other = conj if d < 0 else (lambda x: x)
                        want = [[(r[i] * other(r[j])).trace() / R for j in range(2)]
                                for i in range(2)]
                        assert got == want and all(type(x) is Fraction for row in got for x in row)
                        exact = want
                        seen["complex" if d < 0 else "equal"] += 1
                    else:
                        exact = [[_exact_value((r[i] * r[j]).a, (r[i] * r[j]).b, d, *sq_radii)
                                  for j in range(2)] for i in range(2)]
                        for row_g, row_e in zip(got, exact):
                            for g, e in zip(row_g, row_e):
                                w = float(e)
                                assert type(g) is float and abs(g - w) <= 4 * math.ulp(w), \
                                    (d, ideal, sq_radii, g, e)
                        seen["unequal"] += 1
                    # Lagrange-Gauss reduced: |2B| <= A <= C
                    (A, B), (_, C) = exact
                    assert 2 * abs(B) <= A <= C, (d, ideal, sq_radii, exact)
    assert len(kinds) == 6, kinds  # real and imaginary; split, inert, ramified
    assert min(seen.values()) > 100, seen


def test_complex_count_box_equals_the_number_of_box_sections():
    # count_box takes the normalized radius R = rho^2 at the complex place,
    # box_sections the radius rho at each conjugate embedding
    rng = random.Random(41)
    for d in (d for d in MEMBERSHIP_FIELDS if d < 0):
        F = QuadField(d)
        for p in (2, 3, 5):
            for place in finite_places(F, p):
                for e in range(-2, 3):
                    q = place.residue_size
                    rho = Fraction(rng.randint(1, 12), rng.randint(1, 3))
                    fam = make_radius_family(F, [(place, Fraction(q) ** e)], [rho * rho])
                    ideal = FracIdeal.maximal_order(F) * prime_ideal(place) ** (-e)
                    sections = box_sections(make_bundle(F, ideal, (rho, rho)))
                    assert count_box(F, fam) == len(sections) == count_box_naive(F, fam)


def test_skewed_split_ideals_count_exactly():
    # P^-e at a split prime is principal here, (pi^-e), with an HNF basis
    # that grows more skewed with |e|.  With |x|_P <= q^e and Archimedean
    # radius q^(-e/2) the box holds x = pi^-e * y with |Nr(y)| <= 1: y = 0
    # or a unit.  An imaginary field keeps every root of unity; a real one
    # keeps 0 alone, since |sigma_1(x)| = |sigma_2(x)| would make the ideal
    # Galois stable.
    roots = {-1: 4, -2: 2, -3: 6, -7: 2, 2: 0, 3: 0}
    for d, p in ((-1, 5), (-1, 13), (-2, 3), (-3, 7), (-3, 13), (-7, 2), (2, 7), (3, 13)):
        F = QuadField(d)
        place = finite_places(F, p)[0]
        assert splitting_type(F, p) == "split"
        q = place.residue_size
        for e in (-24, -16, -8, 8, 16, 24):
            rho = Fraction(q) ** (-e // 2)
            rinf = [rho * rho] if d < 0 else [rho, rho]
            fam = make_radius_family(F, [(place, Fraction(q) ** e)], rinf)
            bundle = make_bundle(F, prime_ideal(place) ** (-e), (rho, rho))
            want = 1 + roots[d]
            assert count_box(F, fam, budget=1000) == want, (d, p, e)
            assert len(box_sections(bundle, budget=1000)) == want, (d, p, e)


def test_naive_count_is_fast_at_skewed_split_ideals():
    # at d = -1, p = 5 the HNF basis of P^-e grows skewed with |e|; the
    # oracle's coefficient box comes from the reduced basis, so its size
    # follows the box, not the skew
    F = QuadField(-1)
    place = finite_places(F, 5)[0]
    for e in (-16, -24):
        fam = make_radius_family(F, [(place, Fraction(5) ** e)], [Fraction(5) ** -e])
        assert within_seconds(5, lambda: count_box_naive(F, fam)) == count_box(F, fam) == 5

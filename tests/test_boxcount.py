import json
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alk.boxcount import (
    _ideal_from_finite,
    _radius_exponent,
    count_box,
    count_box_naive,
    counting_bound_check,
    make_radius_family,
    norm_of_family,
)
from alk.arakelov import bundle_theta_and_h0ar, direct_image, f_bound, make_bundle
from alk.quadforms import _surd_negative, box_count, box_form, lattice_gram, reduce_forms
from alk.enumeration import BudgetExceeded
from alk.numfield import (
    FracIdeal,
    Place,
    QuadField,
    conj,
    finite_places,
    make_quad_field,
    prime_ideal,
    splitting_type,
)
from conftest import box_reference_count, box_reference_points, in_box_reference, within_seconds


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


def test_a_place_given_twice_is_refused():
    # the second radius at the same place was applied again: the box was
    # counted at radius 1/25, 5 points, where radius 1/5 has 25
    F = make_quad_field(-1)
    v1, v2 = finite_places(F, 5)
    fam = make_radius_family(F, [(v1, Fraction(1, 5)), (v2, 1)], [40])
    assert count_box(F, fam) == count_box_naive(F, fam) == 25
    with pytest.raises(ValueError, match="twice"):
        make_radius_family(F, [(v1, Fraction(1, 5)), (v2, 1), (v1, Fraction(1, 5))], [40])
    with pytest.raises(ValueError, match="twice"):
        make_radius_family(None, [(Place(None, "finite", 3, "ramified"), 1)] * 2, [2])


@pytest.mark.parametrize("d, place", [
    (-1, Place(QuadField(5), "finite", 5, "ramified")),  # a place of Q(sqrt 5)
    (-1, Place(QuadField(-1), "finite", 5, "inert")),  # 5 splits in Q(i)
    (-1, Place(QuadField(-1), "finite", 3, "split1")),  # 3 is inert in Q(i)
    (-1, Place(QuadField(-1), "finite", 9, "inert")),
    (-1, Place(QuadField(-1), "complex")),
    (-1, Place(None, "finite", 3, "ramified")),  # a place of Q
    (None, Place(QuadField(-1), "finite", 3, "inert")),
    (None, Place(None, "finite", 4, "ramified")),
    (None, 3),
])
def test_a_place_of_another_field_is_refused(d, place):
    # each was accepted, and counted at a prime ideal of the wrong field
    F = None if d is None else make_quad_field(d)
    with pytest.raises(ValueError, match="not a finite place|not a prime"):
        make_radius_family(F, [(place, 1)], [40])


@pytest.mark.parametrize("field", [QuadField(5), None], ids=["Q(sqrt 5)", "Q"])
def test_a_family_of_another_field_is_refused(field):
    # each count took its field from the caller: the naive count of Q(i)'s
    # 37 points at R = 10 gave 93 over Q(sqrt 5), and a TypeError over Q, and
    # the bound check held Q(i)'s count against Q(sqrt 5)'s bound
    F = make_quad_field(-1)
    fam = make_radius_family(F, [], [10])
    assert count_box(F, fam) == count_box_naive(F, fam) == 37
    for count in (count_box, count_box_naive, lambda K, r: counting_bound_check(K, r, 1)):
        with pytest.raises(ValueError, match=re.escape(f"over {F} counted over {field or 'Q'}")):
            count(field, fam)


def test_norm_of_family_multiplies_all_radii():
    F = make_quad_field(-1)
    v1, v2 = finite_places(F, 5)
    fam = make_radius_family(F, [(v1, Fraction(5)), (v2, Fraction(1, 5))],
                             [Fraction(3)])
    assert norm_of_family(fam) == 3


def test_the_ideal_of_a_family_forms_no_product_with_the_maximal_order(monkeypatch):
    # each place forms its prime ideal and the power's HNFs; the family's
    # product starts at its first factor, and with no place at O_F
    F = make_quad_field(-1)
    v1, v2 = finite_places(F, 5)
    calls = []
    from_rows = FracIdeal._from_rows
    monkeypatch.setattr(FracIdeal, "_from_rows",
                        staticmethod(lambda *args: calls.append(args) or from_rows(*args)))
    for finite, formed, want in (
            ([], 0, FracIdeal.maximal_order(F)),
            ([(v1, Fraction(1, 5))], 1, prime_ideal(v1)),
            ([(v1, Fraction(1, 5)), (v2, Fraction(1, 25))], 1 + 2 + 1,
             prime_ideal(v1) * prime_ideal(v2) ** 2)):
        fam = make_radius_family(F, finite, [Fraction(3)])
        calls.clear()
        assert _ideal_from_finite(fam) == want
        assert len(calls) == formed, finite



def test_each_finite_radius_is_read_as_a_power_once(monkeypatch):
    # make_radius_family keeps the exponent it validated, and the ideal of
    # the family reads it
    calls = []
    monkeypatch.setattr("alk.boxcount._radius_exponent",
                        lambda r, q: calls.append((r, q)) or _radius_exponent(r, q))
    F = make_quad_field(-1)
    v1, v2 = finite_places(F, 5)
    inert = finite_places(F, 3)[0]
    fam = make_radius_family(F, [(v1, Fraction(1, 5)), (v2, Fraction(25)), (inert, Fraction(1, 9))],
                             [Fraction(40)])
    assert [e for _, _, e in fam.finite] == [-1, 2, -1]
    assert [r for _, r, _ in fam.finite] == [Fraction(1, 5), Fraction(25), Fraction(1, 9)]
    assert _ideal_from_finite(fam) == prime_ideal(v1) * prime_ideal(v2) ** -2 * prime_ideal(inert)
    assert count_box(F, fam) == count_box_naive(F, fam)
    assert len(calls) == 3
    calls.clear()
    q = make_radius_family(None, [(finite_places(None, 2)[0], Fraction(8))], [Fraction(5)])
    assert _ideal_from_finite(q) == Fraction(1, 8) and len(calls) == 1

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


def test_bound_check_at_a_tiny_c_reports_null_beyond_the_float_range():
    # c = 1e-305 gave an infinite bound, 1e-320 an OverflowError and 1e-400
    # (float(c) = 0) a ValueError; where C and the bound are finite floats
    # they are C = exp(f(-log float(c)) + pi n) and C ||r|| / sqrt(D_F)
    F = make_quad_field(5)
    fam = make_radius_family(F, [], [Fraction(3), Fraction(3)])
    for c, c_finite, bound_finite in (("1/3", True, True), ("1e-300", True, True),
                                      ("1e-305", True, False), ("1e-320", False, False),
                                      ("1e-400", False, False)):
        res = counting_bound_check(F, fam, Fraction(c))
        big_c = math.exp(f_bound(-math.log(float(Fraction(c)))) + 2 * math.pi) if c_finite \
            else None
        want = {"count": 17, "norm": 9.0, "C": big_c,
                "bound": big_c * 9 / math.sqrt(5) if bound_finite else None,
                "hypothesis_ok": True, "status": "ok", "passed": True}
        assert res == want, c
        json.dumps(res, allow_nan=False)


# ---------------------------------------------------------------------------
# box_count against a membership test on field elements


MEMBERSHIP_FIELDS = (5, 13, 17, 2, 3, 6, -3, -7, -11, -15, -1, -2, -5)


def _shrunk(radii, i):
    return [r * (1 - Fraction(1, 10 ** 9)) if j == i else r for j, r in enumerate(radii)]


def test_box_points_match_the_field_route():
    # box_count equals the number of points the exact field test accepts
    # over a coefficient window that holds the box
    rng = random.Random(31)
    seen = {"boxes": 0, "points": 0, "boundary": 0}
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
                count = box_count(ideal, radii)
                assert count == box_reference_count(ideal, radii), (d, ideal, radii)
                seen["boxes"] += 1
                seen["points"] += count
                # boundary points are counted, and drop out when a radius
                # through them shrinks
                for x in boundary:
                    assert in_box_reference(x, F, radii), (d, ideal, radii, x)
                    hit = [i for i in range(len(radii))
                           if not in_box_reference(x, F, _shrunk(radii, i))]
                    assert hit, (d, ideal, radii, x)
                    for i in hit:
                        shrunk = _shrunk(radii, i)
                        fewer = box_count(ideal, shrunk)
                        assert fewer < count and fewer == box_reference_count(ideal, shrunk)
                    seen["boundary"] += 1
    assert seen["boxes"] > 900 and seen["points"] > 500_000 and seen["boundary"] > 300, seen
    # real and imaginary fields, d = 1 mod 4 and not, split, inert and ramified
    assert len(kinds) == 12, kinds


def test_budget_counts_box_points_only():
    # the parent route enumerated an ellipse holding more points than the
    # box, so it raised at these budgets
    for d, rinf, count in ((5, [20, 20], 717), (2, [30, 7], 299)):
        F = QuadField(d)
        fam = make_radius_family(F, [], rinf)
        assert count_box(F, fam, budget=count) == count == count_box_naive(F, fam)
        with pytest.raises(BudgetExceeded, match=f"more than {count - 1} box points"):
            count_box(F, fam, budget=count - 1)
    # the rows are bounded too, before they are walked
    fam = make_radius_family(QuadField(5), [], [10 ** 6, 10 ** 6])
    with pytest.raises(BudgetExceeded, match="more than 1000 box rows") as exc:
        within_seconds(5, lambda: count_box(QuadField(5), fam, budget=1000))
    assert (exc.value.budget, exc.value.found) == (1000, 1000)


# a fundamental unit a + b*sqrt(d) of each real field, of norm -1, -1, -1
UNITS = {5: (Fraction(1, 2), Fraction(1, 2)), 2: (1, 1), 13: (Fraction(3, 2), Fraction(1, 2))}


def _embedding_bound(x, d: int, i: int) -> Fraction:
    """A rational just above |sigma_i(x)|, from 100 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 100
        dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
        value = abs(dec(x.a) + (1 if i == 0 else -1) * dec(x.b) * Decimal(d).sqrt())
        return Fraction(value) * (1 + Fraction(1, 10 ** 30))


@pytest.mark.parametrize("e", [10, 20, 40])
@pytest.mark.parametrize("d", [5, 2, 13])
def test_needle_boxes_count_as_the_balanced_boxes_they_map_to(d, e):
    # For a unit eps, x -> eps^k x maps the ideal onto itself, so the needle
    # box (rho_1, rho_2) of ratio about 10^e holds as many points as the box
    # (rho_1 / |sigma_1(eps^k)|, rho_2 / |sigma_2(eps^k)|), balanced for the
    # right k.  The oracle lists y in a rational box just around that one
    # and tests eps^k y exactly against the needle box.  On the trace form's
    # basis the needle spanned ~10^(e/2) rows, and was refused.
    F = QuadField(d)
    eps = F.elem(*UNITS[d])
    rng = random.Random(d * e)
    ideals = [FracIdeal.maximal_order(F)]
    ideals += [prime_ideal(finite_places(F, p)[0]) ** -1 for p in (2, 3, 7)]
    counts = []
    for ideal in ideals:
        for swap in (False, True):
            a, b = rng.randint(1, 10), rng.randint(1, 10)  # a * b <= 100
            radii = [Fraction(a, 10 ** (e // 2)), Fraction(b * 10 ** (e // 2))]
            radii = radii[::-1] if swap else radii
            # eps^2k is about rho_1 / rho_2, as |sigma_1(eps)| = 1/|sigma_2(eps)| > 1
            k = round(math.log(radii[0] / radii[1]) / (2 * math.log(float(eps.a + eps.b * math.sqrt(d)))))
            unit = eps ** k
            balanced = [r * _embedding_bound(unit ** -1, d, i) for i, r in enumerate(radii)]
            r0, r1, points = box_reference_points(ideal, balanced)
            want = sum(in_box_reference(unit * (r0 * m + r1 * n), F, radii) for m, n in points)
            assert within_seconds(10, lambda: box_count(ideal, radii)) == want, (d, e, ideal, radii)
            counts.append(want)
    assert max(counts) > 1, counts


@pytest.mark.parametrize("e", [5, 6, 7, 10, 20])
def test_needle_bundles_answer(e):
    # O_F of Q(sqrt(5)) at radii (10^-e, 10^e): at e = 6 the unit box took
    # seconds and at e = 7 it was refused.  Only 0 is in the box: a nonzero x
    # in it has |Nr(x)| <= 1, so it is a unit, and no unit has |sigma_1| = 10^-e
    F = QuadField(5)
    radii = (Fraction(1, 10 ** e), Fraction(10 ** e))
    bundle = make_bundle(F, FracIdeal.maximal_order(F), radii)
    _, h0_ar = within_seconds(5, lambda: bundle_theta_and_h0ar(bundle))
    assert h0_ar == math.log(count_box(F, make_radius_family(F, [], radii))) == 0.0


def _naive_pairs(F, fam) -> int:
    """The (m, k) pairs count_box_naive tries: |m| <= m_max and |k| <= k_max
    on the trace form's reduced basis, as it bounds them."""
    ideal = _ideal_from_finite(fam)
    ((n0, _), (n01, _), (n1, _)), _, _ = reduce_forms(F.d, ideal.rows)
    t_max = ideal.den ** 2 * sum(x * x for x in fam.infinite) / 2
    det = n0 * n1 - n01 * n01
    return (2 * math.isqrt(math.floor(t_max * n1 / det)) + 1) * \
        (2 * math.isqrt(math.floor(t_max * n0 / det)) + 1)


def _skewed_family(d, p, e, rho, ratio):
    F = QuadField(d)
    place = finite_places(F, p)[0]
    return F, make_radius_family(F, [(place, Fraction(place.residue_size) ** e)],
                                 [rho, rho * ratio])


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((2, 3, 5, 13, 17, 41)), p=st.sampled_from((2, 3, 5, 7)),
       e=st.integers(-2, 2), rho=st.fractions(Fraction(1, 4), 12),
       ratio=st.fractions(Fraction(1, 16), 16))
def test_skewed_boxes_match_the_naive_count(d, p, e, rho, ratio):
    # boxes of ratio up to 16 have a reduced basis of their own, unlike the
    # trace form's of count_box_naive; the oracle takes about a microsecond
    # a pair, so its pairs are bounded here and the large boxes pinned below
    F, fam = _skewed_family(d, p, e, rho, ratio)
    assume(_naive_pairs(F, fam) <= 20_000)
    assert count_box(F, fam) == count_box_naive(F, fam)


@pytest.mark.parametrize("d, p, ratio, want", [
    (41, 7, 16, 3_455_753),
    (5, 3, 16, 333_845),
    (13, 7, Fraction(1, 16), 23_971),
])
def test_large_skewed_boxes_keep_their_naive_counts(d, p, ratio, want):
    # boxes the draw above reaches, at an inert place, e = 2 and rho = 12,
    # where the oracle tries 4 * 10^5 to 6 * 10^7 pairs: each count was
    # taken once by count_box_naive
    F, fam = _skewed_family(d, p, 2, Fraction(12), ratio)
    assert splitting_type(F, p) == "inert"
    assert within_seconds(5, lambda: count_box(F, fam)) == want


# ---------------------------------------------------------------------------
# the one ideal Gram behind box_count, direct_image and a bundle's theta sum


def test_surd_negative_against_an_exact_floor():
    # for an integer x, x + y*sqrt(d) < 0 exactly when x + floor(y*sqrt(d))
    # < 0, and floor(y*sqrt(d)) = +-isqrt(y^2*d) - (y < 0): y*sqrt(d) is
    # irrational for a nonsquare d and y != 0.  |x| runs over 0, small values
    # and isqrt(y^2*d) - 1 .. isqrt(y^2*d) + 2, where x^2 - y^2*d changes sign
    cases = 0
    for d in (2, 3, 5, 13, 10 ** 18 + 3):
        for y in (0, 1, 2, 7, 12345, 10 ** 20 + 1):
            r = math.isqrt(y * y * d)
            xs = {0, 1, 2, 5} | {r + k for k in (-1, 0, 1, 2) if r + k >= 0}
            for sy, root_floor in ((y, r), (-y, -r - (y != 0))):
                for x in xs | {-x for x in xs}:
                    assert _surd_negative(x, sy, d) is (x + root_floor < 0), (x, sy, d)
                    cases += 1
    assert cases > 500, cases


def _exact_value(a: Fraction, b: Fraction, d: int, R1, R2) -> Decimal:
    """sigma_1(x)/R1 + sigma_2(x)/R2 for x = a + b*sqrt(d), to 50 digits."""
    dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
    root = Decimal(d).sqrt()
    s, t = 1 / Fraction(R1) + 1 / Fraction(R2), 1 / Fraction(R1) - 1 / Fraction(R2)
    return dec(a * s) + dec(b * t) * root


def test_box_form_gram_matches_the_trace_and_embedding_grams():
    # a bundle's direct image has the integer Gram of its unit box's form on
    # the reduced basis r_j = c_j[0]*b0 + c_j[1]*b1, in lowest terms: exact
    # at equal radii and at the complex place, and at unequal real radii
    # each entry within A * 2^-64 of its exact value, taken to 50 digits
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
                rho = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                rho2 = rho * Fraction(rng.randint(10, 30), rng.randint(1, 9))  # > rho
                for radii in ([(rho, rho)] if d < 0 else [(rho, rho), (rho, rho2), (rho2, rho)]):
                    # the unit box: Nr(x) <= rho^2 at the complex place
                    R, sq_radii = rho * rho, tuple(r * r for r in radii)
                    form = box_form(ideal, (R,) if d < 0 else radii)
                    (num, den), cols = lattice_gram(form, d), form[1]
                    assert all(type(x) is int for x in (den, *num[0], *num[1]))
                    assert den > 0 and math.gcd(*num[0], *num[1], den) == 1
                    lat = direct_image(make_bundle(F, ideal, radii))
                    assert (lat.num, lat.den) == (tuple(map(tuple, num)), den), (d, ideal, radii)
                    got = [[Fraction(x, den) for x in row] for row in num]
                    (m0, k0), (m1, k1) = cols
                    assert abs(m0 * k1 - m1 * k0) == 1
                    r = [b[0] * m + b[1] * k for m, k in cols]
                    if d < 0 or sq_radii[0] == sq_radii[1]:
                        # 2*Nr(x)/R = (|sigma(x)|^2 + |conj sigma(x)|^2)/R
                        other = conj if d < 0 else (lambda x: x)
                        want = [[(r[i] * other(r[j])).trace() / R for j in range(2)]
                                for i in range(2)]
                        assert got == want
                        exact = want
                        seen["complex" if d < 0 else "equal"] += 1
                    else:
                        exact = [[_exact_value((r[i] * r[j]).a, (r[i] * r[j]).b, d, *sq_radii)
                                  for j in range(2)] for i in range(2)]
                        tol = exact[0][0] / 2 ** 64
                        for row_g, row_e in zip(got, exact):
                            for g, e in zip(row_g, row_e):
                                assert abs(Decimal(g.numerator) / g.denominator - e) <= tol, \
                                    (d, ideal, sq_radii, g, e)
                        seen["unequal"] += 1
                    # Lagrange-Gauss reduced: |2B| <= A <= C
                    (A, B), (_, C) = exact
                    assert 2 * abs(B) <= A <= C, (d, ideal, sq_radii, exact)
    assert len(kinds) == 6, kinds  # real and imaginary; split, inert, ramified
    assert min(seen.values()) > 100, seen


def _embeddings(x, d: int) -> tuple[Decimal, Decimal]:
    """a + b*sqrt(d) and a - b*sqrt(d) for x = a + b*sqrt(d), d > 0, in the
    context's precision: the one of them that sums two terms of one sign
    directly, the other as the norm over it, so neither cancels."""
    dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
    u, v = dec(x.a), dec(x.b) * Decimal(d).sqrt()
    if x.a * x.b >= 0:
        return u + v, dec(x.a * x.a - d * x.b * x.b) / (u + v)
    return dec(x.a * x.a - d * x.b * x.b) / (u - v), u - v


def test_rounded_box_grams_are_positive_definite_and_within_their_bound():
    # at unequal real radii up to 10^+-400, over ideals at split, inert and
    # ramified primes, the direct image's Gram is positive definite and each
    # entry is within A * 2^-65 of sigma_1(x)/R_1 + sigma_2(x)/R_2 (taken to
    # 60 digits: far closer than the bound), A the first entry
    big = 10 ** 400
    skewed = [(Fraction(1, big), Fraction(20, big)), (Fraction(big), Fraction(7 * big, 10))]
    skewed += [(Fraction(2, 3), Fraction(10 ** j)) for j in (10, 100, 200)]
    for d in (2, 5, 13):
        F = QuadField(d)
        places = {}
        for p in (2, 3, 5, 7, 11, 13):
            places.setdefault(splitting_type(F, p), finite_places(F, p)[0])
        assert len(places) == 3, (d, places)
        ideals = [prime_ideal(place) ** e for place in places.values() for e in (1, -3)]
        cases = [(FracIdeal.maximal_order(F), (Fraction(1, big), Fraction(big)))]
        cases += [(ideal, radii) for ideal in ideals for radii in skewed]
        for ideal, radii in cases:
            lat = direct_image(make_bundle(F, ideal, radii))
            (a, b), (_, c) = lat.num
            assert a > 0 and a * c - b * b > 0, (d, ideal, radii)
            b0, b1 = ideal.basis_elems()
            with localcontext() as ctx:
                ctx.prec = 60
                r = [_embeddings(b0 * m + b1 * k, d) for m, k in box_form(ideal, radii)[1]]
                R1, R2 = (Decimal(rho.numerator) ** 2 / Decimal(rho.denominator) ** 2
                          for rho in radii)
                exact = [r[i][0] * r[j][0] / R1 + r[i][1] * r[j][1] / R2
                         for i, j in ((0, 0), (0, 1), (1, 1))]
                for x, e in zip((a, b, c), exact):
                    assert abs(Decimal(x) / lat.den - e) <= exact[0] / 2 ** 65, \
                        (d, ideal, radii, x, e)


def test_complex_count_box_equals_the_number_of_box_sections():
    # count_box takes the normalized radius R = rho^2 at the complex place,
    # a bundle the radius rho at each conjugate embedding; its h0_ar is the
    # log of the number of sections in its unit box
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
                    sections = box_reference_count(ideal, [rho * rho])
                    h0_ar = bundle_theta_and_h0ar(make_bundle(F, ideal, (rho, rho)))[1]
                    assert count_box(F, fam) == sections == count_box_naive(F, fam)
                    assert h0_ar == math.log(sections)


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
            assert bundle_theta_and_h0ar(bundle, budget=1000)[1] == math.log(want), (d, p, e)


def test_naive_count_is_fast_at_skewed_split_ideals():
    # at d = -1, p = 5 the HNF basis of P^-e grows skewed with |e|; the
    # oracle's coefficient box comes from the reduced basis, so its size
    # follows the box, not the skew
    F = QuadField(-1)
    place = finite_places(F, 5)[0]
    for e in (-16, -24):
        fam = make_radius_family(F, [(place, Fraction(5) ** e)], [Fraction(5) ** -e])
        assert within_seconds(5, lambda: count_box_naive(F, fam)) == count_box(F, fam) == 5

import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alk import _fpenum_py, arakelov, enumeration, quadforms, ratlinalg
from alk.arakelov import (
    adeg,
    bundle_theta_and_h0ar,
    canonical_bundle,
    check_trace_dual,
    direct_image,
    dual_bundle,
    euclidean_lattice,
    f_bound,
    h1_via_duality,
    make_bundle,
    serre_twist,
    tensor_bundle,
    theta_bounds,
    theta_invariants_euclidean,
    trivial_bundle,
)
from alk.boxcount import count_box, make_radius_family
from alk.numfield import FracIdeal, finite_places, make_quad_field, prime_ideal, splitting_type
from alk.ratlinalg import NotRational, mat_det
from conftest import (box_reference_count, decimal_log_theta, random_nonzero_elem,
                      random_posdef_gram, random_principal_bundle, within_seconds)

FIELDS = [make_quad_field(d) for d in (-1, 2, 5, -3)]


def test_lattice_validation():
    with pytest.raises(ValueError):
        euclidean_lattice([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        euclidean_lattice([[1, 2], [2, 1]])  # indefinite
    # float input: symmetric up to 1e-8 + 1e-5 relative, then leading minors
    with pytest.raises(ValueError, match="not symmetric"):
        euclidean_lattice([[1.0, 0.5], [0.501, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        euclidean_lattice([[1.0, 2.0], [2.0, 1.0]])
    # ratlinalg.real refuses a non-finite float
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NotRational, match="must be finite"):
            euclidean_lattice([[bad]])
    with pytest.raises(NotRational, match="must be finite"):
        euclidean_lattice([[1, 0], [0, float("inf")]])
    for gram in ([[1, 2]], [[2, 0], [0]]):
        with pytest.raises(ValueError, match="Gram matrix not square"):
            euclidean_lattice(gram)
    # the stored Fractions equal the floats of the upper triangle
    lat = euclidean_lattice([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert lat.gram == ((1.0, 0.5), (0.5, 1.0))
    assert all(type(x) is Fraction for row in lat.gram for x in row)
    # a pair unequal within the tolerance is stored symmetric, so the dual is too
    lat = euclidean_lattice([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
    for g in (lat.gram, lat.dual().gram):
        assert all(g[i][j] == g[j][i] for i in range(2) for j in range(2))


def test_float_grams_follow_the_exact_route():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            gram = [[x / 3 for x in row] for row in random_posdef_gram(rng, n)]
            exact = euclidean_lattice(gram)
            floats = [[float(x) for x in row] for row in gram]
            flt = euclidean_lattice(floats)
            # the stored Fractions equal the floats, and det is their exact det
            assert flt.gram == tuple(map(tuple, floats))
            assert all(type(x) is Fraction for row in flt.gram for x in row)
            assert flt.det() == mat_det([[Fraction(x) for x in row] for row in floats])
            assert abs(flt.det() - exact.det()) <= 1e-12 * exact.det()
            for row_f, row_e in zip(flt.dual().gram, exact.dual().gram):
                for a, b in zip(row_f, row_e):
                    assert abs(a - b) <= 1e-12
            rep_f = theta_invariants_euclidean(flt).to_dict()
            for key, want in theta_invariants_euclidean(exact).to_dict().items():
                assert abs(rep_f[key] - want) <= 1e-12 * max(1.0, abs(want)), key


NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.modules["mpmath"] = None  # nor of mpmath
from alk.arakelov import (bundle_theta_and_h0ar, direct_image, euclidean_lattice, make_bundle,
                          theta_invariants_euclidean)
from alk.git4 import psi_invariants, regular_embedding
from alk.numfield import FracIdeal, make_quad_field
from alk.quadforms import box_form, lattice_gram
from alk.quartics import dihedral_tower

theta_invariants_euclidean(euclidean_lattice([[1.5, 0.3], [0.3, 2.25]]))
F = make_quad_field(5)
bundle = make_bundle(F, FracIdeal.maximal_order(F), (1, 2))
num, den = lattice_gram(box_form(bundle.ideal, (1, 2)), 5)
assert den > 1 and den & (den - 1) == 0  # rounded on a power of 2
assert (direct_image(bundle).num, direct_image(bundle).den) == (tuple(map(tuple, num)), den)
bundle_theta_and_h0ar(bundle)
gamma = [[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
psi_invariants(regular_embedding(dihedral_tower(2, 1, 1)), gamma)
for name in ("numpy", "mpmath"):
    assert sys.modules[name] is None
    assert not [m for m in sys.modules if m.startswith(name + ".")]
print("ok")
"""


def test_float_routes_run_without_numpy():
    # the child imports alk from the same place as this process
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_theta_of_integer_lattice_matches_direct_sum():
    """h0 of Z equals the log of the plain convergent series, summed far
    beyond the certified radius."""
    lat = euclidean_lattice([[1]])
    rep = theta_invariants_euclidean(lat)
    direct = sum(math.exp(-math.pi * k * k) for k in range(-30, 31))
    assert abs(rep.h0 - math.log(direct)) < 1e-10
    # self-dual lattice: both theta invariants agree and the degree is 0
    assert abs(rep.h0 - rep.h1) < 1e-10
    assert rep.adeg == 0.0
    assert rep.tail_bound < 1e-12


def _direct_sums(lat):
    """h0 and h1 each summed by the kernel, on L and on L*."""
    return (enumeration.theta_log_sum(lat)[0],
            enumeration.theta_log_sum(lat.dual())[0])


def test_theta_duality_residual_on_random_lattices():
    # the report sums one side and derives the other by Poisson summation,
    # so its own h0 - h1 - adeg is 0; the derived side is checked here
    # against its direct sum
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        lat = euclidean_lattice(random_posdef_gram(rng, n))
        rep = theta_invariants_euclidean(lat)
        h0, h1 = _direct_sums(lat)
        assert abs(rep.h0 - h0) < 1e-9 and abs(rep.h1 - h1) < 1e-9


@st.composite
def _scaled_grams(draw):
    """(A^T A + I) * 2^k for an integer A with entries in [-1, 1], rank 1-4,
    and k in [-6, 6] with |k| * n <= 12, so that det falls on either side
    of 1 while the denser side's direct sum stays below ~10^5 points, whose
    float rounding stays below 1e-12."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(-min(6, 12 // n), min(6, 12 // n)))
    a = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return [[(sum(a[m][i] * a[m][j] for m in range(n)) + (i == j)) * Fraction(2) ** k
             for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(gram=_scaled_grams())
def test_summed_and_derived_sides_match_their_direct_sums(gram):
    lat = euclidean_lattice(gram)
    rep = theta_invariants_euclidean(lat)
    h0, h1 = _direct_sums(lat)
    assert abs(rep.h0 - h0) <= rep.tail_bound + 1e-12
    assert abs(rep.h1 - h1) <= rep.tail_bound + 1e-12
    assert abs(rep.adeg + 0.5 * math.log(lat.det())) <= 1e-12 * max(1.0, abs(rep.adeg))


@pytest.mark.parametrize("k", [-6, -1, 0, 1, 6])
def test_theta_of_a_scaled_unimodular_gram_is_a_product(k):
    """U^T U 2^k is isometric to 2^(k/2) Z^4, so h0 and h1 are 4 log of
    1-D series.  At k = -6 or 6 the denser side, summed directly, is off by
    3e-12 through float rounding over 2.6 million points; the report sums
    the sparser side and derives the other."""
    u = [[1, 2, -1, 0], [0, 1, 3, 1], [0, 0, 1, -2], [0, 0, 0, 1]]
    gram = [[sum(u[m][i] * u[m][j] for m in range(4)) * Fraction(2) ** k
             for j in range(4)] for i in range(4)]
    rep = theta_invariants_euclidean(euclidean_lattice(gram))
    for got, g in ((rep.h0, 2.0 ** k), (rep.h1, 2.0 ** -k)):
        want = 4 * math.log(_theta_1d(g))
        assert -1e-12 <= want - got <= rep.tail_bound + 1e-12, (k, want - got)
    assert abs(rep.adeg + 2 * k * math.log(2)) <= 1e-12


def test_sheared_integer_lattice_is_exact():
    # Z^2 on the basis (1, 0), (k, 1): det 1, so L is summed, and h1 = h0
    want = 2 * math.log(_theta_1d(1.0))
    for k in (10 ** 3, 10 ** 5, 10 ** 6):
        rep = theta_invariants_euclidean(euclidean_lattice([[1, k], [k, k * k + 1]]))
        assert rep.adeg == 0
        assert abs(rep.h0 - want) <= 1e-14 and rep.h1 == rep.h0


def test_scaled_integer_lattice_degree():
    lat = euclidean_lattice([[Fraction(1, 4)]])  # basis vector of length 1/2
    rep = theta_invariants_euclidean(lat)
    assert abs(rep.adeg - math.log(2.0)) < 1e-12


def test_lattice_degree_is_within_an_ulp_of_its_50_digit_value():
    # adeg = log(1/det)/2 in one log: the logs of det's numerator and
    # denominator nearly cancel, and their difference was 11 and 12 ulp off
    for gram in ([[0.1]], [[0.3, 0.1], [0.1, 0.7]]):
        lat = euclidean_lattice(gram)
        with localcontext() as ctx:
            ctx.prec = 50
            want = (Decimal(lat.det().denominator) / Decimal(lat.det().numerator)).ln() / 2
        got = theta_invariants_euclidean(lat).adeg
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want))), (gram, got, want)
    # and a unimodular lattice has degree +0.0, not -0.0
    assert math.copysign(1.0, theta_invariants_euclidean(euclidean_lattice([[1]])).adeg) == 1.0


def _section_degree(bundle, s) -> Decimal:
    """The degree by its definition at 60 digits, for a section s != 0 of I:
    log [I : O_F s] - sum_sigma log(|sigma(s)| / rho_sigma), with the index
    the determinant of s, s*omega over I's basis, |sigma(s)|^2 = Nr s at the
    complex place and sigma(s) = a +- b sqrt(d) at the real ones."""
    F = bundle.field
    with localcontext() as ctx:
        ctx.prec = 60
        dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
        if F is None:
            index = Fraction(s, bundle.ideal)
            assert index.denominator == 1, "s lies in I"
            return dec(abs(index)).ln() - (dec(abs(s)) / dec(bundle.radii[0])).ln()
        (p, q), (r, t) = ((x.a, x.b) for x in bundle.ideal.basis_elems())
        (u, v), (w, z) = ((x.a, x.b) for x in (s, s * F.omega))
        index = abs((u * z - v * w) / (p * t - q * r))
        assert index.denominator == 1, "s lies in I"
        rho1, rho2 = map(dec, bundle.radii)
        if F.is_real:
            a, b = dec(s.a), dec(s.b) * Decimal(F.d).sqrt()
            arch = (abs(a + b) / rho1).ln() + (abs(a - b) / rho2).ln()
        else:
            arch = (dec(s.norm()) / (rho1 * rho2)).ln()
        return dec(index).ln() - arch


def _random_bundle(rng, F):
    """A bundle over F (None for Q) of random ideal, with radii up to 10^+-400."""
    def radius():
        scale = Fraction(10) ** rng.choice((0, rng.randint(-400, 400)))
        return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) * scale
    if F is None:
        return make_bundle(None, Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4)),
                           (radius(),))
    gens = [random_nonzero_elem(rng, F, 50) * Fraction(1, rng.randint(1, 30))
            for _ in range(rng.randint(1, 2))]
    r1 = radius()
    return make_bundle(F, FracIdeal.from_gens(F, gens), (r1, radius() if F.is_real else r1))


def test_degree_independent_of_chosen_section():
    # adeg, one log of prod(radii) / N(I), is within max(2 ulp, 2^-52) of the
    # section definition at either HNF basis element: the float route through
    # the embeddings of one section was up to 52 times that off
    rng = random.Random(5)
    bases = [None] + [make_quad_field(d) for d in (-15, -7, -1, 2, 5, 13)]
    for k in range(2000):
        bundle = _random_bundle(rng, bases[k % len(bases)])
        got = adeg(bundle)
        sections = ((bundle.ideal, -3 * bundle.ideal) if bundle.field is None
                    else bundle.ideal.basis_elems())
        for s in sections:
            want = _section_degree(bundle, s)
            tol = max(2 * math.ulp(float(want)), 2.0 ** -52)
            assert abs(Decimal(got) - want) <= Decimal(tol), (bundle, s, got, want)
    # N(I) = |Nr(12 + 23 sqrt 5)| = 2501 = rho_1 rho_2: the section route gave -1.78e-15
    F = make_quad_field(5)
    assert adeg(make_bundle(F, FracIdeal.from_gens(F, [F.elem(12, 23)]), (2501, 1))) == 0.0


def test_sections_are_read_as_elements_of_the_field():
    # a section s twists a bundle's ideal to s*I: a rational s is read as an
    # element of F, and an element of another field is refused
    F = make_quad_field(2)
    ideal = trivial_bundle(F).ideal
    assert ideal.scale(2) == ideal.scale(F.elem(2))
    twisted = [adeg(make_bundle(F, ideal.scale(s), (1, 1))) for s in (2, F.elem(2))]
    assert twisted[0] == twisted[1] == -math.log(4)
    with pytest.raises(ValueError):
        ideal.scale(make_quad_field(3).elem(1, 1))


def test_a_bundle_ideal_over_another_field_is_refused():
    # tensor_bundle multiplied such an ideal's rows with the bundle's d
    with pytest.raises(ValueError, match=r"QuadField\(d=2\).*QuadField\(d=5\)"):
        make_bundle(make_quad_field(5), FracIdeal.maximal_order(make_quad_field(2)), (1, 1))


def test_degree_of_dual_and_tensor():
    rng = random.Random(9)
    for F in FIELDS:
        b1 = random_principal_bundle(rng, F)
        b2 = random_principal_bundle(rng, F)
        assert abs(adeg(dual_bundle(b1)) + adeg(b1)) < 1e-12
        assert abs(adeg(tensor_bundle(b1, b2)) - adeg(b1) - adeg(b2)) < 1e-12


def test_tensor_bundle_refuses_bundles_over_different_fields():
    F2, F5 = make_quad_field(2), make_quad_field(5)
    for b1, b2 in ((trivial_bundle(None), trivial_bundle(F5)),
                   (trivial_bundle(F5), trivial_bundle(None)),
                   (trivial_bundle(F2), trivial_bundle(F5))):
        with pytest.raises(ValueError, match="bundles over different fields"):
            tensor_bundle(b1, b2)


def test_tensor_bundle_multiplies_ideals_and_radii():
    # over Q the generators multiply; the Serre twist is the dual times
    # the inverse different, over Q the dual alone
    got = tensor_bundle(make_bundle(None, 2, (3,)), make_bundle(None, Fraction(1, 5), (0.5,)))
    assert got == arakelov.HermitianLineBundle(None, Fraction(2, 5), (Fraction(3, 2),))
    assert serre_twist(make_bundle(None, 3, (Fraction(1, 2),))) == \
        arakelov.HermitianLineBundle(None, Fraction(1, 3), (Fraction(2),))
    rng = random.Random(10)
    for F in FIELDS:
        for _ in range(3):
            bundle = random_principal_bundle(rng, F)
            want = arakelov.HermitianLineBundle(
                F, bundle.ideal.inverse() * canonical_bundle(F).ideal,
                tuple(1 / r for r in bundle.radii))
            assert serre_twist(bundle) == want


def test_canonical_module_degree_is_log_disc():
    for F in FIELDS:
        got = adeg(canonical_bundle(F))
        assert abs(got - math.log(F.disc)) < 1e-12


def test_h1_routes_agree():
    rng = random.Random(21)
    for F in FIELDS:
        for _ in range(3):
            bundle = random_principal_bundle(rng, F)
            lat = direct_image(bundle)
            h1_direct, _, _ = enumeration.theta_log_sum(lat.dual())
            assert abs(h1_direct - h1_via_duality(bundle)) < 1e-9


# ---------------------------------------------------------------------------
# bundles: one theta sum on a reduced basis


# O_F of Q(sqrt(5)) at radii (1/rho, rho): h0 and h1 of the 50-digit
# decimal oracle, rounded to 17 digits
PINNED_OF5 = {300: (0.0039512551138542853, 0.80867021133090447),
              10 ** 3: (0.0036507933785848094, 0.808369749595635)}


@pytest.mark.parametrize("rho", [300, 10 ** 3, 10 ** 4])
@pytest.mark.parametrize("d", [2, 5, 13])
def test_bundle_theta_at_unequal_radii_matches_a_decimal_oracle(d, rho):
    # the float Gram of the HNF basis, built from the embeddings, was off by
    # 2.4e-8 in h1 at rho = 300 and refused rho = 10^3 and 10^4
    F = make_quad_field(d)
    bundle = make_bundle(F, FracIdeal.maximal_order(F), (Fraction(1, rho), rho))

    def run():
        report, h0_ar = bundle_theta_and_h0ar(bundle)
        oracle = [float(decimal_log_theta(b)) for b in (bundle, serre_twist(bundle))]
        return report, h0_ar, oracle

    report, h0_ar, (h0, h1) = within_seconds(30, run)
    assert abs(report.h0 - h0) <= report.tail_bound + 1e-12
    assert abs(report.h1 - h1) <= report.tail_bound + 1e-12
    assert abs(report.adeg) <= 1e-12  # the radii multiply to 1
    assert h0_ar == 0.0  # a unit has |sigma_1| <= 1/rho < rho <= |sigma_2|, save 0
    if d == 5 and rho in PINNED_OF5:
        assert (h0, h1) == PINNED_OF5[rho]


@st.composite
def _bundles(draw):
    """A bundle over one of seven fields: a principal ideal with small
    generator or a prime power, at equal radii, or at real radii whose
    ratio is at most 16.  det(L) = N(I)^2 D_F / (rho_1 rho_2)^2 stays in
    [10^-6, 10^6], so that the direct sum of the denser side, L or L*,
    meets at most a few 10^4 points."""
    d = draw(st.sampled_from((-1, -3, -7, 2, 5, 13, 41)))
    F = make_quad_field(d)
    if draw(st.booleans()):
        gen = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        ideal = FracIdeal.from_gens(F, [F.elem(*gen)])
    else:
        places = finite_places(F, draw(st.sampled_from((2, 3, 5, 7))))
        ideal = prime_ideal(draw(st.sampled_from(places))) ** draw(st.sampled_from((-2, -1, 1, 2)))
    r1 = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    r2 = r1 if d < 0 else r1 * Fraction(draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    assume(Fraction(1, 10 ** 6) <= ideal.norm() ** 2 * F.disc / (r1 * r2) ** 2 <= 10 ** 6)
    return make_bundle(F, ideal, (r1, r2))


@settings(max_examples=60, deadline=None)
@given(bundle=_bundles())
def test_one_sum_report_matches_direct_sums_of_l_l_star_and_the_twist(bundle):
    report, _ = bundle_theta_and_h0ar(bundle)
    lat = direct_image(bundle)
    h0, h1 = _direct_sums(lat)
    assert abs(report.h0 - h0) <= 1e-9
    assert abs(report.h1 - h1) <= 1e-9
    assert abs(report.h1 - h1_via_duality(bundle)) <= 1e-9


def test_the_serre_twist_ideal_is_the_trace_dual():
    # I^-1 d^-1 over prime powers: Tr(b_i c_j) is an integer matrix of det
    # +-1, and ideals that are not the trace dual are refused
    kinds = set()
    for d in (-1, -3, -5, -7, 2, 3, 5, 13):
        F = make_quad_field(d)
        for p in (2, 3, 5, 7):
            kinds.add(splitting_type(F, p))
            for place in finite_places(F, p):
                for e in (-4, -3, -2, -1, 1, 2, 3, 4):
                    ideal = prime_ideal(place) ** e
                    twist = serre_twist(make_bundle(F, ideal, (1, 1))).ideal
                    check_trace_dual(ideal, twist)
                    check_trace_dual(twist, ideal)
                    wrong = [ideal.inverse(), twist.scale(2), twist.scale(Fraction(1, 2))]
                    if twist.conj() != twist:
                        wrong.append(twist.conj())
                    for other in wrong:
                        with pytest.raises(ArithmeticError, match="trace dual"):
                            check_trace_dual(ideal, other)
    assert kinds == {"split", "inert", "ramified"}


def test_a_wrong_inverse_different_is_refused(monkeypatch):
    F = make_quad_field(5)
    monkeypatch.setattr(arakelov, "_inverse_different", lambda field: field.elem(1))
    with pytest.raises(ArithmeticError, match="trace dual"):
        bundle_theta_and_h0ar(trivial_bundle(F))


def test_a_bundle_takes_one_theta_sum(monkeypatch):
    calls = []
    gauss_sum = _fpenum_py.gauss_sum
    monkeypatch.setattr(_fpenum_py, "gauss_sum",
                        lambda *args, **kw: calls.append(args) or gauss_sum(*args, **kw))
    rng = random.Random(29)
    for F in FIELDS + [None]:
        for _ in range(3):
            bundle = trivial_bundle(None) if F is None else random_principal_bundle(rng, F)
            calls.clear()
            bundle_theta_and_h0ar(bundle)
            assert len(calls) == 1, bundle


def test_a_lattice_takes_one_bareiss_pass(monkeypatch):
    # the pass _lattice makes for the definiteness test and det is the one
    # the theta kernel walks; _fpenum_py binds no bareiss, and one set
    # there would be counted too
    callers = []

    def counted(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return ratlinalg.bareiss(m)

    for module in (arakelov, _fpenum_py):
        monkeypatch.setattr(module, "bareiss", counted, raising=False)
    in_sums = []
    gauss_sum = _fpenum_py.gauss_sum

    def counted_sum(*args, **kw):
        before = len(callers)
        out = gauss_sum(*args, **kw)
        in_sums.append(len(callers) - before)
        return out

    monkeypatch.setattr(_fpenum_py, "gauss_sum", counted_sum)
    rng = random.Random(31)
    for n in (3, 4):
        for _ in range(5):
            gram = random_posdef_gram(rng, n, shift=1)  # det >= 1: L is summed
            callers.clear()
            in_sums.clear()
            theta_invariants_euclidean(euclidean_lattice(gram))
            assert (callers, in_sums) == (["_lattice"], [0]), gram


def test_theta_builds_at_most_one_lattice_beyond_its_input(monkeypatch):
    # the summed side is L itself when det >= 1 and its Gram is reduced (a
    # bundle's direct image at rank 2), and otherwise the one lattice built:
    # the reduced rank-2 side, reduced from L*'s integer Gram, or L*
    built = []

    class Counted(arakelov.EuclideanLattice):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def count(lat):
        monkeypatch.setattr(arakelov, "EuclideanLattice", Counted)
        built.clear()
        theta_invariants_euclidean(lat)
        monkeypatch.undo()
        return len(built)

    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for F in FIELDS:
        for _ in range(15):
            lat = direct_image(random_principal_bundle(rng, F))
            seen[lat.det() >= 1] += 1
            assert count(lat) == (0 if lat.det() >= 1 else 1), lat
    assert min(seen.values()) >= 5, seen
    for k in (1, 2, 50):  # det 1, a sheared basis of Z^2
        assert count(euclidean_lattice([[1, k], [k, k * k + 1]])) == 1
    for n in (3, 4):
        for _ in range(5):
            gram = random_posdef_gram(rng, n)
            assert count(euclidean_lattice([[x / 64 for x in row] for row in gram])) == 1
            assert count(euclidean_lattice(gram)) == 0


@pytest.mark.parametrize("k", [10 ** 3, 10 ** 5, 10 ** 7])
def test_sheared_grams_are_reduced_before_either_side_is_summed(k):
    # Z^2 on the basis (1, 0), (k, 1), scaled by 1/4: det 1/16, so the dual,
    # 4 Z^2 on a sheared basis, is summed; h0 and h1 are 2 log of 1-D series
    gram = [[Fraction(1, 4), Fraction(k, 4)], [Fraction(k, 4), Fraction(k * k + 1, 4)]]
    rep = within_seconds(5, lambda: theta_invariants_euclidean(euclidean_lattice(gram)))
    assert abs(rep.h0 - 2 * math.log(_theta_1d(0.25))) <= rep.tail_bound + 1e-12
    assert abs(rep.h1 - 2 * math.log(_theta_1d(4.0))) <= rep.tail_bound + 1e-12


def test_box_sections_symmetric_and_contain_zero():
    # h0_ar counts the sections in the unit box, Nr(s) <= rho^2 at the
    # complex place: 0 and pairs s, -s, so an odd number
    rng = random.Random(17)
    for F in FIELDS:
        bundle = random_principal_bundle(rng, F)
        radii = bundle.radii if F.is_real else [bundle.radii[0] ** 2]
        count = box_reference_count(bundle.ideal, radii)
        assert bundle_theta_and_h0ar(bundle)[1] == math.log(count)
        assert count % 2 == 1


def test_unit_box_count_bounded_by_theta():
    rng = random.Random(33)
    for F in FIELDS:
        for _ in range(4):
            bundle = random_principal_bundle(rng, F)
            report, h0_ar = bundle_theta_and_h0ar(bundle)
            assert h0_ar <= report.h0 + math.pi * 2 + 1e-9


def test_trivial_bundle_h0ar():
    # unit box of O_F in Q(i): 0 and the four units; 1+i has norm 2, so the
    # count is 9 only at radius 2 in the normalized scale
    F = make_quad_field(-1)
    bundle = trivial_bundle(F)
    assert box_reference_count(bundle.ideal, [1]) == 5
    assert bundle_theta_and_h0ar(bundle)[1] == math.log(5)


def test_a_bundle_takes_one_reduction(monkeypatch):
    # the direct image's form is the unit box's, so the lattice and the box
    # count share one Lagrange-Gauss reduction
    calls = []
    reduce_forms = quadforms.reduce_forms
    monkeypatch.setattr(quadforms, "reduce_forms",
                        lambda *args: calls.append(args) or reduce_forms(*args))
    rng = random.Random(43)
    for F in FIELDS:
        for _ in range(3):
            bundle = random_principal_bundle(rng, F)
            calls.clear()
            bundle_theta_and_h0ar(bundle)
            assert len(calls) == 1, bundle


def test_comparison_function_shape():
    assert f_bound(0.0) == 1.0
    assert f_bound(3.0) == 4.0
    assert abs(f_bound(-1.0) - math.exp(-2 * math.pi)) < 1e-15
    assert f_bound(-0.0) == 1.0


def test_degree_based_bounds_hold_on_samples():
    rng = random.Random(2)
    for F in FIELDS[:2]:
        bundle = random_principal_bundle(rng, F)
        res = theta_bounds(0.5, bundle)
        assert all(c["ok"] for c in res["checks"].values())


def test_budget_is_enforced():
    F = make_quad_field(-1)
    fam = make_radius_family(F, [], [Fraction(100)])
    with pytest.raises(enumeration.BudgetExceeded):
        count_box(F, fam, budget=3)


@pytest.mark.parametrize("d, radii", [(5, ["1/2", "5/2"]), (-3, ["3/4"])])
def test_a_box_of_exactly_budget_rows_answers(d, radii):
    # rows t = 0 and 1 of the box's own form; only 0 is in the box, so the
    # points never reach the budget and the rows alone decide
    F = make_quad_field(d)
    fam = make_radius_family(F, [], [Fraction(r) for r in radii])
    assert count_box(F, fam, budget=2) == 1
    with pytest.raises(enumeration.BudgetExceeded, match="more than 1 box rows"):
        count_box(F, fam, budget=1)


def _theta_1d(g):
    """sum_k exp(-pi g k^2) over all integers k, summed until the terms
    underflow, far past any truncation radius."""
    kmax = math.isqrt(math.ceil(800 / (math.pi * g))) + 1
    return math.fsum(math.exp(-math.pi * g * k * k) for k in range(-kmax, kmax + 1))


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-6, 1e-3])
def test_theta_truncation_error_within_the_tail_bound(tail_tol):
    """On a diagonal lattice theta is a product of 1-D series, so h0 is
    known independently of the enumeration; the truncated sum may miss it
    only by less than the reported bound, which depends on the rank alone.
    The theta functions sum at the fixed 1e-12; the kernel is summed
    directly at the truncation radius of the looser tolerances."""
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            diag = [Fraction(rng.randint(1, 100), 20) for _ in range(n)]
            gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            lat = euclidean_lattice(gram)
            if tail_tol == enumeration.DEFAULT_TAIL_TOL:
                h0, radius, tail = enumeration.theta_log_sum(lat)
                assert enumeration.theta_log_sum(lat.dual())[1:] == (radius, tail)
                rep = theta_invariants_euclidean(lat)
                assert (rep.truncation_radius, rep.tail_bound) == (radius, tail)
            else:
                radius, tail = enumeration.truncation_radius(n, tail_tol)
                total, _ = _fpenum_py.gauss_sum(lat.rows, lat.den, radius * radius,
                                                enumeration.DEFAULT_BUDGET)
                h0 = math.log(total)
            want = math.fsum(math.log(_theta_1d(float(g))) for g in diag)
            assert tail < tail_tol
            assert -1e-14 <= want - h0 <= tail, (diag, want - h0, tail)


def test_truncation_radius_depends_on_the_rank_alone():
    # the smallest radius with Banaszczyk's bound below 1e-12: about 3.20
    # at rank 2 and 3.36 at rank 4, and it grows with the rank
    radii = [enumeration.truncation_radius(n, 1e-12)[0] for n in range(1, 9)]
    assert radii == sorted(radii)
    assert abs(radii[1] - 3.1965) < 1e-4 and abs(radii[3] - 3.3557) < 1e-4
    for n in (1, 4):
        r, tail = enumeration.truncation_radius(n, 1e-12)
        assert tail < 1e-12 <= enumeration._banaszczyk_bound(n, r * (1 - 1e-9))


@pytest.mark.parametrize("tail_tol", [0, -1e-12, 1, 2.5, float("nan"), float("inf")])
def test_tail_tolerance_outside_zero_one_is_rejected(tail_tol):
    # the tolerance is fixed and budget keyword-only, so a stale positional
    # tolerance is refused and not read as a budget
    lat = euclidean_lattice([[1]])
    with pytest.raises(TypeError):
        enumeration.theta_log_sum(lat, tail_tol)
    with pytest.raises(TypeError):
        theta_invariants_euclidean(lat, tail_tol)

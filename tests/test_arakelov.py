import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from alk import enumeration
from alk.arakelov import (
    adeg,
    adeg_via_section,
    box_sections,
    bundle_theta_and_h0ar,
    canonical_bundle,
    dual_bundle,
    euclidean_lattice,
    f_bound,
    h1_via_duality,
    sections_basis,
    tensor_bundle,
    theta_bounds,
    theta_invariants_euclidean,
    trivial_bundle,
)
from alk.boxcount import count_box, make_radius_family
from alk.numfield import make_quad_field
from alk.ratlinalg import mat_det
from conftest import random_posdef_gram, random_principal_bundle

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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="Gram entries must be finite"):
            euclidean_lattice([[bad]])
    with pytest.raises(ValueError, match="Gram entries must be finite"):
        euclidean_lattice([[1, 0], [0, float("inf")]])
    for gram in ([[1, 2]], [[2, 0], [0]]):
        with pytest.raises(ValueError, match="Gram matrix not square"):
            euclidean_lattice(gram)
    # the stored Fractions equal the floats
    lat = euclidean_lattice([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert lat.gram == ((1.0, 0.5), (0.5 + 1e-12, 1.0))
    assert all(type(x) is Fraction for row in lat.gram for x in row)


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
from alk.arakelov import (bundle_theta_and_h0ar, direct_image, euclidean_lattice,
                          ideal_gram, make_bundle, theta_invariants_euclidean)
from alk.git4 import psi_invariants, regular_embedding
from alk.numfield import FracIdeal, make_quad_field
from alk.quartics import dihedral_tower

theta_invariants_euclidean(euclidean_lattice([[1.5, 0.3], [0.3, 2.25]]))
F = make_quad_field(5)
bundle = make_bundle(F, FracIdeal.maximal_order(F), (1, 2))
gram = ideal_gram(bundle.ideal, [1, 4])
assert isinstance(gram[0][0], float)
assert direct_image(bundle).gram == tuple(map(tuple, gram))
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


def test_theta_duality_residual_on_random_lattices():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        lat = euclidean_lattice(random_posdef_gram(rng, n))
        rep = theta_invariants_euclidean(lat)
        assert abs(rep.h0 - rep.h1 - rep.adeg) < 1e-9


def test_scaled_integer_lattice_degree():
    lat = euclidean_lattice([[Fraction(1, 4)]])  # basis vector of length 1/2
    rep = theta_invariants_euclidean(lat)
    assert abs(rep.adeg - math.log(2.0)) < 1e-12


def test_degree_independent_of_chosen_section():
    rng = random.Random(5)
    for F in FIELDS:
        bundle = random_principal_bundle(rng, F)
        b1, b2 = sections_basis(bundle)
        assert abs(adeg_via_section(bundle, b1) - adeg_via_section(bundle, b2)) < 1e-12


def test_sections_are_read_as_elements_of_the_field():
    # a non-NFElem section was guarded by an assert only
    bundle = trivial_bundle(make_quad_field(2))
    assert adeg_via_section(bundle, 2) == adeg_via_section(bundle, bundle.field.elem(2))
    with pytest.raises(ValueError):
        adeg_via_section(bundle, make_quad_field(3).elem(1, 1))


def test_degree_of_dual_and_tensor():
    rng = random.Random(9)
    for F in FIELDS:
        b1 = random_principal_bundle(rng, F)
        b2 = random_principal_bundle(rng, F)
        assert abs(adeg(dual_bundle(b1)) + adeg(b1)) < 1e-12
        assert abs(adeg(tensor_bundle(b1, b2)) - adeg(b1) - adeg(b2)) < 1e-12


def test_canonical_module_degree_is_log_disc():
    for F in FIELDS:
        got = adeg(canonical_bundle(F))
        assert abs(got - math.log(F.disc)) < 1e-12


def test_h1_routes_agree():
    rng = random.Random(21)
    for F in FIELDS:
        for _ in range(3):
            bundle = random_principal_bundle(rng, F)
            from alk.arakelov import direct_image

            lat = direct_image(bundle)
            h1_direct, _, _ = enumeration.theta_log_sum(lat.dual().gram)
            assert abs(h1_direct - h1_via_duality(bundle)) < 1e-9


def test_box_sections_symmetric_and_contain_zero():
    rng = random.Random(17)
    for F in FIELDS:
        bundle = random_principal_bundle(rng, F)
        secs = box_sections(bundle)
        assert any(s.is_zero() for s in secs)
        as_set = {(s.a, s.b) for s in secs}
        assert all((-s.a, -s.b) in as_set for s in secs)


def test_unit_box_count_bounded_by_theta():
    rng = random.Random(33)
    for F in FIELDS:
        for _ in range(4):
            bundle = random_principal_bundle(rng, F)
            report, h0_ar = bundle_theta_and_h0ar(bundle)
            assert h0_ar <= report.h0 + math.pi * 2 + 1e-9


def test_trivial_bundle_h0ar():
    # unit box of O_F in Q(i): 0, units, and 1+i scale out; count is 9
    # only for radius 2 in the normalized scale, so radius 1 gives 5
    F = make_quad_field(-1)
    secs = box_sections(trivial_bundle(F))
    assert len(secs) == 5


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


def _theta_1d(g):
    """sum_k exp(-pi g k^2) over all integers k, summed until the terms
    underflow, far past any truncation radius."""
    kmax = math.isqrt(math.ceil(800 / (math.pi * g))) + 1
    return math.fsum(math.exp(-math.pi * g * k * k) for k in range(-kmax, kmax + 1))


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-6, 1e-3])
def test_theta_truncation_error_within_the_tail_bound(tail_tol):
    """On a diagonal lattice theta is a product of 1-D series, so h0 is
    known independently of the enumeration; the truncated sum may miss it
    only by less than the reported bound, which depends on the rank alone."""
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            diag = [Fraction(rng.randint(1, 100), 20) for _ in range(n)]
            gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            h0, radius, tail = enumeration.theta_log_sum(gram, tail_tol)
            want = math.fsum(math.log(_theta_1d(float(g))) for g in diag)
            assert tail < tail_tol
            assert -1e-14 <= want - h0 <= tail, (diag, want - h0, tail)
            lat = euclidean_lattice(gram)
            assert enumeration.theta_log_sum(lat.dual().gram, tail_tol)[1:] == (radius, tail)
            rep = theta_invariants_euclidean(lat, tail_tol)
            assert (rep.truncation_radius, rep.tail_bound) == (radius, tail)


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
    lat = euclidean_lattice([[1]])
    with pytest.raises(ValueError, match="tail tolerance"):
        enumeration.theta_log_sum(lat.gram, tail_tol)
    with pytest.raises(ValueError, match="tail tolerance"):
        theta_invariants_euclidean(lat, tail_tol)

import math
import random
from fractions import Fraction

import pytest

from alk.localgeom import (
    block_coordinates_gl4,
    block_integrality,
    different_and_orders,
    integrality_checks,
    local_coords,
    norm_index,
    normalizer_coset_rep,
    orbital_measure_split,
    orbital_measure_split_oracle,
    order_torus,
    psi_bound_finite,
    psi_invariant,
    psi_invariant_arch,
    reconstruct,
    standard_torus,
)
from alk.numfield import QuadField, conj, make_quad_field
from alk.ratlinalg import NotRational, mat_det, mat_inv, mat_mul
from conftest import gauss_jordan, random_gl2_zp, random_invertible


def _rational_entries(m):
    return [[x.a if hasattr(x, "a") else Fraction(x) for x in row] for row in m]


def test_embedding_is_multiplicative():
    rng = random.Random(4)
    torus = standard_torus(2)
    K = torus.K
    for _ in range(15):
        x = K.elem(rng.randint(-5, 5), rng.randint(-5, 5))
        y = K.elem(rng.randint(-5, 5), rng.randint(-5, 5))
        assert torus.embed(x * y) == mat_mul(torus.embed(x), torus.embed(y))
    assert torus.embed(K.elem(1)) == [[1, 0], [0, 1]]


def test_conjugator_diagonalizes_the_torus():
    """E^-1 embed(x) E = diag(x, conj x), with E^-1 from plain Gauss-Jordan
    elimination, and the torus's kernel gives the same matrix."""
    torus = order_torus(5, 2)
    K = torus.K
    x = K.elem(3, 2)
    e = torus.eigenbasis()
    emb = [[K.elem(v) for v in row] for row in torus.embed(x)]
    diag = mat_mul(mat_mul(gauss_jordan(e)[1], emb), e)
    assert diag[0][0] == x and diag[1][1] == conj(x)
    assert diag[0][1].is_zero() and diag[1][0].is_zero()
    assert torus.conjugate(torus.embed(x)) == diag


def _conjugate_by_eigenbasis(torus, gamma):
    """c gamma E with c = E^-1 from Gauss-Jordan elimination, over NFElem."""
    K, e = torus.K, torus.eigenbasis()
    g = [[K.elem(x) for x in row] for row in gamma]
    return mat_mul(mat_mul(gauss_jordan(e)[1], g), e)


def test_local_coords_are_the_conjugate_by_the_eigenbasis():
    """(b1, b2) is the top row of c gamma E on fractional gamma, at
    conductors 1 to 3 and at p = 2, through every caller of the kernel."""
    rng = random.Random(67)
    for D, p, f in ((-7, 2, 1), (-3, 2, 2), (-1, 2, 3), (2, 2, 2), (3, 3, 3),
                    (5, 2, 2), (5, 5, 3), (13, 2, 1)):
        ext = different_and_orders(D, p, f)
        for _ in range(8):
            gamma = [[Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(2)]
                     for _ in range(2)]
            det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
            if det == 0:
                continue
            want = _conjugate_by_eigenbasis(ext.torus, gamma)
            assert ext.torus.conjugate(gamma) == want
            lc = local_coords(ext.torus, gamma)
            assert (lc.b1, lc.b2) == (want[0][0], want[0][1])
            assert integrality_checks(ext, gamma)["coords"] == lc
            assert psi_bound_finite(ext, gamma)["psi"] == want[0][1].norm() / det


def test_malformed_matrices_are_refused():
    """A non-rational entry or a wrong shape raises ValueError; the kernel
    would otherwise read a misshapen gamma as the entries it has.  A float
    and a string were read through Fraction: 0.1 as its binary value and
    "1/2" as 1/2."""
    torus = standard_torus(2)
    K = torus.K
    for entry in (K.elem(0, 1), K.elem(1), complex(1, 1), 0.1, "1/2"):
        with pytest.raises(ValueError, match="rational"):
            local_coords(torus, [[entry, 0], [0, 1]])
    for entry in (K.elem(0, 1), 0.1, "1/2"):
        gamma = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        gamma[2][1] = entry
        for call in (block_coordinates_gl4, lambda F, g: block_integrality(F, g, 3)):
            with pytest.raises(ValueError, match="rational"):
                call(QuadField(2), gamma)
    for gamma in ([[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 2], [3, 4], [5, 6]], [[1, 2]]):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            local_coords(torus, gamma)
    for gamma in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0, 0, 0]] * 4,
                  [[1, 0, 0, 0]] * 5):
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            block_coordinates_gl4(QuadField(5), gamma)


def test_coordinates_reconstruct_the_matrix_exactly():
    rng = random.Random(8)
    for D, f in ((2, 1), (5, 1), (-1, 1), (5, 3)):
        torus = order_torus(D, f)
        for _ in range(10):
            gamma = random_invertible(rng, 2)
            lc = local_coords(torus, gamma)
            back = reconstruct(torus, lc)
            assert _rational_entries(back) == gamma


def test_determinant_equals_norm_difference():
    rng = random.Random(14)
    torus = standard_torus(2)
    for _ in range(20):
        gamma = random_invertible(rng, 2)
        lc = local_coords(torus, gamma)
        det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
        assert lc.b1.norm() - lc.b2.norm() == det


def test_unipotent_invariant_value():
    torus = standard_torus(2)
    gamma = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    assert psi_invariant(torus, gamma) == Fraction(-1, 2)


def test_invariant_is_bi_invariant_under_the_torus():
    rng = random.Random(23)
    torus = standard_torus(5)
    K = torus.K
    for _ in range(15):
        gamma = random_invertible(rng, 2)
        x = K.elem(rng.randint(1, 4), rng.randint(-3, 3))
        if x.norm() == 0:
            continue
        t = torus.embed(x)
        base = psi_invariant(torus, gamma)
        assert psi_invariant(torus, mat_mul(t, gamma)) == base
        assert psi_invariant(torus, mat_mul(gamma, t)) == base


def test_normalizer_coset():
    torus = standard_torus(2)
    w = normalizer_coset_rep(torus)
    lc = local_coords(torus, w)
    assert lc.b1.is_zero() and not lc.b2.is_zero()
    # det = -Nr(b2) = -1 here, so the invariant is -1
    assert psi_invariant(torus, w) == -1


def test_local_discriminants():
    assert different_and_orders(2, 2).disc_u == 8
    assert different_and_orders(5, 5).disc_u == 5
    assert different_and_orders(-1, 5).disc_u == 1
    # conductor f contributes f^2 to the norm of the different
    ext = different_and_orders(5, 3, 3)
    assert ext.disc_valuation == 2 and ext.disc_u == 9


def test_integral_matrices_have_integral_coordinates():
    rng = random.Random(31)
    for D, p, f in ((-1, 2, 1), (2, 2, 1), (5, 5, 1), (2, 3, 1), (5, 2, 1)):
        ext = different_and_orders(D, p, f)
        for _ in range(15):
            gamma = random_gl2_zp(rng, p)
            checks = integrality_checks(ext, gamma)
            assert checks["gamma_in_gl2_zp"]
            assert checks["all"], (D, p, f, gamma)


def test_invariant_bounded_by_local_discriminant():
    rng = random.Random(37)
    for D, p, f in ((2, 2, 1), (-1, 2, 1), (5, 5, 1), (5, 2, 1), (2, 3, 2)):
        ext = different_and_orders(D, p, f)
        for _ in range(25):
            res = psi_bound_finite(ext, random_gl2_zp(rng, p))
            assert res["ok"], (D, p, f, res)


def test_arch_invariant_matches_the_finite_route():
    s = 1.0 / math.sqrt(5.0)
    f = [[0.0, s], [2.0 * s, 0.0]]
    gamma = [[1, 1], [0, 1]]
    psi = psi_invariant_arch(f, gamma)
    assert abs(psi - (-0.5)) < 1e-9
    # f squares to (2/5) times the identity, so its algebra is the D = 2 one
    torus = standard_torus(2)
    exact = psi_invariant(torus, [[Fraction(1), Fraction(1)],
                                  [Fraction(0), Fraction(1)]])
    assert abs(float(exact) - psi.real) < 1e-9


# the tori of the sweep: standard ones, orders of conductor 1, 2, 3, 6 and -2,
# and the local orders of different_and_orders
_SWEEP_DS = (-15, -7, -3, -1, 2, 3, 5, 13, 17, 21)
_SWEEP_TORI = ([standard_torus(D) for D in _SWEEP_DS]
               + [order_torus(D, f) for D in _SWEEP_DS for f in (1, 2, 3, 6, -2)]
               + [different_and_orders(D, p, f).torus
                  for D, p, f in ((-7, 2, 1), (5, 5, 3), (13, 3, 2), (-15, 2, 6))])


def test_invariant_is_the_norm_of_the_conjugation_route():
    """psi_invariant against Nr(b2)/det with b2 from the torus's
    Conjugation, on 10,000 gamma over the tori above."""
    rng = random.Random(71)
    swept = 0
    while swept < 10_000:
        torus = rng.choice(_SWEEP_TORI)
        gamma = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2)]
                 for _ in range(2)]
        det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
        if det == 0:
            with pytest.raises(ValueError, match="gamma must be invertible"):
                psi_invariant(torus, gamma)
            continue
        assert psi_invariant(torus, gamma) == local_coords(torus, gamma).b2.norm() / det
        swept += 1


def _psi_by_definition(f, gamma):
    """-det(gamma - f gamma f^-1) / (4 det gamma) in Fractions, for f
    traceless: the determinant of [[0, 2 b2], [2 conj b2, 0]] on the
    eigenbasis, over 4 det gamma."""
    f = [[Fraction(x) for x in row] for row in f]
    gamma = [[Fraction(x) for x in row] for row in gamma]
    conj_gamma = mat_mul(mat_mul(f, gamma), mat_inv(f))
    diff = [[x - y for x, y in zip(r, s)] for r, s in zip(gamma, conj_gamma)]
    return -mat_det(diff) / (4 * mat_det(gamma))


def _random_float_matrix(rng):
    return [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(2)]


def test_arch_invariant_at_sqrt_d_is_the_finite_invariant():
    """At f = [[0, 1], [D, 0]], the matrix of sqrt(D), psi_invariant_arch
    is the finite invariant rounded once, on rational and float gamma."""
    rng = random.Random(73)
    for D in _SWEEP_DS:
        torus = standard_torus(D)
        for _ in range(40):
            gamma = random_invertible(rng, 2, span=9)
            assert psi_invariant_arch([[0, 1], [D, 0]], gamma) == float(psi_invariant(torus, gamma))
            gamma = _random_float_matrix(rng)
            exact = [[Fraction(x) for x in row] for row in gamma]
            assert psi_invariant_arch([[0, 1], [D, 0]], gamma) == float(psi_invariant(torus, exact))


def test_arch_invariant_is_the_exact_value_rounded_once():
    """On float f that are neither traceless nor of norm one, the value is
    the float of the exact definition; it does not change under
    f -> 3f + 2 and under conjugation of f and gamma by a rational P."""
    rng = random.Random(79)
    for _ in range(200):
        f, gamma = _random_float_matrix(rng), _random_float_matrix(rng)
        got = psi_invariant_arch(f, gamma)
        exact_f = [[Fraction(x) for x in row] for row in f]
        exact_gamma = [[Fraction(x) for x in row] for row in gamma]
        t = (exact_f[0][0] + exact_f[1][1]) / 2
        traceless = [[x - t * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(exact_f)]
        assert got == float(_psi_by_definition(traceless, gamma))
        assert psi_invariant_arch([[3 * x + 2 * (i == j) for j, x in enumerate(row)]
                                   for i, row in enumerate(exact_f)], gamma) == got
        p = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(2)]
             for _ in range(2)]
        if mat_det(p) == 0:
            continue
        p_inv = mat_inv(p)
        assert psi_invariant_arch(mat_mul(mat_mul(p, exact_f), p_inv),
                                  mat_mul(mat_mul(p, exact_gamma), p_inv)) == got


def test_arch_invariant_refusals():
    """f must generate a torus (n != 0) and gamma be invertible, both 2x2;
    a string or a complex entry is not a real number."""
    gamma = [[1, 1], [0, 1]]
    for f, g in (([[2.0, 0.0], [0.0, 2.0]], gamma), ([[0, 1], [0, 0]], gamma),
                 ([[3, 1], [-1, 1]], gamma),  # (f - 2)^2 = 0
                 ([[0, 1], [2, 0]], [[1, 2], [2, 4]]),
                 ([[0, 1, 0], [2, 0, 0], [0, 0, 1]], gamma),
                 ([[0, 1], [2, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
        with pytest.raises(ValueError):
            psi_invariant_arch(f, g)
    for bad in ("1", 1j):
        with pytest.raises(NotRational):
            psi_invariant_arch([[0, bad], [2, 0]], gamma)
        with pytest.raises(NotRational):
            psi_invariant_arch([[0, 1], [2, 0]], [[bad, 1], [0, 1]])


def test_invariant_of_400_digit_entries():
    """gamma with 400-digit entries: the formula's integers pass 1,600
    digits and stay integers; run under a limit of 640 digits on
    int <-> text conversion, a step that wrote one out would fail."""
    rng = random.Random(83)
    big = 10 ** 400
    for D, f in ((2, 1), (-7, 3), (13, 2)):
        torus = order_torus(D, f)
        for _ in range(3):
            gamma = [[Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(2)]
                     for _ in range(2)]
            psi = psi_invariant(torus, gamma)
            assert psi == _psi_by_definition(torus.generator, gamma)
            assert abs(psi.numerator) > 10 ** 1600 or psi.denominator > 10 ** 1600
            assert psi_invariant_arch(torus.generator, gamma) == float(psi)


def test_split_orbital_formula_matches_enumeration():
    rng = random.Random(41)
    assert orbital_measure_split(Fraction(8), "split_nonarch", q=2) == 4.0
    assert orbital_measure_split_oracle(Fraction(8), 2) == 4
    for _ in range(60):
        q = rng.choice([2, 3, 5])
        psi = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if psi == 0 or psi == -1:
            continue
        got = orbital_measure_split(psi, "split_nonarch", q=q)
        assert got == orbital_measure_split_oracle(psi, q)


def test_orbital_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        orbital_measure_split(Fraction(0), "split_nonarch", q=2)
    with pytest.raises(ValueError):
        orbital_measure_split(Fraction(-1), "split_nonarch", q=2)
    # a missing q or radius, or a radius that is not positive, is named
    with pytest.raises(ValueError, match="residue field size q"):
        orbital_measure_split(Fraction(8), "split_nonarch")
    for kind in ("split_real", "split_complex"):
        for radius in (None, 0, -1, Fraction(-1, 2), 0.0):
            with pytest.raises(ValueError, match=f"{kind} needs a positive radius"):
                orbital_measure_split(Fraction(1, 4), kind, radius=radius)


def test_field_case_is_an_indicator():
    assert orbital_measure_split(Fraction(1), "field_nonarch",
                                 in_inverse_different=True) == 1.0
    assert orbital_measure_split(Fraction(1), "field_nonarch",
                                 in_inverse_different=False) == 0.0


def test_archimedean_orbital_positive_ranges():
    v = orbital_measure_split(Fraction(1, 4), "split_real", radius=10.0)
    t1 = math.log(4.0) + 2 * math.log(10.0)
    t2 = math.log(1 / abs(1.25)) + 2 * math.log(10.0)
    assert abs(v - 4.0 * t1 * t2) < 1e-12
    assert orbital_measure_split(Fraction(1, 4), "split_real", radius=0.1) == 0.0


def test_norm_image_indices():
    assert norm_index(different_and_orders(-1, 2)) == 2
    assert norm_index(different_and_orders(5, 5)) == 2
    assert norm_index(different_and_orders(-1, 5)) == 1
    assert norm_index(different_and_orders(2, 3)) == 1


def test_block_coordinates_pattern_and_identity():
    rng = random.Random(47)
    F = QuadField(2)
    ident = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    bc = block_coordinates_gl4(F, ident)
    assert bc["pattern_ok"]
    assert all(bc["A2"][i][j].is_zero() for i in range(2) for j in range(2))
    for _ in range(10):
        gamma = random_invertible(rng, 4)
        assert block_coordinates_gl4(F, gamma)["pattern_ok"]


def test_block_coordinates_are_the_conjugate_by_c1():
    """The blocks are those of c1 gamma c1^-1 with c1 = P diag(c, c), P the
    involution swapping coordinates 1 and 2, c = E^-1 and c1^-1 all from
    plain Gauss-Jordan elimination."""
    rng = random.Random(59)
    for d, f in ((2, 1), (5, 1), (-1, 2), (-3, 1), (13, 3), (-7, 2)):
        F = make_quad_field(d)
        alpha = F.omega * f
        zero, one = F.elem(0), F.elem(1)
        c = gauss_jordan([[one, one], [alpha, conj(alpha)]])[1]
        c1 = [c[0] + [zero, zero], [zero, zero] + c[0], c[1] + [zero, zero],
              [zero, zero] + c[1]]
        for _ in range(3):
            gamma = random_invertible(rng, 4)
            bc = block_coordinates_gl4(F, gamma, f)
            g = [[F.elem(x) for x in row] for row in gamma]
            m = mat_mul(mat_mul(c1, g), gauss_jordan(c1)[1])
            assert bc["A1"] == [row[:2] for row in m[:2]]
            assert bc["A2"] == [row[2:] for row in m[:2]]
            assert bc["pattern_ok"]
            assert [row[2:] for row in m[2:]] == [[conj(x) for x in r] for r in bc["A1"]]
            assert [row[:2] for row in m[2:]] == [[conj(x) for x in r] for r in bc["A2"]]


def test_one_torus_per_order():
    # block_coordinates_gl4 reads the conjugation table of this cached torus
    torus = order_torus(13, 3)
    assert order_torus(13, 3) is torus and order_torus(13, 3).conjugate is torus.conjugate
    assert order_torus(13, 2) is not torus and order_torus(5, 3) is not torus


def test_block_integrality_of_integral_matrices():
    rng = random.Random(53)
    F = make_quad_field(5)
    for _ in range(10):
        gamma = [[Fraction(rng.randint(-8, 8)) for _ in range(4)]
                 for _ in range(4)]
        res = block_integrality(F, gamma, 5)
        assert res["pattern_ok"]
        assert res["in_inv_different"] and res["difference_integral"]


def test_block_integrality_refuses_singular_matrices():
    F = make_quad_field(5)
    rank_two = [[Fraction(int(i == j and i < 2)) for j in range(4)] for i in range(4)]
    for gamma in ([[Fraction(0)] * 4 for _ in range(4)], rank_two):
        with pytest.raises(ValueError, match="gamma must be invertible"):
            block_integrality(F, gamma, 5)

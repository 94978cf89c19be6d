import math
import random
from fractions import Fraction

import pytest

from alk.localgeom import (
    arch_conjugator,
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
from alk.ratlinalg import mat_mul
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
    would otherwise read a misshapen gamma as the entries it has."""
    torus = standard_torus(2)
    K = torus.K
    for entry in (K.elem(0, 1), K.elem(1), complex(1, 1)):
        with pytest.raises(ValueError, match="rational"):
            local_coords(torus, [[entry, 0], [0, 1]])
    gamma = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    gamma[2][1] = K.elem(0, 1)
    with pytest.raises(ValueError, match="rational"):
        block_coordinates_gl4(QuadField(2), gamma)
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


def test_arch_conjugator_diagonalizes():
    s = 1.0 / math.sqrt(5.0)
    f = [[0.0, s], [2.0 * s, 0.0]]
    c, alpha = arch_conjugator(f)
    diag = mat_mul(mat_mul(c, [[complex(x) for x in r] for r in f]), gauss_jordan(c)[1])
    assert abs(diag[0][0] - alpha) < 1e-12
    assert abs(diag[1][1] + alpha) < 1e-12
    assert abs(diag[0][1]) < 1e-12 and abs(diag[1][0]) < 1e-12


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


def test_arch_conjugator_rejects_bad_generators():
    with pytest.raises(ValueError):
        arch_conjugator([[1.0, 0.0], [0.0, 1.0]])  # not traceless
    with pytest.raises(ValueError):
        arch_conjugator([[0.0, 2.0], [2.0, 0.0]])  # wrong norm


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

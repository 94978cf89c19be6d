import cmath
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alk import quartics
from alk.git4 import (
    ALL_PERMS,
    IDENTITY,
    BowenBall,
    block_membership_test,
    bowen_membership,
    bowen_membership_loop,
    conjugated_matrix,
    content_vanishing_detector,
    entropy_quantities,
    galois_structures,
    pattern_and_relation_check,
    perm_compose,
    perm_inverse,
    perm_sign,
    psi_invariants,
    psi_sum_check,
    regular_embedding,
    tau_window,
)
from alk.intarith import is_square_fraction, squarefree_kernel
from alk.nfpoly import NFElem
from alk.numfield import conj, make_quad_field, make_tower
from alk.ratlinalg import mat_det, mat_mul
from alk.toralsets import classify_galois_type
from conftest import gauss_jordan, random_invertible, random_tower

CYCLIC = quartics.zeta5_tower()
BIQUAD = quartics.biquadratic_tower(2, 3)
DIHEDRAL = quartics.dihedral_tower(2, 1, 1)


def test_permutation_algebra():
    s = (2, 3, 1, 0)
    assert perm_compose(s, perm_inverse(s)) == IDENTITY
    assert perm_sign(IDENTITY) == 1
    assert perm_sign((1, 0, 2, 3)) == -1
    assert perm_sign(s) == perm_sign(perm_inverse(s))


def test_galois_structure_group_orders():
    assert len(galois_structures("biquadratic").image) == 4
    assert len(galois_structures("cyclic").image) == 4
    assert len(galois_structures("dihedral").image) == 8
    with pytest.raises(ValueError):
        galois_structures("quintic")


def test_regular_matrix_satisfies_the_minimal_polynomial():
    emb = regular_embedding(CYCLIC)
    theta = emb.regular_matrix((0, 1, 0, 0))
    n = 4
    acc = [[CYCLIC.theta_min_poly[0] if i == j else Fraction(0)
            for j in range(n)] for i in range(n)]
    power = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in CYCLIC.theta_min_poly[1:]:
        power = mat_mul(power, theta)
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
    assert all(x == 0 for row in acc for x in row)


def test_conjugation_diagonalizes_regular_matrices():
    emb = regular_embedding(CYCLIC)
    m = conjugated_matrix(emb, emb.regular_matrix((1, 2, 0, 1)))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert all(c == 0 for c in m[i][j].coeffs)


def _seeded_dihedral_make_tower(seed):
    rng = random.Random(seed)
    while True:
        d = rng.choice([-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13])
        F = make_quad_field(d)
        delta = F.elem(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        try:
            tower = make_tower(F, delta)
        except ValueError:  # delta a square in F
            continue
        if classify_galois_type(tower) == "dihedral":
            return tower


@pytest.mark.parametrize("tower", [
    CYCLIC, quartics.gaussian_period_tower(13), BIQUAD, quartics.sqrt2plus_tower(),
    DIHEDRAL, _seeded_dihedral_make_tower(23),
], ids=["zeta5", "gauss13", "biquadratic", "sqrt2plus", "dihedral", "make_tower"])
def test_conjugation_table_equals_the_matrix_product(tower):
    emb = regular_embedding(tower)
    table = emb.conjugation_table
    rng = random.Random(31)
    gammas = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)]
               for _ in range(4)] for _ in range(4)]
    gammas += [[[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)] for _ in range(2)]
    gammas.append([[int(i == j) for j in range(4)] for i in range(4)])
    for gamma in gammas:
        want = mat_mul(mat_mul(emb.g_inv, [[Fraction(x) for x in row] for row in gamma]),
                       emb.g)
        got = conjugated_matrix(emb, gamma)
        for got_row, want_row in zip(got, want):
            for x, y in zip(got_row, want_row):
                assert x.field is emb.closure
                assert (x.num, x.den) == (y.num, y.den)
    assert emb.conjugation_table is table  # built once per embedding


def _seeded_towers_per_type(count):
    rng = random.Random(43)
    seen = {"biquadratic": [], "cyclic": [], "dihedral": []}
    while min(map(len, seen.values())) < count:
        tower = random_tower(rng)
        if tower is not None and len(seen[classify_galois_type(tower)]) < count:
            seen[classify_galois_type(tower)].append(tower)
    return [t for towers in seen.values() for t in towers]


def test_g_inv_from_the_trace_form_is_the_inverse():
    """g^-1 = g^T (Tr theta^(i+k))^-1 is the inverse of g, equal to plain
    Gauss-Jordan elimination over the closure."""
    towers = [CYCLIC, quartics.sqrt2plus_tower(), BIQUAD, quartics.biquadratic_tower(-1, 5),
              DIHEDRAL, quartics.dihedral_tower(-1, 1, 2), quartics.gaussian_period_tower(13),
              quartics.gaussian_period_tower(29)] + _seeded_towers_per_type(10)
    for tower in towers:
        emb = regular_embedding(tower)
        one, zero = emb.closure.one(), emb.closure.elem(0)
        assert mat_mul(emb.g, emb.g_inv) == [[one if i == j else zero for j in range(4)]
                                             for i in range(4)]
        want = gauss_jordan(emb.g)[1]
        assert [[(x.num, x.den) for x in row] for row in emb.g_inv] == \
            [[(x.num, x.den) for x in row] for row in want]


def test_sqrt_d_matrix_is_built_once_and_immutable():
    emb = regular_embedding(DIHEDRAL)
    sd = emb.sqrt_d_matrix
    assert emb.sqrt_d_matrix is sd and isinstance(sd, tuple)
    assert all(isinstance(row, tuple) for row in sd)
    assert mat_mul(sd, sd) == [[Fraction(2 if i == j else 0) for j in range(4)]
                               for i in range(4)]


def test_identity_profile_is_a_delta():
    for tower in (CYCLIC, BIQUAD):
        emb = regular_embedding(tower)
        ident = [[Fraction(1 if i == j else 0) for j in range(4)]
                 for i in range(4)]
        prof = psi_invariants(emb, ident)
        for s, v in prof.values:
            assert v == (1 if s == IDENTITY else 0)


def test_invariants_sum_to_one():
    rng = random.Random(3)
    for tower in (CYCLIC, BIQUAD, DIHEDRAL):
        emb = regular_embedding(tower)
        for _ in range(5):
            assert psi_sum_check(emb, random_invertible(rng, 4)) == 1


def test_dihedral_values_keep_only_genuine_rationals():
    gamma = [[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    emb = regular_embedding(DIHEDRAL)
    assert emb.closure.min_poly == (1681, 0, -460, 0, 146, 0, -20, 0, 1)
    profile = psi_invariants(emb, gamma)
    rational = {s: v for s, v in profile.values if isinstance(v, Fraction)}
    assert rational == {(0, 1, 2, 3): Fraction(7, 4), (1, 0, 3, 2): Fraction(-1, 64)}
    others = [v for s, v in profile.values if s not in rational]
    assert len(others) == 22
    assert all(isinstance(v, NFElem) and any(v.num[1:]) for v in others)


def _read_fixed(num, root, bits):
    """num[0] + num[1] x + ... at a Gaussian fixed-point root (re, im)
    scaled by 2^bits, in the same scaling."""
    x = y = 0
    for c in reversed(num):
        x, y = ((x * root[0] - y * root[1]) >> bits) + (c << bits), \
            (x * root[1] + y * root[0]) >> bits
    return x, y


@pytest.mark.parametrize("bits", [53, 128])
def test_float_route_keeps_only_genuine_rationals(bits):
    """Read at all eight roots of the closure polynomial to `bits` bits, each
    non-rational value of the dihedral profile has conjugates a float route
    could not mistake for one rational, and they sum to its exact trace."""
    gamma = [[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    emb = regular_embedding(DIHEDRAL)
    # delta = 1 + sqrt 2: u = sqrt(delta) is real, v = sqrt(conj delta) imaginary
    one = 1 << bits
    sqrt2 = math.isqrt(2 << 2 * bits)
    u, v = (math.isqrt((one + sqrt2) << bits), 0), (0, math.isqrt((sqrt2 - one) << bits))
    roots = [(e1 * p[0] + 2 * e2 * q[0], e1 * p[1] + 2 * e2 * q[1])
             for p, q in ((u, v), (v, u)) for e1 in (1, -1) for e2 in (1, -1)]

    def tol(num):  # rounding and root errors in units of 2^-bits; |root| < 5
        return 16 * (1 + sum(abs(c) * 5 ** i for i, c in enumerate(num)))

    min_poly = [int(c) for c in emb.closure.min_poly]
    for r in roots:
        assert all(abs(t) < tol(min_poly) for t in _read_fixed(min_poly, r, bits))
    nonrational = 0
    for _, value in psi_invariants(emb, gamma).values:
        if isinstance(value, Fraction):
            continue
        nonrational += 1
        tol_v = tol(value.num)
        readings = [_read_fixed(value.num, r, bits) for r in roots]
        trace = value.trace() * value.den * one
        assert abs(sum(x for x, _ in readings) - trace) < 8 * tol_v
        assert abs(sum(y for _, y in readings)) < 8 * tol_v
        assert max(abs(x - readings[0][0]) + abs(y - readings[0][1])
                   for x, y in readings) > 4 * tol_v
    assert nonrational == 22


def _roots_satisfy_the_minimal_polynomial(emb):
    for r in emb.g[1]:
        acc = emb.closure.elem(0)
        for c in reversed(emb.tower.theta_min_poly):
            acc = acc * r + c
        assert acc == 0


def _float_oracle_agrees(emb, a, b, d, gamma):
    """Psi values of a float embedding built from the roots +-sqrt(a +- b
    sqrt(d)) alone, against the exact values read at eta = u + 2v."""
    sd = cmath.sqrt(d)
    u, v = cmath.sqrt(a + b * sd), cmath.sqrt(a - b * sd)
    roots = (u, -u, v, -v)
    g = [[r ** i for r in roots] for i in range(4)]
    g_inv = gauss_jordan(g)[1]
    m = mat_mul(mat_mul(g_inv, [[complex(x) for x in row] for row in gamma]), g)
    det = float(mat_det(gamma))
    eta = u + 2 * v
    for s, value in psi_invariants(emb, gamma).values:
        want = perm_sign(s) * math.prod(m[s[i]][i] for i in range(4)) / det
        got = value.embed(eta) if isinstance(value, NFElem) else complex(value)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (s, got, want)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(-30, 30), a=st.integers(-4, 4), b=st.integers(-3, 3).filter(bool),
       seed=st.integers(0, 2 ** 16))
def test_dihedral_closures(d, a, b, seed):
    assume(d not in (0, 1) and squarefree_kernel(d) == d)
    n = a * a - d * b * b
    assume(not is_square_fraction(n) and not is_square_fraction(Fraction(n, d)))
    emb = regular_embedding(quartics.dihedral_tower(d, a, b))
    assert emb.closure.degree == 8
    _roots_satisfy_the_minimal_polynomial(emb)
    assert frozenset(emb.galois_image) == galois_structures("dihedral").image
    gamma = random_invertible(random.Random(seed), 4)
    assert psi_sum_check(emb, gamma) == 1
    _float_oracle_agrees(emb, a, b, d, gamma)


def _tower(d, delta):
    return make_tower(make_quad_field(d), make_quad_field(d).elem(*delta))


@pytest.mark.parametrize("build, gtype", [
    pytest.param(lambda: _tower(2, (2, 1)), "cyclic", id="d2-cyclic"),  # Nr = sqrt(2)^2
    pytest.param(lambda: _tower(3, (2, 1)), "biquadratic", id="d3-biquadratic"),  # Nr = 1
    pytest.param(lambda: _tower(2, (3, 0)), "biquadratic", id="d2-rational-delta"),
] + [pytest.param(lambda p=p: quartics.gaussian_period_tower(p), "cyclic", id=f"gauss{p}")
     for p in (5, 13, 17, 29)])
def test_galois_towers_close_in_K(build, gtype):
    tower = build()
    assert classify_galois_type(tower) == gtype
    emb = regular_embedding(tower)
    assert emb.closure.degree == 4
    _roots_satisfy_the_minimal_polynomial(emb)
    assert frozenset(emb.galois_image) == galois_structures(gtype).image
    rng = random.Random(5)
    for _ in range(3):
        assert pattern_and_relation_check(emb, random_invertible(rng, 4), gtype)["pass"]


@pytest.mark.parametrize("tower", [CYCLIC, BIQUAD, DIHEDRAL, quartics.sqrt2plus_tower(),
                                   quartics.gaussian_period_tower(13)])
def test_inconsistent_tower_data_is_refused(tower):
    regular_embedding(tower)
    wrong = [dataclasses.replace(tower, alpha=tower.alpha + 1),
             dataclasses.replace(tower, sqrt_d_coords=tuple(-c for c in tower.sqrt_d_coords)),
             dataclasses.replace(tower, sqrt_d_coords=tuple(2 * c for c in tower.sqrt_d_coords))]
    if tower.alpha != 0:
        wrong.append(dataclasses.replace(tower, alpha=conj(tower.alpha)))
    for bad in wrong:
        with pytest.raises(ArithmeticError):
            regular_embedding(bad)


def test_galois_image_matches_the_structure_tables():
    assert frozenset(regular_embedding(CYCLIC).galois_image) \
        == galois_structures("cyclic").image
    assert frozenset(regular_embedding(BIQUAD).galois_image) \
        == galois_structures("biquadratic").image


def test_relation_and_pattern_check_per_type():
    rng = random.Random(7)
    cases = ((CYCLIC, "cyclic"), (BIQUAD, "biquadratic"),
             (DIHEDRAL, "dihedral"))
    for tower, gtype in cases:
        emb = regular_embedding(tower)
        for _ in range(8):
            res = pattern_and_relation_check(emb, random_invertible(rng, 4), gtype)
            assert res["pass"], (gtype, res)


def test_wrong_type_fails_the_image_check():
    emb = regular_embedding(CYCLIC)
    gamma = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    gamma[0][1] = Fraction(1)
    res = pattern_and_relation_check(emb, gamma, "biquadratic")
    assert not res["image_matches"]


def test_block_membership_routes_agree():
    rng = random.Random(13)
    cases = ((CYCLIC, "cyclic"), (BIQUAD, "biquadratic"),
             (DIHEDRAL, "dihedral"))
    for tower, gtype in cases:
        emb = regular_embedding(tower)
        # elements of the field algebra sit inside the block
        for _ in range(6):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
            gamma = emb.regular_matrix(coeffs)
            if mat_det([row[:] for row in gamma]) == 0:
                continue
            res = block_membership_test(emb, gamma, gtype)
            assert res["in_R"] and res["vanishing"] and res["routes_agree"]
        for _ in range(6):
            res = block_membership_test(emb, random_invertible(rng, 4), gtype)
            assert res["routes_agree"]


def test_content_detector_forces_vanishing_consistently():
    emb = regular_embedding(CYCLIC)
    gs = galois_structures("cyclic")
    eta = {s: 1.0 for s in ALL_PERMS}
    gamma = emb.regular_matrix((1, 1, 0, 0))
    profile = psi_invariants(emb, gamma, "cyclic")
    res = content_vanishing_detector(profile, gs, disc=2.0, tau=10.0,
                                     eta_sigma=eta, in_R=True)
    assert res["forced_zero"]
    with pytest.raises(ArithmeticError):
        content_vanishing_detector(profile, gs, disc=2.0, tau=10.0,
                                   eta_sigma=eta, in_R=False)
    res = content_vanishing_detector(profile, gs, disc=2.0, tau=0.0,
                                     eta_sigma=eta, in_R=False)
    assert not res["forced_zero"]


def test_entropy_worked_example():
    p = 2
    ent = entropy_quantities([Fraction(4), Fraction(2), Fraction(1, 2),
                              Fraction(1, 4)], p)
    lp = math.log(p)
    assert abs(ent.eta["cyclic"] - 12 * lp) < 1e-12
    assert abs(ent.h_int - 2 * lp) < 1e-12
    assert abs(ent.h_haar - 14 * lp) < 1e-12
    assert ent.in_A_prime


def test_entropy_symmetric_under_inversion():
    rng = random.Random(17)
    for _ in range(10):
        t = [Fraction(2) ** rng.randint(-3, 3) for _ in range(4)]
        ent = entropy_quantities(t, 2)
        for s in ALL_PERMS:
            # same multiset of terms, summed in a different order
            assert abs(ent.eta_sigma[s] - ent.eta_sigma[perm_inverse(s)]) < 1e-12


@pytest.mark.parametrize("p", [4, 6])
def test_non_prime_places_are_rejected(p):
    # entropy_quantities read base-p "valuations" at p = 4
    with pytest.raises(ValueError, match="not a prime"):
        entropy_quantities([Fraction(1), Fraction(2), Fraction(3), Fraction(4)], p)
    with pytest.raises(ValueError, match="not a prime"):
        BowenBall(p, (Fraction(1, 2), Fraction(2)), 1)


def test_archimedean_entropy_route():
    ent = entropy_quantities([4.0, 2.0, 0.5, 0.25])
    assert abs(ent.h_haar - 14 * math.log(2)) < 1e-9


def test_tau_window_worked_example():
    lp = math.log(2)
    win = tau_window(12 * lp, 2 * lp, 2 ** 60, 2 ** 4)
    assert abs(win["lo"] - 2.5) < 1e-9
    assert abs(win["hi"] - 12.0) < 1e-9
    assert not win["empty"]


def test_refined_window_only_shrinks():
    lp = math.log(2)
    base = tau_window(12 * lp, 2 * lp, 2 ** 60, 2 ** 4)
    ref = tau_window(12 * lp, 2 * lp, 2 ** 60, 2 ** 4, mode="refined",
                     eps=0.05, beta=1.0)
    assert ref["hi"] <= base["hi"] + 1e-12
    assert ref["lo"] == base["lo"]
    with pytest.raises(ValueError):
        tau_window(1.0, 1.0, 100, 2, mode="refined")


def test_window_can_be_empty():
    win = tau_window(0.1, 10.0, 100, 2)
    assert win["empty"]


def test_bowen_worked_example():
    ball2 = BowenBall(2, (Fraction(1, 2), Fraction(2)), 2)
    ball3 = BowenBall(2, (Fraction(1, 2), Fraction(2)), 3)
    x = [[Fraction(1), Fraction(16)], [Fraction(0), Fraction(1)]]
    assert bowen_membership(x, ball2) and bowen_membership_loop(x, ball2)
    assert not bowen_membership(x, ball3)
    assert not bowen_membership_loop(x, ball3)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    tau=st.integers(0, 3),
    exps=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    entries=st.lists(st.integers(-8, 8), min_size=4, max_size=4),
    scales=st.lists(st.integers(-1, 2), min_size=4, max_size=4),
)
def test_bowen_closed_form_equals_the_loop(p, tau, exps, entries, scales):
    ball = BowenBall(p, tuple(Fraction(p) ** e for e in exps), tau)
    x = [[Fraction(entries[0]) * Fraction(p) ** scales[0],
          Fraction(entries[1]) * Fraction(p) ** scales[1]],
         [Fraction(entries[2]) * Fraction(p) ** scales[2],
          Fraction(entries[3]) * Fraction(p) ** scales[3]]]
    assert bowen_membership(x, ball) == bowen_membership_loop(x, ball)

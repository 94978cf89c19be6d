import cmath
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alk import git4, quartics
from alk.git4 import (
    ALL_PERMS,
    IDENTITY,
    BowenBall,
    block_membership_test,
    bowen_membership,
    bowen_membership_loop,
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
from alk.intarith import is_prime, is_square_fraction, squarefree_kernel
from alk.nfpoly import NFElem, NumberField
from alk.numfield import conj, make_quad_field, make_tower, norm_square_class
from alk.ratlinalg import integer_matrix, mat_det, mat_mul
from alk.toralsets import classify_galois_type
from conftest import (PowerBasisField, conjugate_all, eta_closure, gauss_jordan, random_invertible,
                      random_tower)

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


def test_regular_matrix_takes_at_most_four_coordinates():
    emb = regular_embedding(CYCLIC)
    assert emb.regular_matrix((0, 1)) == emb.regular_matrix((0, 1, 0, 0))
    with pytest.raises(ValueError, match="5 coordinates for a quartic field"):
        emb.regular_matrix((0, 0, 0, 0, 1))


def test_conjugation_diagonalizes_regular_matrices():
    emb = regular_embedding(CYCLIC)
    m = conjugate_all(emb.conjugation_table, emb.regular_matrix((1, 2, 0, 1)))
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


CURATED = [CYCLIC, quartics.gaussian_period_tower(13), BIQUAD, quartics.sqrt2plus_tower(),
           DIHEDRAL, _seeded_dihedral_make_tower(23)]


CURATED_IDS = ["zeta5", "gauss13", "biquadratic", "sqrt2plus", "dihedral", "make_tower"]


@pytest.mark.parametrize("case", CURATED, ids=CURATED_IDS)
def test_conjugation_table_equals_the_matrix_product(case):
    """Every entry of git4's g^-1 gamma g on a curated tower has the
    (num, den) of the matrix product, on fractional, integral and identity
    gammas."""
    emb = regular_embedding(case)
    table = emb.conjugation_table
    rng = random.Random(31)
    gammas = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)]
               for _ in range(4)] for _ in range(4)]
    gammas += [[[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)] for _ in range(2)]
    gammas.append([[int(i == j) for j in range(4)] for i in range(4)])
    for gamma in gammas:
        want = mat_mul(mat_mul(emb.g_inv, [[Fraction(x) for x in row] for row in gamma]), emb.g)
        for got_row, want_row in zip(conjugate_all(table, gamma), want):
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


def _psi_oracle(emb, gamma, perms):
    """Psi_s one monomial at a time: three closure products, then the sign,
    then 1/det, each an NFElem product."""
    det = mat_det([[Fraction(x) for x in row] for row in gamma])
    m = conjugate_all(emb.conjugation_table, gamma)
    vals = []
    for s in perms:
        prod = m[s[0]][0]
        for i in range(1, 4):
            prod = prod * m[s[i]][i]
        v = prod * Fraction(perm_sign(s), 1) / det
        vals.append((s, Fraction(v.num[0], v.den) if not any(v.num[1:]) else v))
    return vals


def _oracle_gammas():
    """Non-integral entries with det < 0, the same with two rows swapped
    (det > 0), and integral ones with det -2 and 1."""
    rng = random.Random(37)
    gammas = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)]
               for _ in range(4)] for _ in range(2)]
    gammas.append([gammas[1][1], gammas[1][0]] + gammas[1][2:])
    gammas += [[[3, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]],
               [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, -1], [0, 0, 0, 1]]]
    assert any(mat_det(g) < 0 for g in gammas) and any(mat_det(g) > 0 for g in gammas)
    assert any(Fraction(x).denominator != 1 for g in gammas for row in g for x in row)
    return gammas


@pytest.mark.parametrize("towers", [
    pytest.param(CURATED, id="curated"),
    pytest.param(_seeded_towers_per_type(5), id="seeded"),
])
def test_psi_values_equal_the_per_monomial_oracle(towers):
    gammas = _oracle_gammas()
    for tower in towers:
        emb = regular_embedding(tower)
        gtype = classify_galois_type(tower)
        for perms in (ALL_PERMS, galois_structures(gtype).special):
            for gamma in gammas:
                got = git4._psi_values(emb, gamma, perms)[1]
                want = _psi_oracle(emb, gamma, perms)
                assert [s for s, _ in got] == list(perms)
                for (s, x), (_, y) in zip(got, want):
                    assert type(x) is type(y), s
                    if isinstance(x, NFElem):
                        assert x.field is emb.closure
                        assert (x.num, x.den) == (y.num, y.den), s
                    else:
                        assert x == y, s


@pytest.mark.parametrize("towers", [
    pytest.param(CURATED, id="curated"),
    pytest.param(_seeded_towers_per_type(50), id="seeded"),
])
def test_orbit_route_equals_the_direct_route(towers):
    """psi_invariants, which forms Psi only on orbit representatives and
    derives the rest by automorphisms, equals the direct route value for
    value: same type, same field, same (num, den)."""
    gammas = _oracle_gammas()
    for tower in towers:
        emb = regular_embedding(tower)
        for gamma in gammas:
            got = psi_invariants(emb, gamma).values
            want = git4._psi_values(emb, gamma, ALL_PERMS)[1]
            assert [s for s, _ in got] == list(ALL_PERMS)
            for (s, x), (_, y) in zip(got, want):
                assert type(x) is type(y), s
                if isinstance(x, NFElem):
                    assert x.field is emb.closure
                    assert (x.num, x.den) == (y.num, y.den), s
                else:
                    assert x == y, s


@pytest.mark.parametrize("tower, n_reps, n_products", [(CYCLIC, 10, 22), (BIQUAD, 12, 28),
                                                       (DIHEDRAL, 8, 19)],
                         ids=["cyclic", "biquadratic", "dihedral"])
def test_orbit_plan_covers_every_permutation_once(tower, n_reps, n_products):
    emb = regular_embedding(tower)
    reps, derived = emb.psi_plan
    assert emb.psi_plan is emb.psi_plan  # built once per embedding
    assert len(reps) == n_reps
    covered = list(reps) + [s for s, _, _ in derived]
    assert sorted(covered) == sorted(ALL_PERMS)
    # P and Q products of the representatives, then one product per value
    assert len({s[:2] for s in reps}) + len({s[2:] for s in reps}) + len(reps) == n_products
    rho_of = {id(tau): rho for tau, rho in zip(emb.automorphisms, emb.galois_image)}
    for s, r, tau in derived:
        rho = rho_of[id(tau)]
        assert s == perm_compose(perm_compose(rho, reps[r]), perm_inverse(rho))
    # the group-level plan is the same for every embedding with this image
    assert [(s, r) for s, r, _ in derived] == \
        [(s, r) for s, r, _ in git4._orbit_plan(frozenset(emb.galois_image))[1]]


@pytest.mark.parametrize("tower, gtype", [(CYCLIC, "cyclic"), (BIQUAD, "biquadratic"),
                                          (DIHEDRAL, "dihedral")],
                         ids=["cyclic", "biquadratic", "dihedral"])
def test_a_wrong_orbit_plan_changes_the_sum_but_not_the_relation_check(tower, gtype):
    """With every derived value taken as its representative's (the
    identity for tau), psi_sum_check leaves 1, while
    pattern_and_relation_check, which forms all 24 values directly, gives
    the same result."""
    emb = regular_embedding(tower)
    gamma = random_invertible(random.Random(13), 4)
    before = pattern_and_relation_check(emb, gamma, gtype)
    assert before["pass"] and psi_sum_check(emb, gamma) == 1
    reps, derived = emb.psi_plan
    identity = emb.automorphisms[emb.galois_image.index(IDENTITY)]
    emb.__dict__["psi_plan"] = (reps, tuple((s, r, identity) for s, r, _ in derived))
    assert psi_sum_check(emb, gamma) != 1
    assert pattern_and_relation_check(emb, gamma, gtype) == before


@pytest.mark.parametrize("gamma", [
    [[1, 2, 3, 4], [1, 2], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1, 5]],
], ids=["short_row", "long_row"])
def test_malformed_gamma_is_named(gamma):
    emb = regular_embedding(CYCLIC)
    for call in (lambda: psi_invariants(emb, gamma),
                 lambda: block_membership_test(emb, gamma, "cyclic"),
                 lambda: pattern_and_relation_check(emb, gamma, "cyclic")):
        with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
            call()


@pytest.mark.parametrize("entry", [0.1, "1/2"], ids=["float", "string"])
def test_non_rational_gamma_is_refused(entry):
    # a float or a string entry was read through Fraction, and answered
    emb = regular_embedding(CYCLIC)
    gamma = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    gamma[1][2] = entry
    ball = BowenBall(2, (Fraction(1, 2), Fraction(2)), 1)
    for call in (lambda: psi_invariants(emb, gamma),
                 lambda: block_membership_test(emb, gamma, "cyclic"),
                 lambda: bowen_membership([[1, 0], [0, entry]], ball)):
        with pytest.raises(ValueError, match="rational"):
            call()


def _relations_on_every_automorphism(emb, gamma):
    """(entry, profile) relations checked for every automorphism of the
    closure, not only for generators: the oracle of
    pattern_and_relation_check."""
    m, vals = git4._psi_values(emb, gamma, ALL_PERMS)
    values = [v for _, v in vals]
    entry_ok = profile_ok = True
    for tau, rho in zip(emb.automorphisms, emb.galois_image):
        if any(tau(m[i][j]) != m[rho[i]][rho[j]] for i in range(4) for j in range(4)):
            entry_ok = False
        for v, k in zip(values, git4._CONJUGATION[rho]):
            if (tau(v) if isinstance(v, NFElem) else v) != values[k]:
                profile_ok = False
    return entry_ok, profile_ok


def _relations(emb, gamma, gtype):
    res = pattern_and_relation_check(emb, gamma, gtype)
    assert (res["entry_relation"], res["profile_relation"]) == \
        _relations_on_every_automorphism(emb, gamma)
    return res


@pytest.mark.parametrize("tower, gtype, count", [(CYCLIC, "cyclic", 1),
                                                 (BIQUAD, "biquadratic", 2),
                                                 (DIHEDRAL, "dihedral", 2)],
                         ids=["cyclic", "biquadratic", "dihedral"])
def test_relation_checks_fail_on_a_changed_value(monkeypatch, tower, gtype, count):
    """One wrong entry of the conjugated matrix, or one wrong Psi value,
    turns the matching relation False, on the generators as on every
    automorphism.  The entries are read through `git4._entries`, the one
    place where the Psi values conjugate gamma."""
    emb = regular_embedding(tower)
    assert len(emb.generators) == count
    gamma = random_invertible(random.Random(11), 4)
    assert _relations(emb, gamma, gtype)["pass"]
    entries, psi_values = git4._entries, git4._psi_values

    def wrong_entry(emb, v, e, perms):
        m = entries(emb, v, e, perms)
        m[0][1] = m[0][1] + 1
        return m

    monkeypatch.setattr(git4, "_entries", wrong_entry)
    res = _relations(emb, gamma, gtype)
    assert not res["entry_relation"] and not res["pass"]
    monkeypatch.setattr(git4, "_entries", entries)

    def wrong_value(emb, gamma, perms):
        # the transposition (0 1) is moved by conjugation in every image
        m, vals = psi_values(emb, gamma, perms)
        return m, [(s, v + 1 if s == (1, 0, 2, 3) else v) for s, v in vals]

    monkeypatch.setattr(git4, "_psi_values", wrong_value)
    res = _relations(emb, gamma, gtype)
    assert res["entry_relation"] and not res["profile_relation"] and not res["pass"]


def _power_basis_closure(tower):
    """(L, sqrt(d), u, v) of the closure on a power basis, as it was built
    before Kummer coordinates: K itself on theta's power basis when K/Q is
    abelian, with u = theta - alpha and v = u, r/u or r sqrt(d)/u
    (r^2 = Nr(delta) or Nr(delta)/d), and eta_closure's degree-8 field when
    K is dihedral."""
    if classify_galois_type(tower) == "dihedral":
        return eta_closure(tower)
    K = PowerBasisField(tower.theta_min_poly)
    sqrt_d = K.elem(tower.sqrt_d_coords)
    u = K.gen - (sqrt_d * tower.alpha.b + tower.alpha.a)
    if tower.delta.b == 0:
        return K, sqrt_d, u, u
    kind, r = norm_square_class(tower.delta)
    return K, sqrt_d, u, (r if kind == "biquadratic" else sqrt_d * r) / u


def _power_basis_profile(tower, gamma):
    """(g, Psi values) in the power-basis closure: g from the root formula,
    g^-1 by Gauss-Jordan, and each Psi one monomial at a time."""
    L, sqrt_d, u, v = _power_basis_closure(tower)
    alpha, alpha_bar = (sqrt_d * x.b + x.a for x in (tower.alpha, conj(tower.alpha)))
    roots = [alpha + u, alpha - u, alpha_bar + v, alpha_bar - v]
    g = [[r ** i for r in roots] for i in range(4)]
    m = mat_mul(mat_mul(gauss_jordan(g)[1], [[Fraction(x) for x in row] for row in gamma]), g)
    det = mat_det(gamma)
    values = []
    for s in ALL_PERMS:
        x = m[s[0]][0] * m[s[1]][1] * m[s[2]][2] * m[s[3]][3] * Fraction(perm_sign(s)) / det
        values.append(x.coeffs[0] if not any(x.coeffs[1:]) else x)
    return (L, sqrt_d, u, v), g, values


@pytest.mark.parametrize("towers", [
    pytest.param([CYCLIC, quartics.gaussian_period_tower(13), BIQUAD, quartics.sqrt2plus_tower(),
                  quartics.biquadratic_tower(-1, 5), DIHEDRAL, quartics.dihedral_tower(-1, 1, 2),
                  quartics.dihedral_tower(2, 10 ** 12, 13), _seeded_dihedral_make_tower(23)],
                 id="curated"),
    pytest.param(_seeded_towers_per_type(30), id="seeded"),
])
def test_kummer_closure_equals_the_power_basis_closure(towers):
    """The map sqrt(d) -> sqrt(d), u -> c u, v -> c v from the Kummer
    closure to the power-basis closure (theta's, or eta's) carries g and
    every non-rational Psi value to those computed there, and the rational
    values are equal Fractions."""
    rng = random.Random(47)
    for tower in towers:
        emb = regular_embedding(tower)
        gamma = random_invertible(rng, 4)
        (L, sqrt_d, u, v), g, values = _power_basis_profile(tower, gamma)
        c = _scale(emb)
        images = [L.one()]
        for y in (sqrt_d, u * c, v * c)[:len(emb.closure.squares)]:
            images += [x * y for x in images]

        def to_power_basis(x):
            return sum((img * a for a, img in zip(x.coeffs, images) if a), L.elem(0))

        assert [[to_power_basis(x) for x in row] for row in emb.g] == g
        for (s, x), y in zip(psi_invariants(emb, gamma).values, values):
            assert isinstance(x, Fraction) == isinstance(y, Fraction), s
            assert (x if isinstance(x, Fraction) else to_power_basis(x)) == y, s


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
    for tower in (DIHEDRAL, quartics.gaussian_period_tower(13)):
        emb = regular_embedding(tower)
        sd = emb.sqrt_d_matrix
        assert emb.sqrt_d_matrix is sd and isinstance(sd, tuple)
        assert all(isinstance(row, tuple) and all(type(x) is int for x in row)
                   for row in sd)
        # a positive integer multiple c of sqrt(d)'s regular representation
        reg = emb.regular_matrix(tower.sqrt_d_coords)
        i, j = next((i, j) for i in range(4) for j in range(4) if reg[i][j])
        c = sd[i][j] / reg[i][j]
        assert c > 0 and [[c * x for x in row] for row in reg] == [list(row) for row in sd]
        d = tower.base.d
        assert mat_mul(sd, sd) == [[d * c * c if i == j else 0 for j in range(4)]
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
    # sqrt(2), u = sqrt(1 + sqrt 2) and v = sqrt(1 - sqrt 2)
    assert emb.closure == NumberField(squares=((2, 0), (1, 1), (1, -1)))
    profile = psi_invariants(emb, gamma)
    rational = {s: v for s, v in profile.values if isinstance(v, Fraction)}
    assert rational == {(0, 1, 2, 3): Fraction(7, 4), (1, 0, 3, 2): Fraction(-1, 64)}
    others = [v for s, v in profile.values if s not in rational]
    assert len(others) == 22
    assert all(isinstance(v, NFElem) and any(v.num[1:]) for v in others)


def _read_fixed(num, gens, bits):
    """sum_i num[i] e_i at Gaussian fixed-point values (re, im) of the
    Kummer generators, scaled by 2^bits, in the same scaling; e_i is the
    product of the generators at the set bits of i."""
    monos = [(1 << bits, 0)]
    for g in gens:
        monos += [((x * g[0] - y * g[1]) >> bits, (x * g[1] + y * g[0]) >> bits)
                  for x, y in monos]
    return (sum(c * x for c, (x, _) in zip(num, monos)),
            sum(c * y for c, (_, y) in zip(num, monos)))


@pytest.mark.parametrize("bits", [53, 128])
def test_float_route_keeps_only_genuine_rationals(bits):
    """Read at all eight complex embeddings of (sqrt d, u, v) to `bits`
    bits, each non-rational value of the dihedral profile has conjugates a
    float route could not mistake for one rational, and they sum to its
    exact trace."""
    gamma = [[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    emb = regular_embedding(DIHEDRAL)
    # delta = 1 + sqrt 2: at sqrt(2) > 0, u = sqrt(delta) is real and
    # v = sqrt(conj delta) imaginary; at sqrt(2) < 0 they trade places
    one = 1 << bits
    sqrt2 = math.isqrt(2 << 2 * bits)
    re, im = (math.isqrt((one + sqrt2) << bits), 0), (0, math.isqrt((sqrt2 - one) << bits))
    embeddings = [((e * sqrt2, 0), (s * p[0], s * p[1]), (t * q[0], t * q[1]))
                  for e, p, q in ((1, re, im), (-1, im, re)) for s in (1, -1) for t in (1, -1)]

    def tol(num):  # rounding and root errors in units of 2^-bits; |e_i| < 8
        return 16 * (1 + sum(8 * abs(c) for c in num))

    for sd, u, v in embeddings:
        # sqrt(d)^2 = 2, u^2 = 1 + sqrt(d) and v^2 = 1 - sqrt(d) at each
        for x, want in ((sd, (2, 0)), (u, (1, 1)), (v, (1, -1))):
            square = _read_fixed([0, 0, 0, 1], (x, x), bits)  # e_3 = x x
            target = (want[0] * one + want[1] * sd[0], want[1] * sd[1])
            assert all(abs(a - b) < tol([1, 1]) for a, b in zip(square, target))
    nonrational = 0
    for _, value in psi_invariants(emb, gamma).values:
        if isinstance(value, Fraction):
            continue
        nonrational += 1
        tol_v = tol(value.num)
        readings = [_read_fixed(value.num, gens, bits) for gens in embeddings]
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


def _scale(emb):
    """c with roots alpha +- u/c and conj(alpha) +- v/c for the Kummer
    generators u and v of the closure."""
    return 2 / (emb.g[1][0] - emb.g[1][1]).coeffs[2]


def _at(value, gens):
    """An element of a Kummer closure at complex values of its generators
    (sqrt d, u[, v])."""
    monos = [1]
    for g in gens:
        monos += [m * g for m in monos]
    return sum(float(c) * m for c, m in zip(value.coeffs, monos))


def _float_oracle_agrees(emb, a, b, d, gamma):
    """Psi values of a float embedding built from the roots +-sqrt(a +- b
    sqrt(d)) alone, against the exact values read at the complex embedding
    sqrt(d), c sqrt(a + b sqrt d), c sqrt(a - b sqrt d) of the closure's
    generators."""
    sd = cmath.sqrt(d)
    u, v = cmath.sqrt(a + b * sd), cmath.sqrt(a - b * sd)
    roots = (u, -u, v, -v)
    g = [[r ** i for r in roots] for i in range(4)]
    g_inv = gauss_jordan(g)[1]
    m = mat_mul(mat_mul(g_inv, [[complex(x) for x in row] for row in gamma]), g)
    det = float(mat_det(gamma))
    c = float(_scale(emb))
    for s, value in psi_invariants(emb, gamma).values:
        want = perm_sign(s) * math.prod(m[s[i]][i] for i in range(4)) / det
        got = _at(value, (sd, c * u, c * v)) if isinstance(value, NFElem) else complex(value)
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
    """_check_roots refuses sqrt(d) coordinates that are not derived from
    (F, delta, alpha), written over the cached ones."""
    regular_embedding(tower)
    for scale in (-1, 2):
        bad = dataclasses.replace(tower)
        bad.__dict__["sqrt_d_coords"] = tuple(scale * c for c in tower.sqrt_d_coords)
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
            res = _relations(emb, random_invertible(rng, 4), gtype)
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


def _commutation_gammas(rng, emb):
    """Random gammas, regular matrices of field elements (in the block),
    the same with one entry moved by 1, and gammas with a zero row or a
    zero column."""
    gammas = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
               for _ in range(4)] for _ in range(4)]
    for _ in range(4):
        gamma = emb.regular_matrix(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(4)))
        gammas.append(gamma)
        near = [row[:] for row in gamma]
        near[rng.randrange(4)][rng.randrange(4)] += 1
        gammas.append(near)
    for k in range(4):
        gamma = emb.regular_matrix((rng.randint(1, 3), rng.randint(-3, 3), 0, 1))
        gammas.append([[0] * 4 if i == k else row for i, row in enumerate(gamma)])
        gammas.append([[0 if j == k else x for j, x in enumerate(row)] for row in gamma])
    gammas.append([[0] * 4 for _ in range(4)])
    return gammas


@pytest.mark.parametrize("towers, least_entry", [
    pytest.param(CURATED, 0, id="curated"),
    pytest.param(_seeded_towers_per_type(5), 0, id="seeded"),
    # sqrt(d)'s matrix holds an int beyond a 640-digit limit on int <-> text
    # conversion, so the kernel must take it as a closure cell
    pytest.param([quartics.dihedral_tower(2, Fraction("1e-400"), Fraction("1e400"))], 10 ** 640,
                 id="long_dihedral"),
])
def test_commutation_kernel_equals_the_matrix_products(towers, least_entry):
    """The generated commutation test of each embedding decides
    sd gamma = gamma sd as two matrix products do, on gammas in and out of
    the block and on singular ones, and block_membership_test's in_R is its
    answer.  Some entry of some sd is above least_entry."""
    rng = random.Random(53)
    seen = set()
    largest = 0
    for tower in towers:
        emb = regular_embedding(tower)
        sd = [list(row) for row in emb.sqrt_d_matrix]
        largest = max(largest, *(abs(x) for row in sd for x in row))
        for gamma in _commutation_gammas(rng, emb):
            want = mat_mul(sd, gamma) == mat_mul(gamma, sd)
            seen.add(want)
            v = [x for row in integer_matrix(gamma)[0] for x in row]
            assert emb.commutation_test(v) is want
            if mat_det(gamma) != 0:
                gtype = classify_galois_type(tower)
                assert block_membership_test(emb, gamma, gtype)["in_R"] is want
        assert emb.commutation_test is emb.commutation_test  # built once per embedding
    assert seen == {True, False}
    assert largest > least_entry


def test_block_test_makes_no_matrix_product(monkeypatch):
    """Once sqrt(d)'s matrix is built, a block test decides commutation by
    its generated linear forms, with no matrix product."""
    cases = ((CYCLIC, "cyclic"), (BIQUAD, "biquadratic"), (DIHEDRAL, "dihedral"))
    rng = random.Random(54)
    runs = []
    for tower, gtype in cases:
        emb = regular_embedding(tower)
        emb.sqrt_d_matrix
        runs += [(emb, emb.regular_matrix((1, 2, 0, 1)), gtype, True),
                 (emb, random_invertible(rng, 4), gtype, False)]

    def refuse(a, b):
        raise AssertionError("mat_mul called")

    monkeypatch.setattr(git4, "mat_mul", refuse)
    for emb, gamma, gtype, in_block in runs:
        res = block_membership_test(emb, gamma, gtype)
        assert res["in_R"] is in_block and res["routes_agree"]


def test_clear_takes_det_from_the_cleared_rows():
    """git4._clear's det, read from Bareiss on the integer rows, is
    mat_det(gamma), row swaps included; a singular gamma is refused."""
    rng = random.Random(32)
    for k in range(40):
        gamma = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
                 for _ in range(4)]
        gamma[0][0] = Fraction(0) if k % 2 else gamma[0][0]  # odd k: a swap at the first pivot
        if mat_det(gamma) == 0:
            continue
        v, e, det = git4._clear(gamma)
        assert det == mat_det(gamma) and type(det) is Fraction
        assert [Fraction(x, e) for x in v] == [x for row in gamma for x in row]
    singular = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="^gamma must be invertible$"):
        git4._clear(singular)


def test_dihedral_block_test_derives_one_special_value():
    """On D4 the two special 4-cycles lie in one orbit, so the block test
    forms Psi of the first and takes the second as its image under an
    automorphism: both equal the values formed directly, on random gammas
    and on elements of the field algebra (where both vanish), over
    several dihedral towers.  On C4 and V4 no rho of the image conjugates
    one to the other."""
    rng = random.Random(31)
    towers = [DIHEDRAL, quartics.dihedral_tower(5, 2, 3), quartics.dihedral_tower(3, -1, 1),
              quartics.dihedral_tower(2, Fraction(1, 3), Fraction(-5, 2))]
    special = galois_structures("dihedral").special
    for tower in towers:
        assert classify_galois_type(tower) == "dihedral"
        emb = regular_embedding(tower)
        assert git4._conjugator(emb.galois_image, *special) is not None
        gammas = [random_invertible(rng, 4) for _ in range(6)]
        gammas.append(emb.regular_matrix((1, 2, 0, 1)))
        for gamma in gammas:
            got = block_membership_test(emb, gamma, "dihedral")["psi_sp_values"]
            want = git4._psi_values(emb, gamma, special)[1]
            assert list(got) == [s for s, _ in want]
            for (_, x), (_, y) in zip(got.items(), want):
                assert type(x) is type(y)
                assert (x.num, x.den) == (y.num, y.den) if isinstance(x, NFElem) else x == y
    for tower, gtype in ((CYCLIC, "cyclic"), (BIQUAD, "biquadratic")):
        image = regular_embedding(tower).galois_image
        assert git4._conjugator(image, *galois_structures(gtype).special) is None


def test_content_detector_forces_vanishing_consistently():
    emb = regular_embedding(CYCLIC)
    gs = galois_structures("cyclic")
    eta = {s: 1.0 for s in ALL_PERMS}
    res = content_vanishing_detector(gs, disc=2.0, tau=10.0,
                                     eta_sigma=eta, in_R=True)
    assert res["forced_zero"]
    with pytest.raises(ArithmeticError):
        content_vanishing_detector(gs, disc=2.0, tau=10.0,
                                   eta_sigma=eta, in_R=False)
    res = content_vanishing_detector(gs, disc=2.0, tau=0.0,
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


def _a_prime_by_valuations(v):
    """3 (|v1 - v2| + |v3 - v4|) < sum_(i<j) |vi - vj|."""
    h_haar = sum(abs(x - y) for x, y in itertools.combinations(v, 2))
    return 3 * (abs(v[0] - v[1]) + abs(v[2] - v[3])) < h_haar


def test_a_prime_at_finite_places_is_decided_on_valuations():
    """At diag(1, 1, 1, 1/17), h_int = log 17 = h_haar / 3, so the strict
    test is false; in floats h_haar / 3.0 rounded above h_int.  The sweep
    takes every prime below 2,000 and the valuation patterns (up to a
    shift) whose two sides differ by at most 1."""
    assert not entropy_quantities([1, 1, 1, Fraction(1, 17)], 17).in_A_prime
    patterns = [v for v in itertools.product((-1, 0, 1), repeat=3)
                if abs(3 * (abs(v[0]) + abs(v[1] - v[2]))
                       - sum(abs(x - y) for x, y in itertools.combinations((0,) + v, 2))) <= 1]
    assert len(patterns) == 15
    for p in range(2, 2000):
        if not is_prime(p):
            continue
        for v in patterns:
            v = (0,) + v
            ent = entropy_quantities([Fraction(p) ** x for x in v], p)
            assert ent.in_A_prime == _a_prime_by_valuations(v), (p, v)


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

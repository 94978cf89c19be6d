import dataclasses
import math
import random
from fractions import Fraction

import pytest

from alk import quartics
from alk.git4 import regular_embedding
from alk.numfield import make_tower, make_quad_field
from alk.ratlinalg import NotRational
from alk.toralsets import (
    arch_disc,
    arch_disc_from_basis,
    classify_galois_type,
    cyclic_disc_check,
    divisor_bound_check,
    linnik_rhs,
    linnik_rhs_special,
    make_descriptor,
    nonarch_and_global_disc,
    quad_field_of_square,
)
from conftest import PowerBasisField, random_tower


def test_square_class_of_the_radicand():
    assert quad_field_of_square(Fraction(8)).d == 2
    assert quad_field_of_square(Fraction(-12)).d == -3
    assert quad_field_of_square(Fraction(5, 4)).d == 5


def test_quadratic_descriptor_discriminants():
    tower = make_tower(None, Fraction(2))
    desc = make_descriptor(tower)
    data = nonarch_and_global_disc(desc)
    assert data["disc_u"] == {2: 8}
    assert data["disc_fin"] == 8
    assert data["maximal_type"]
    # a conductor at 3 multiplies in the local square
    desc3 = make_descriptor(tower, {3: 3})
    data3 = nonarch_and_global_disc(desc3)
    assert data3["disc_u"] == {2: 8, 3: 9}
    assert data3["disc_fin"] == 72
    assert not data3["maximal_type"]


def test_descriptor_conductors_sit_at_primes():
    tower = make_tower(None, Fraction(2))
    for key in (1, 4, 0, -3):
        with pytest.raises(ValueError, match="at primes"):
            make_descriptor(tower, {key: 2})
    # primes and conductors are read by operator.index: no string, and no
    # float truncated to an integer
    for conductors in ({"3": 3}, {3: 3.7}, {3.9: 3}):
        with pytest.raises(TypeError):
            make_descriptor(tower, conductors)


def test_quartic_descriptor_uses_the_certified_discriminant():
    tower = quartics.zeta5_tower()
    data = nonarch_and_global_disc(make_descriptor(tower))
    assert data["disc_fin"] == 5  # 125 / 5^2
    data2 = nonarch_and_global_disc(make_descriptor(tower, {2: 2}))
    assert data2["disc_fin"] == 5 * 2 ** 4



def test_quartic_local_discriminants_are_read_on_integers():
    # D_K / D_F^2 by an integer divmod, each local factor from the integer's
    # factorization: D_K = 13^3 and conductors 13 and 9 give 13 * 13^4 * 3^8
    tower = quartics.gaussian_period_tower(13)
    data = nonarch_and_global_disc(make_descriptor(tower, {13: 13, 3: 9}))
    assert data["disc_u"] == {3: 3 ** 8, 13: 13 ** 5} and list(data["disc_u"]) == [3, 13]
    assert data["disc_fin"] == 3 ** 8 * 13 ** 5 and type(data["disc_fin"]) is int
    assert all(type(v) is int for v in data["disc_u"].values())
    for dk in (13 ** 3 + 1, 13 ** 3 * 4 + 13):
        bad = dataclasses.replace(tower, declared_DK=dk)
        with pytest.raises(ArithmeticError, match=r"^declared D_K not divisible by D_F\^2$"):
            nonarch_and_global_disc(make_descriptor(bad))

def test_quartic_descriptor_requires_certification():
    tower = quartics.dihedral_tower(2, 1, 1)
    with pytest.raises(ValueError):
        nonarch_and_global_disc(make_descriptor(tower))


def test_archimedean_discriminant_worked_value():
    # Grams [[2, 0], [0, 5]] (entrywise) and [[2, 0], [0, 4]] (trace), exact
    assert arch_disc([[0, 1], [2, 0]]) == 1.25


def test_archimedean_discriminant_rejects_a_singular_trace_form():
    ident = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="singular"):
        arch_disc_from_basis([ident, [[2, 0], [0, 2]]])


def test_archimedean_discriminant_is_basis_independent():
    rng = random.Random(29)
    k = [[0.0, 1.0], [2.0, 0.0]]
    ident = [[1.0, 0.0], [0.0, 1.0]]
    base = arch_disc_from_basis([ident, k])
    for _ in range(10):
        u = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if u[0][0] * u[1][1] - u[0][1] * u[1][0] == 0:
            continue
        b1 = [[u[0][0] * ident[i][j] + u[0][1] * k[i][j] for j in range(2)]
              for i in range(2)]
        b2 = [[u[1][0] * ident[i][j] + u[1][1] * k[i][j] for j in range(2)]
              for i in range(2)]
        assert arch_disc_from_basis([b1, b2]) == base  # det(u)^2 cancels exactly


def test_arch_disc_needs_traceless_input():
    with pytest.raises(ValueError):
        arch_disc([[1, 0], [0, 1]])
    # the trace is decided exactly: 1e-10 is not zero
    with pytest.raises(ValueError, match="traceless"):
        arch_disc([[1e-10, 1], [2, 0]])


def test_arch_disc_is_exact():
    """The powers of k are exact: the nilpotent k = [[-2, -4/3], [3, 2]]
    spans no torus algebra, and its exact trace Gram is singular (float
    rounding of k^2 = 0 gave 4.2e16); entries of 10^400 answer 1.0 (they
    overflowed a float), under a limit of 640 digits on int <-> text
    conversion; 11/9 is rounded once."""
    with pytest.raises(ValueError, match="singular"):
        arch_disc([[-2, Fraction(-4, 3)], [3, 2]])
    big = 10 ** 400
    assert arch_disc([[0, big], [big, 0]]) == 1.0
    assert arch_disc([[Fraction(1, 2), 1], [2, Fraction(-1, 2)]]) == float(Fraction(11, 9))


def test_arch_disc_beyond_the_float_range_is_refused():
    """An exact ratio beyond the float range is refused with its size as a
    power of 10 (float() of it raised Python's bare "integer division
    result too large for a float"); at 10^300 it answers, rounded once."""
    for e, answer in ((200, None), (150, float((Fraction(10) ** 300 + Fraction(10) ** -300) / 2))):
        k = [[0, Fraction(1, 10 ** e)], [10 ** e, 0]]
        if answer is not None:
            assert arch_disc(k) == answer
            continue
        with pytest.raises(ValueError, match=r"^Archimedean discriminant of about 10\^400 is "
                                             r"beyond the float range$"):
            arch_disc(k)
        with pytest.raises(ValueError, match=r"about 10\^400 "):
            arch_disc_from_basis([[[1, 0], [0, 1]], k])


def test_arch_disc_reads_real_numbers():
    """Entries are read by `ratlinalg.real`: a string or a complex is no
    real number."""
    ident = [[1, 0], [0, 1]]
    for bad in ("1", "1/2", 1j):
        with pytest.raises(NotRational):
            arch_disc([[0, bad], [2, 0]])
        with pytest.raises(NotRational):
            arch_disc_from_basis([ident, [[0, bad], [2, 0]]])


def _rational_roots_cubic(coeffs) -> list[Fraction]:
    """Exact rational roots of a cubic, coefficients low-degree first, by
    the rational root theorem: every divisor pair of the cleared constant
    and leading coefficient is tried."""
    c = [Fraction(x) for x in coeffs]
    den = math.lcm(*(x.denominator for x in c))
    ic = [int(x * den) for x in c]
    while ic and ic[-1] == 0:
        ic.pop()
    roots = set()
    if ic[0] == 0:
        roots.add(Fraction(0))
        ic = ic[1:]
    lead, const = ic[-1], ic[0]

    def divisors(n):
        n = abs(n)
        return {k for i in range(1, math.isqrt(n) + 1) if n % i == 0 for k in (i, n // i)}

    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(co * cand ** i for i, co in enumerate(ic)) == 0:
                    roots.add(cand)
    return sorted(roots)


def resolvent_cubic(min_poly) -> tuple:
    """Resolvent cubic y^3 - q y^2 + (pr - 4s) y - (p^2 s - 4 q s + r^2) of
    x^4 + p x^3 + q x^2 + r x + s, coefficients low-degree first."""
    s, r, q, p, lead = [Fraction(c) for c in min_poly]
    assert lead == 1
    return (-(p * p * s - 4 * q * s + r * r), p * r - 4 * s, -q, Fraction(1))


def _resolvent_roots(tower):
    return len(_rational_roots_cubic(resolvent_cubic(tower.theta_min_poly)))


def _agrees_with_the_resolvent(tower):
    """classify_galois_type against the resolvent oracle: 3 rational roots
    for a biquadratic tower, 1 for a cyclic or dihedral one."""
    gtype = classify_galois_type(tower)
    assert _resolvent_roots(tower) == (3 if gtype == "biquadratic" else 1), gtype
    return gtype


def test_resolvent_cubic_roots_separate_the_types():
    assert _resolvent_roots(quartics.biquadratic_tower(2, 3)) == 3
    assert _resolvent_roots(quartics.zeta5_tower()) == 1
    assert _resolvent_roots(quartics.dihedral_tower(2, 1, 1)) == 1
    assert _rational_roots_cubic((0, -1, 0, 1)) == [-1, 0, 1]
    assert _rational_roots_cubic((Fraction(-1, 4), 0, 0, 2)) == [Fraction(1, 2)]


def test_every_quartic_constructor_agrees_with_the_resolvent():
    cyclic = [quartics.zeta5_tower(), quartics.sqrt2plus_tower()]
    cyclic += [quartics.gaussian_period_tower(p)
               for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97)]
    assert [_agrees_with_the_resolvent(t) for t in cyclic] == ["cyclic"] * 12
    for d, e in ((2, 3), (5, -1), (-1, -3), (3, 7), (-7, 2)):
        assert _agrees_with_the_resolvent(quartics.biquadratic_tower(d, e)) == "biquadratic"
    for d, a, b in ((2, 1, 1), (5, 1, 1), (-1, 1, 2), (3, Fraction(1, 2), 3)):
        assert _agrees_with_the_resolvent(quartics.dihedral_tower(d, a, b)) == "dihedral"


def test_seeded_towers_agree_with_the_resolvent():
    rng = random.Random(41)
    seen = {"biquadratic": 0, "cyclic": 0, "dihedral": 0}
    for _ in range(90):
        tower = random_tower(rng)
        if tower is not None:
            seen[_agrees_with_the_resolvent(tower)] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("build", (quartics.zeta5_tower, lambda: quartics.biquadratic_tower(2, 3),
                                   lambda: quartics.dihedral_tower(2, 1, 1),
                                   lambda: quartics.gaussian_period_tower(13)))
def test_tower_data_off_theta_norm_polynomial_is_an_error(build):
    """A theta_min_poly that is not N((x - alpha)^2 - delta), written over
    the cached one, is refused by the root check of the embedding; alpha + 1
    is another consistent tower, whose theta is shifted by 1."""
    tower = build()
    for i in range(4):
        bad = dataclasses.replace(tower)
        mp = list(tower.theta_min_poly)
        mp[i] += 1
        bad.__dict__["theta_min_poly"] = tuple(mp)
        with pytest.raises(ArithmeticError):
            regular_embedding(bad)
    shifted = dataclasses.replace(tower, alpha=tower.alpha + 1)
    x = PowerBasisField(tower.theta_min_poly).gen
    assert sum(c * (x + 1) ** i for i, c in enumerate(shifted.theta_min_poly)) == 0
    assert classify_galois_type(shifted) == classify_galois_type(tower)


def test_classification_contradiction_is_an_error():
    F = make_quad_field(2)
    delta = F.elem(1, 1)  # dihedral datum
    tower = make_tower(F, delta, galois_hint="cyclic")
    with pytest.raises(ArithmeticError):
        classify_galois_type(tower)


def test_cyclic_discriminant_inequality_worked_values():
    res = cyclic_disc_check(quartics.zeta5_tower())
    assert (res["D_K"], res["D_F"], res["D_rel"]) == (125, 5, 5)
    assert res["pass"]
    assert res["decomposition"] == {"W": 1, "d": 5, "form": "W^2*d"}
    res = cyclic_disc_check(quartics.sqrt2plus_tower())
    assert (res["D_K"], res["D_F"], res["D_rel"]) == (2048, 8, 32)
    assert res["pass"]
    assert res["decomposition"]["W"] == 4 and res["decomposition"]["d"] == 2


def test_cyclic_decomposition_over_every_relative_discriminant():
    # D_rel = W^2 d with d > 1 squarefree, and no decomposition for a square
    tower = quartics.zeta5_tower()
    for n in range(1, 20000):
        res = cyclic_disc_check(dataclasses.replace(tower, declared_DK=25 * n))
        assert res["D_rel"] == n
        dec = res["decomposition"]
        if math.isqrt(n) ** 2 == n:
            assert dec is None, n
        else:
            assert dec["form"] == "W^2*d" and dec["d"] > 1, n
            assert dec["W"] ** 2 * dec["d"] == n, n


def test_cyclic_check_rejects_other_types():
    with pytest.raises(ValueError):
        cyclic_disc_check(quartics.biquadratic_tower(2, 3))


def test_rhs_value_and_hypothesis_flag():
    res = linnik_rhs(1e6, 1e3, 1.0, math.log(10.0), 0.0)
    assert abs(res["value"] - (1e-3 + 1e-2)) < 1e-15
    assert res["in_hypothesis"] and res["status"] == "ok"
    past = linnik_rhs(1e6, 1e3, res["tau_max"] + 0.01, math.log(10.0), 0.0)
    assert past["status"] == "out_of_hypothesis"
    at_edge = linnik_rhs(1e6, 1e3, res["tau_max"], math.log(10.0), 0.0)
    assert at_edge["status"] == "ok"


def test_special_shape_matches_the_generic_decaying_term():
    disc, df, tau, h, eps = 1e8, 5.0, 1.5, math.log(3.0), 0.02
    special = linnik_rhs_special(disc, df, tau, h, eps)
    generic = linnik_rhs(disc, math.sqrt(disc) * df, tau, h, eps, D_F=df)
    rel = abs(special["terms"]["disc"] - generic["terms"]["disc"])
    assert rel < 1e-12 * special["terms"]["disc"]
    assert abs(special["terms"]["volume"] - disc ** (-0.5 + eps)) < 1e-18


def test_rhs_input_validation():
    with pytest.raises(ValueError):
        linnik_rhs(-1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        linnik_rhs_special(1.0, 1.0, -1.0, 1.0, 0.0)


def test_divisor_count_bound():
    tower = make_tower(None, Fraction(2))
    res = divisor_bound_check(make_descriptor(tower))
    assert res["b"] == 0 and res["pass"]
    res3 = divisor_bound_check(make_descriptor(tower, {3: 3}))
    assert res3["b"] == 1
    assert res3["2^b"] <= res3["divisor_count"] and res3["pass"]
    quartic = divisor_bound_check(make_descriptor(quartics.zeta5_tower()))
    assert quartic["b"] == 1 and quartic["pass"]
    # b counts the odd primes of the field discriminant and of the conductors
    for delta, conductors, b in ((2, {3: 3, 5: 5}, 2), (2, {2: 4}, 0), (2, {3: -3}, 1),
                                 (2, {7: 1}, 0), (-15, {}, 2), (-15, {3: 9}, 2),
                                 (-15, {7: 7, 2: 2}, 3)):
        res = divisor_bound_check(make_descriptor(make_tower(None, Fraction(delta)),
                                                  conductors))
        assert res["b"] == b and res["pass"], (delta, conductors, res)

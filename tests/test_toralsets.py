import math
import random
from fractions import Fraction

import pytest

from alk import quartics
from alk.numfield import make_tower, make_quad_field
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
    resolvent_cubic,
)


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


def test_quartic_descriptor_uses_the_certified_discriminant():
    tower = quartics.zeta5_tower()
    data = nonarch_and_global_disc(make_descriptor(tower))
    assert data["disc_fin"] == 5  # 125 / 5^2
    data2 = nonarch_and_global_disc(make_descriptor(tower, {2: 2}))
    assert data2["disc_fin"] == 5 * 2 ** 4


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


def test_resolvent_cubic_roots_separate_the_types():
    from alk.toralsets import _rational_roots_cubic

    biq = quartics.biquadratic_tower(2, 3)
    cyc = quartics.zeta5_tower()
    dih = quartics.dihedral_tower(2, 1, 1)
    assert len(_rational_roots_cubic(resolvent_cubic(biq.theta_min_poly))) == 3
    assert len(_rational_roots_cubic(resolvent_cubic(cyc.theta_min_poly))) == 1
    assert len(_rational_roots_cubic(resolvent_cubic(dih.theta_min_poly))) == 1


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

"""Constructors for quartic towers with exact Galois metadata.

Curated families: Q(zeta_5), Q(sqrt(2+sqrt 2)), biquadratic fields
Q(sqrt d, sqrt e), and the quartic subfields of Q(zeta_p) for primes
p = 1 mod 4 (Gaussian periods).  All but the last are built by
make_tower, whose primitive element is sqrt(delta) (or sqrt(d) + sqrt(e)),
and git4 derives their conjugates from delta.  A Gaussian tower's
primitive element is the period eta_0, which is not sqrt(delta), so its
conj_polys are the periods (eta_0, eta_2, eta_1, eta_3) in the power basis
of eta_0: the four embeddings of K into itself, ordered compatibly with
the quadratic subfield F.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .intarith import is_square_fraction, squarefree_kernel
from .nfpoly import NumberField, gaussian_period_quartic
from .numfield import FieldTower, QuadField, make_quad_field, make_tower, trace_form_disc


def _check_conj_polys(tower: FieldTower) -> None:
    """Each conjugation poly must send theta to a root of its min poly and
    respect F-compatibility of the embedding order."""
    K = NumberField(tower.theta_min_poly)
    theta = K.gen
    sqrt_d = K.elem(tower.sqrt_d_coords)
    assert sqrt_d * sqrt_d == Fraction(tower.base.d), "sqrt_d_coords wrong"
    for j, cp in enumerate(tower.conj_polys):
        img = theta.apply_conj(cp)
        acc = K.elem(tower.theta_min_poly[0])
        power = K.one()
        for c in tower.theta_min_poly[1:]:
            power = power * img
            acc = acc + power * c
        assert acc == 0, "conjugation does not permute the roots"
        sd_img = sqrt_d.apply_conj(cp)
        want = sqrt_d if j < 2 else -sqrt_d
        assert sd_img == want, "embedding order not compatible with F"


def zeta5_tower() -> FieldTower:
    """K = Q(zeta_5) presented as F(sqrt(delta)), F = Q(sqrt 5)."""
    F = make_quad_field(5)
    return make_tower(F, F.elem(Fraction(-5, 2), Fraction(1, 2)), declared_DK=125,
                      galois_hint="cyclic")


def sqrt2plus_tower() -> FieldTower:
    """K = Q(sqrt(2 + sqrt 2)), the cyclic quartic of conductor 16."""
    F = make_quad_field(2)
    return make_tower(F, F.elem(2, 1), declared_DK=2048, galois_hint="cyclic")


def biquadratic_tower(d: int, e: int) -> FieldTower:
    """K = Q(sqrt d, sqrt e) with F = Q(sqrt d); d squarefree and e any
    integer that is not a square in F."""
    F = make_quad_field(d)
    # make_tower rejects a square e before the discriminants below meet it
    tower = make_tower(F, Fraction(e), galois_hint="biquadratic")
    # D_K is the product of the discriminants of the three quadratic
    # subfields Q(sqrt d), Q(sqrt e) and Q(sqrt(d e))
    dk = (F.disc * QuadField(squarefree_kernel(e)).disc
          * QuadField(squarefree_kernel(d * e)).disc)
    return replace(tower, declared_DK=dk)


def dihedral_tower(d: int, a, b) -> FieldTower:
    """K = F(sqrt(a + b sqrt d)) in the dihedral (non-Galois) case."""
    F = make_quad_field(d)
    delta = F.elem(Fraction(a), Fraction(b))
    return make_tower(F, delta, galois_hint="dihedral")


def gaussian_period_tower(p: int) -> FieldTower:
    """The cyclic quartic subfield of Q(zeta_p), p prime, p = 1 mod 4.

    The primitive element is the Gaussian period eta_0, and conj_polys are
    the periods (eta_0, eta_2, eta_1, eta_3), the images of eta_0 under
    (id, tau^2, tau, tau^3); the declared discriminant p^3 comes from the
    conductor-discriminant formula and is cross-checked against the
    power-basis trace form (square index).
    """
    data = gaussian_period_quartic(p)
    K = NumberField(data["min_poly"])
    eta0, eta1, sqrtp = K.gen, K.elem(data["tau_poly"]), K.elem(data["sqrtp_coords"])
    # from -1 = eta_0 + eta_1 + eta_2 + eta_3 and sqrt(p) = eta_0 - eta_1 + eta_2 - eta_3
    eta2, eta3 = (sqrtp - 1) / 2 - eta0, (-1 - sqrtp) / 2 - eta1
    F = make_quad_field(p)
    tower = FieldTower(F, F.elem(*data["delta"]), data["min_poly"],
                       data["sqrtp_coords"], declared_DK=p ** 3, galois_hint="cyclic",
                       conj_polys=tuple(e.coeffs for e in (eta0, eta2, eta1, eta3)))
    _check_conj_polys(tower)
    ratio = Fraction(trace_form_disc([eta0 ** i for i in range(4)]), tower.declared_DK)
    if ratio <= 0 or not is_square_fraction(ratio):
        raise ArithmeticError("power basis discriminant inconsistent with p^3")
    return tower

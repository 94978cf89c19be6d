"""Constructors for quartic towers with exact Galois metadata.

Curated families: Q(zeta_5), Q(sqrt(2+sqrt 2)), biquadratic fields
Q(sqrt d, sqrt e), and the quartic subfields of Q(zeta_p) for primes
p = 1 mod 4 (Gaussian periods).  Each constructor returns a FieldTower
whose conj_polys, when present, realize the four embeddings of K into
itself (abelian case) as exact polynomials in the primitive element,
ordered compatibly with the quadratic subfield F.
"""

from __future__ import annotations

from fractions import Fraction

from .intarith import squarefree_kernel
from .nfpoly import NumberField, gaussian_period_quartic
from .numfield import (FieldTower, QuadField, biquadratic_conj_polys, make_quad_field,
                       make_tower, trace_form_disc)


def _cyclic_conj_polys(min_poly, tau_poly):
    """(id, tau^2, tau, tau^3) as polynomials in theta, verified."""
    K = NumberField(tuple(Fraction(c) for c in min_poly))
    t1 = K.elem(tau_poly)
    t2 = t1.apply_conj(tau_poly)
    t3 = t2.apply_conj(tau_poly)
    t4 = t3.apply_conj(tau_poly)
    ident = K.gen
    if t4 != ident or t2 == ident:
        raise ValueError("tau is not an order-4 automorphism")
    return (ident.coeffs, t2.coeffs, t1.coeffs, t3.coeffs)


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
    delta = F.elem(Fraction(-5, 2), Fraction(1, 2))
    min_poly = (Fraction(5), Fraction(0), Fraction(5), Fraction(0), Fraction(1))
    conj = _cyclic_conj_polys(min_poly, [Fraction(0), Fraction(-3), Fraction(0), Fraction(-1)])
    tower = make_tower(F, delta, declared_DK=125, galois_hint="cyclic",
                       conj_polys=conj)
    _check_conj_polys(tower)
    return tower


def sqrt2plus_tower() -> FieldTower:
    """K = Q(sqrt(2 + sqrt 2)), the cyclic quartic of conductor 16."""
    F = make_quad_field(2)
    delta = F.elem(2, 1)
    min_poly = (Fraction(2), Fraction(0), Fraction(-4), Fraction(0), Fraction(1))
    conj = _cyclic_conj_polys(min_poly, [Fraction(0), Fraction(-3), Fraction(0), Fraction(1)])
    tower = make_tower(F, delta, declared_DK=2048, galois_hint="cyclic",
                       conj_polys=conj)
    _check_conj_polys(tower)
    return tower


def biquadratic_tower(d: int, e: int) -> FieldTower:
    """K = Q(sqrt d, sqrt e) with F = Q(sqrt d); d squarefree and e any
    integer that is not a square in F."""
    F = make_quad_field(d)
    tower = make_tower(F, Fraction(e), galois_hint="biquadratic")
    # D_K is the product of the discriminants of the three quadratic
    # subfields Q(sqrt d), Q(sqrt e) and Q(sqrt(d e))
    dk = (F.disc * QuadField(squarefree_kernel(e)).disc
          * QuadField(squarefree_kernel(d * e)).disc)
    tower = FieldTower(F, tower.delta, tower.theta_min_poly, tower.sqrt_d_coords,
                       declared_DK=dk, galois_hint="biquadratic",
                       conj_polys=biquadratic_conj_polys(d, e))
    _check_conj_polys(tower)
    return tower


def dihedral_tower(d: int, a, b) -> FieldTower:
    """K = F(sqrt(a + b sqrt d)) in the dihedral (non-Galois) case."""
    F = make_quad_field(d)
    delta = F.elem(Fraction(a), Fraction(b))
    return make_tower(F, delta, galois_hint="dihedral")


def gaussian_period_tower(p: int) -> FieldTower:
    """The cyclic quartic subfield of Q(zeta_p), p prime, p = 1 mod 4.

    The primitive element is the Gaussian period eta_0; the declared
    discriminant p^3 comes from the conductor-discriminant formula and is
    cross-checked against the power-basis trace form (square index).
    """
    data = gaussian_period_quartic(p)
    F = make_quad_field(p)
    u, v = data["delta"]
    delta = F.elem(u, v)
    conj = _cyclic_conj_polys(data["min_poly"], list(data["tau_poly"]))
    tower = FieldTower(F, delta, data["min_poly"], data["sqrtp_coords"],
                       declared_DK=p ** 3, galois_hint="cyclic",
                       conj_polys=conj)
    _check_conj_polys(tower)
    theta = NumberField(tower.theta_min_poly).gen
    disc_power = trace_form_disc([theta ** i for i in range(4)])
    ratio = Fraction(disc_power, tower.declared_DK)
    from .intarith import is_square_fraction

    if ratio <= 0 or not is_square_fraction(ratio):
        raise ArithmeticError("power basis discriminant inconsistent with p^3")
    return tower

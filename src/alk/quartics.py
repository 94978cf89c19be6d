"""Constructors for quartic towers with exact Galois metadata.

Curated families: Q(zeta_5), Q(sqrt(2+sqrt 2)), biquadratic fields
Q(sqrt d, sqrt e), and the quartic subfields of Q(zeta_p) for primes
p = 1 mod 4 (Gaussian periods).  Every tower is given by (F, delta, alpha),
its primitive element being theta = alpha + sqrt(delta) with alpha in F:
make_tower takes theta = sqrt(delta) (alpha = 0) or sqrt(d) + sqrt(e)
(alpha = sqrt d), and a Gaussian tower keeps the period eta_0 with
alpha = (-1 + sqrt p)/4 and delta in closed form from p = a^2 + b^2.
FieldTower derives theta's minimal polynomial, K's Kummer basis and the
coordinates of sqrt(d) from these three, and git4 takes all four
conjugates of theta from the same root formula.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .intarith import exact_isqrt, squarefree_kernel
from .nfpoly import NFElem, gaussian_period_delta
from .numfield import FieldTower, QuadField, make_quad_field, make_tower


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
    tower = make_tower(F, e, galois_hint="biquadratic")
    # D_K is the product of the discriminants of the three quadratic
    # subfields Q(sqrt d), Q(sqrt e) and Q(sqrt(d e))
    dk = (F.disc * QuadField(squarefree_kernel(e)).disc
          * QuadField(squarefree_kernel(d * e)).disc)
    return replace(tower, declared_DK=dk)


def dihedral_tower(d: int, a, b) -> FieldTower:
    """K = F(sqrt(a + b sqrt d)) in the dihedral (non-Galois) case."""
    F = make_quad_field(d)
    return make_tower(F, F.elem(a, b), galois_hint="dihedral")


def gaussian_period_tower(p: int) -> FieldTower:
    """The cyclic quartic subfield of Q(zeta_p), p prime, p = 1 mod 4.

    The primitive element is the Gaussian period eta_0.  As
    eta_0 + eta_2 = (-1 + sqrt p)/2, it is alpha + sqrt(delta) with
    alpha = (-1 + sqrt p)/4 and delta = (eta_0 - eta_2)^2/4 = (A + B sqrt p)/8
    for the odd integers (A, B) of `gaussian_period_delta`, in lowest terms.
    Nr(delta) > 0, and delta > 0 iff p = 1 mod 8 (K real): a sign that the
    declared discriminant p^3, from the conductor-discriminant formula and
    cross-checked against `power_basis_disc` (square index), cannot see.
    """
    F = make_quad_field(p)
    A, B = gaussian_period_delta(p)
    if not (A * A > p * B * B and (A > 0) == (p % 8 == 1)):
        raise ArithmeticError(f"delta = ({A} + {B} sqrt({p}))/8 has the wrong signature")
    tower = FieldTower(F, NFElem(F.nf, (A, B), 8), NFElem(F.nf, (-1, 1), 4),
                       declared_DK=p ** 3, galois_hint="cyclic")
    # disc / p^3 is a positive rational square iff disc's numerator times
    # its denominator times p^3 is a positive integer square
    disc = power_basis_disc(tower)
    n = disc.numerator * disc.denominator * tower.declared_DK
    if n <= 0 or exact_isqrt(n) is None:
        raise ArithmeticError("power basis discriminant inconsistent with p^3")
    return tower


def power_basis_disc(tower: FieldTower) -> Fraction:
    """disc(theta_min_poly) = 16 Nr(delta) X^2: the roots alpha +- s and
    conj(alpha) +- t, s^2 = delta and t^2 = conj(delta), differ by 2s and
    2t within each pair, and with e = alpha - conj(alpha) the differences
    across the pairs multiply to ((e + s)^2 - t^2)((e - s)^2 - t^2) =
    X = e^4 - 2 e^2 Tr(delta) + 4 b_delta^2 d, with e^2 = 4 b_alpha^2 d.
    On the integers of delta = (A + B sqrt(d)) / D and
    alpha = (a1 + b1 sqrt(d)) / E, with f = 4 b1^2 d = e^2 E^2, this is
    16 (A^2 - d B^2) x^2 / (D^6 E^8) for the integer
    x = X D^2 E^4 = f^2 D^2 - 4 f A D E^2 + 4 B^2 d E^4."""
    d = tower.base.d
    (A, B), D = tower.delta.num, tower.delta.den
    b1, E = tower.alpha.num[1], tower.alpha.den
    f, E2 = 4 * b1 * b1 * d, E * E
    x = f * f * D * D - 4 * f * A * D * E2 + 4 * B * B * d * E2 * E2
    return Fraction(16 * (A * A - d * B * B) * x * x, D ** 6 * E2 ** 4)

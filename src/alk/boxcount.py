"""Adelic box counting and the uniform counting bound.

A radius family assigns a radius in the value group at finitely many
finite places and a positive radius per Archimedean place (normalized,
i.e. squared-modulus scale at a complex place).  The set
{x in F : |x|_u <= r_u for all u} is the intersection of a fractional
ideal with an Archimedean box, counted by `quadforms.box_count` and by the
oracle `count_box_naive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import enumeration
from .arakelov import f_bound
from .intarith import log_abs, valuation
from .numfield import FracIdeal, Place, QuadField, finite_places, prime_ideal
from .quadforms import box_count, positive_radii, reduce_forms
from .ratlinalg import rational


@dataclass(frozen=True)
class RadiusFamily:
    """finite: ((place, radius, e), ...) with radius = q_v^e; all omitted
    places have radius 1.  infinite: one radius per Archimedean place
    (two real, or one complex in the normalized scale, or one for Q)."""

    field: Optional[QuadField]
    finite: tuple[tuple[Place, Fraction, int], ...]
    infinite: tuple[Fraction, ...]


def _radius_exponent(r: Fraction, q: int) -> int:
    """e with r = q^e, or raise."""
    if r <= 0:
        raise ValueError("radius must be positive")
    e = valuation(r, q)
    if Fraction(q) ** e != r:
        raise ValueError(f"{r} is not a power of {q}")
    return e


def make_radius_family(field: Optional[QuadField], finite, infinite) -> RadiusFamily:
    """Raises ValueError unless every finite radius is given at a finite
    place of the field, once, and lies in its value group."""
    fin = []
    for place, r in finite:
        # finite_places raises ValueError when p is not a prime
        if not (isinstance(place, Place) and place.kind == "finite"
                and place in finite_places(field, place.p)):
            raise ValueError(f"{place} is not a finite place of {field or 'Q'}")
        if any(place == v for v, _, _ in fin):
            raise ValueError(f"a radius at the {place.tag} place over {place.p} is given twice")
        r = rational(r)
        # validates the value group; the exponent is kept for the ideal
        fin.append((place, r, _radius_exponent(r, place.residue_size)))
    inf = positive_radii(infinite, "infinite radii must be positive")
    expected = 1 if field is None or not field.is_real else 2
    if len(inf) != expected:
        raise ValueError(f"expected {expected} Archimedean radii")
    return RadiusFamily(field, tuple(fin), inf)


def norm_of_family(r: RadiusFamily) -> Fraction:
    return math.prod([ru for _, ru, _ in r.finite] + list(r.infinite), start=Fraction(1))


def _ideal_from_finite(r: RadiusFamily):
    """The fractional ideal {x : |x|_u <= r_u at all finite u}."""
    if r.field is None:
        q = Fraction(1)
        for place, _, e in r.finite:
            q *= Fraction(1, place.p) ** e
        return q
    ideal = None  # the product starts at its first factor
    for place, _, e in r.finite:
        factor = prime_ideal(place) ** -e
        ideal = factor if ideal is None else ideal * factor
    return FracIdeal.maximal_order(r.field) if ideal is None else ideal


def _same_field(field: Optional[QuadField], r: RadiusFamily) -> None:
    """Raises ValueError unless a count over field is one of r's own field."""
    if field != r.field:
        raise ValueError(f"a radius family over {r.field or 'Q'} counted over {field or 'Q'}")


def count_box(field: Optional[QuadField], r: RadiusFamily,
              budget: int = enumeration.DEFAULT_BUDGET) -> int:
    """#{x in F : |x|_u <= r_u for every place u}, exact."""
    _same_field(field, r)
    return box_count(_ideal_from_finite(r), r.infinite, budget)


def count_box_naive(field: Optional[QuadField], r: RadiusFamily) -> int:
    """Independent oracle: direct double loop over the coefficients of x
    in a Lagrange-Gauss reduced basis of the ideal, inside exact integer
    bounds from the trace form, with its own exact membership test."""
    _same_field(field, r)
    ideal = _ideal_from_finite(r)
    if field is None:
        count = 0
        k = 0
        while abs(k * ideal) <= r.infinite[0]:
            count += 1 if k == 0 else 2
            k += 1
        return count
    # x = (U + V*sqrt(d)) / D over the ideal's rows; the trace form
    # T(x) = U^2 + |d|*V^2 is D^2 * Nr(x) at the complex place and
    # D^2 * (sigma_1(x)^2 + sigma_2(x)^2) / 2 at the real ones, so the box
    # lies in T <= t_max
    d, D = field.d, ideal.den
    ((n0, _), (n01, _), (n1, _)), _, ((u0, v0), (u1, v1)) = reduce_forms(d, ideal.rows)
    t_max = D * D * (sum(x * x for x in r.infinite) / 2 if field.is_real
                     else r.infinite[0])
    # x = m*b0 + k*b1 in the reduced basis has m^2 <= T(x) * T(b1) / det
    # and k^2 <= T(x) * T(b0) / det (Cauchy-Schwarz against the dual basis)
    det = n0 * n1 - n01 * n01
    m_max = math.isqrt(math.floor(t_max * n1 / det))
    k_max = math.isqrt(math.floor(t_max * n0 / det))
    if field.is_real:
        # q*(U +- V*sqrt(d)) against +-p*D for rho = p/q
        bounds = [(rho.numerator * D, rho.denominator) for rho in r.infinite]

        def at_most(x: int, y: int, z: int) -> bool:
            # x + y*sqrt(d) <= z, i.e. y*sqrt(d) <= z - x
            gap = z - x
            if y <= 0:
                return gap >= 0 or y * y * d >= gap * gap
            return gap >= 0 and y * y * d <= gap * gap

        def inside(U: int, V: int) -> bool:
            return all(at_most(q * U, q * sign * V, pD) and at_most(-q * U, -q * sign * V, pD)
                       for sign, (pD, q) in zip((1, -1), bounds))
    else:
        # the squared modulus Nr(x) = (U^2 - d*V^2) / D^2
        p, q = r.infinite[0].numerator * D * D, r.infinite[0].denominator

        def inside(U: int, V: int) -> bool:
            return q * (U * U - d * V * V) <= p
    count = 0
    for m in range(-m_max, m_max + 1):
        for k in range(-k_max, k_max + 1):
            if inside(m * u0 + k * u1, m * v0 + k * v1):
                count += 1
    return count


def counting_bound_check(field: Optional[QuadField], r: RadiusFamily, c,
                         budget: int = enumeration.DEFAULT_BUDGET) -> dict:
    """Compares the exact box count with C(n, c) ||r|| / sqrt(D_F).

    -log c is read from float(c) where c is a normal float, and from the
    exact c elsewhere.  The norm, C and the bound are reported as None where
    they are beyond the float range, and the count is then compared in logs:
    log count <= log C + log ||r|| - log(D_F) / 2."""
    c = rational(c)
    if c <= 0:
        raise ValueError("c must be positive")
    n = 1 if field is None else 2
    disc = 1 if field is None else field.disc
    norm = norm_of_family(r)
    hypothesis = norm >= c * disc
    # counted first: a norm beyond the float range has more points than any budget
    count = count_box(field, r, budget)
    log_big_c = f_bound(-log_abs(c)) + math.pi * n
    try:
        big_c = math.exp(log_big_c)
    except OverflowError:
        big_c = None
    try:
        norm_f = float(norm)
    except OverflowError:
        norm_f = None
    bound = None if big_c is None or norm_f is None else big_c * norm_f / math.sqrt(disc)
    if bound is not None and math.isfinite(bound):
        passed = count <= bound
    else:
        bound = None
        passed = count == 0 or math.log(count) <= log_big_c + log_abs(norm) - math.log(disc) / 2
    return {
        "count": count,
        "norm": norm_f,
        "C": big_c,
        "bound": bound,
        "hypothesis_ok": hypothesis,
        "status": "ok" if hypothesis else "hypothesis_violated",
        "passed": passed if hypothesis else None,
    }

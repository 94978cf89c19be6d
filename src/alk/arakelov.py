"""Euclidean lattices and Hermitian line bundles over quadratic rings.

Degrees, theta invariants, Poisson-Riemann-Roch, duality, and the
comparison bounds.  Gram matrices and ideals are exact; theta values are
floats with certified truncation tails.

Norm convention for bundles: a bundle carries one radius rho per
Archimedean embedding (equal at conjugate embeddings) and the section
norm at sigma is |sigma(s)| / rho_sigma.  Sections of norm <= 1
everywhere are exactly the elements of the ideal inside the box
|sigma(s)| <= rho_sigma.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Optional, Sequence

from . import enumeration
from .numfield import FracIdeal, QuadField, embeddings
from .ratlinalg import leading_minors, mat_det, mat_inv


@dataclass(frozen=True)
class EuclideanLattice:
    """Free Z-module of rank n with a symmetric positive definite Gram
    matrix of Fraction entries; a float entry is stored as the Fraction of
    its exact binary value, so det, dual and the definiteness test are
    exact for every Gram."""

    gram: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return mat_det(self.gram)

    def covolume(self) -> float:
        return math.sqrt(float(self.det()))

    def dual(self) -> "EuclideanLattice":
        return EuclideanLattice(tuple(map(tuple, mat_inv(self.gram))))


def euclidean_lattice(gram: Sequence[Sequence]) -> EuclideanLattice:
    exact = all(isinstance(x, Rational) for row in gram for x in row)
    g = [[x if exact else float(x) for x in row] for row in gram]
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("Gram matrix not square")
    if not exact and not all(math.isfinite(x) for row in g for x in row):
        raise ValueError("Gram entries must be finite")
    for i in range(n):
        for j in range(n):
            a, b = g[i][j], g[j][i]
            # rational input must be symmetric, float input within an
            # absolute 1e-8 plus a relative 1e-5
            if a != b and (exact or not abs(a - b) <= 1e-8 + 1e-5 * abs(b)):
                raise ValueError("Gram matrix not symmetric")
    g = [[Fraction(x) for x in row] for row in g]
    if not all(m > 0 for m in leading_minors(g)):
        raise ValueError("Gram matrix not positive definite")
    return EuclideanLattice(tuple(map(tuple, g)))


@dataclass(frozen=True)
class ThetaReport:
    """h0, h1: log theta of L and L*, summed over |v| <= truncation_radius;
    each is below the true value by less than tail_bound, which bounds the
    truncation only, not float rounding (large on skewed Grams)."""

    h0: float
    h1: float
    adeg: float
    truncation_radius: float
    tail_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def theta_invariants_euclidean(
    lat: EuclideanLattice,
    tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
    budget: int = enumeration.DEFAULT_BUDGET,
) -> ThetaReport:
    h0, radius, tail = enumeration.theta_log_sum(lat.gram, tail_tol, budget)
    h1, _, _ = enumeration.theta_log_sum(lat.dual().gram, tail_tol, budget)
    return ThetaReport(h0, h1, -math.log(lat.covolume()), radius, tail)


# ---------------------------------------------------------------------------
# Hermitian line bundles


@dataclass(frozen=True)
class HermitianLineBundle:
    """field None means the base is Q and the ideal is a positive rational
    generator; otherwise the ideal is a fractional ideal of O_F.  radii
    has one entry per Archimedean embedding (two for quadratic F, equal
    at the complex conjugate pair)."""

    field: Optional[QuadField]
    ideal: object
    radii: tuple[Fraction, ...]


def make_bundle(field: Optional[QuadField], ideal, radii) -> HermitianLineBundle:
    radii = tuple(Fraction(r) if isinstance(r, Rational) else Fraction(float(r))
                  for r in (radii if isinstance(radii, (tuple, list)) else (radii,)))
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if field is None:
        q = Fraction(ideal)
        if q <= 0:
            raise ValueError("ideal generator must be positive")
        if len(radii) != 1:
            raise ValueError("one Archimedean place over Q")
        return HermitianLineBundle(None, q, radii)
    if not isinstance(ideal, FracIdeal):
        raise TypeError("quadratic field bundles need a FracIdeal")
    if not ideal.is_ideal():
        raise ValueError("basis not closed under multiplication by O_F")
    if len(radii) != 2:
        raise ValueError("two embeddings for a quadratic field")
    if not field.is_real and radii[0] != radii[1]:
        raise ValueError("radii must agree at conjugate complex embeddings")
    return HermitianLineBundle(field, ideal, radii)


def trivial_bundle(field: Optional[QuadField]) -> HermitianLineBundle:
    if field is None:
        return make_bundle(None, 1, (1,))
    return make_bundle(field, FracIdeal.maximal_order(field), (1, 1))


def canonical_bundle(field: Optional[QuadField]) -> HermitianLineBundle:
    """The inverse different with the plain embedding norms; its degree is
    log D_F."""
    if field is None:
        return trivial_bundle(None)
    # the different is generated by sqrt(d), or by 2*sqrt(d) when d != 1
    # mod 4, and 1/sqrt(d) = sqrt(d)/d
    d = field.d
    gen = field.elem(0, Fraction(1, d if d % 4 == 1 else 2 * d))
    ideal = FracIdeal.from_gens(field, [gen])
    return make_bundle(field, ideal, (1, 1))


def sections_basis(bundle: HermitianLineBundle):
    if bundle.field is None:
        return (bundle.ideal,)
    return bundle.ideal.basis_elems()


def adeg_via_section(bundle: HermitianLineBundle, s) -> float:
    """deg = log [L : O_F s] - sum_sigma log ||s||_sigma for s in L (a
    rational, or an element of F)."""
    if bundle.field is None:
        s = Fraction(s)
        if s == 0:
            raise ValueError("zero section")
        if (s / bundle.ideal).denominator != 1:
            raise ValueError("section not in the ideal")
        index = abs(s) / bundle.ideal
        return math.log(index) - math.log(abs(s) / bundle.radii[0])
    s = bundle.field.coerce(s)
    if s.is_zero():
        raise ValueError("zero section")
    if not bundle.ideal.contains(s):
        raise ValueError("section not in the ideal")
    index = abs(s.norm()) / bundle.ideal.norm()
    arch = 0.0
    for k, sigma in enumerate(embeddings(s)):
        arch += math.log(abs(sigma) / float(bundle.radii[k]))
    return math.log(index) - arch


def adeg(bundle: HermitianLineBundle) -> float:
    return adeg_via_section(bundle, sections_basis(bundle)[0])


def dual_bundle(bundle: HermitianLineBundle) -> HermitianLineBundle:
    radii = tuple(1 / r for r in bundle.radii)
    if bundle.field is None:
        return make_bundle(None, 1 / bundle.ideal, radii)
    return make_bundle(bundle.field, bundle.ideal.inverse(), radii)


def tensor_bundle(b1: HermitianLineBundle, b2: HermitianLineBundle) -> HermitianLineBundle:
    if (b1.field is None) != (b2.field is None) or (
        b1.field is not None and b1.field.d != b2.field.d
    ):
        raise ValueError("bundles over different fields")
    radii = tuple(r1 * r2 for r1, r2 in zip(b1.radii, b2.radii))
    if b1.field is None:
        return make_bundle(None, b1.ideal * b2.ideal, radii)
    return make_bundle(b1.field, b1.ideal * b2.ideal, radii)


def direct_image(bundle: HermitianLineBundle) -> EuclideanLattice:
    """Underlying Z-lattice with ||v||^2 = sum over embeddings of
    |sigma(v)|^2 / rho_sigma^2.  Exact Gram whenever the radii allow."""
    if bundle.field is None:
        q = bundle.ideal
        return euclidean_lattice([[(q / bundle.radii[0]) ** 2]])
    radii = bundle.radii if bundle.field.is_real else bundle.radii[:1]
    return euclidean_lattice(ideal_gram(bundle.ideal, [r * r for r in radii]))


def _ideal_forms(ideal: FracIdeal):
    """(((u0, v0), (u1, v1)), D) with b_i = (u_i + v_i*sqrt(d)) / D for the
    HNF basis (b0, b1) of the ideal."""
    (a, b), (_, c) = ideal.rows
    # b0 = a + b*omega, b1 = c*omega, over den
    if ideal.field.d % 4 == 1:  # omega = (1 + sqrt(d)) / 2
        return ((2 * a + b, b), (c, c)), 2 * ideal.den
    return ((a, b), (0, c)), ideal.den


def _trace_form(d: int, x, y) -> int:
    """u*u' + |d|*v*v' for forms x = (u, v), y = (u', v')."""
    return x[0] * y[0] + abs(d) * x[1] * y[1]


def ideal_gram(ideal: FracIdeal, sq_radii) -> list[list]:
    """Gram of sum_sigma sigma(x)^2 / R_sigma on the HNF basis of the
    ideal, for squared radii (R_1, R_2) at the real embeddings, or of
    2*Nr(x) / R at the complex place (sq_radii = (R,)).  With
    b_i = (u_i + v_i*sqrt(d)) / D the entries are the exact Fractions
    2*(u_i*u_j + |d|*v_i*v_j) / (D^2*R), or, at unequal real radii,
    floats from the embeddings."""
    F = ideal.field
    basis, D = _ideal_forms(ideal)
    if len(sq_radii) == 1 or sq_radii[0] == sq_radii[1]:
        R = sq_radii[0]
        return [[Fraction(2 * _trace_form(F.d, x, y), D * D) / R for y in basis]
                for x in basis]
    emb = [embeddings(F.elem(Fraction(u, D), Fraction(v, D))) for u, v in basis]
    scale = [float(R) for R in sq_radii]
    return [[sum(x[k] * y[k] / scale[k] for k in range(2)) for y in emb]
            for x in emb]


def _gauss_reduced(d: int, basis):
    """(reduced, columns): a Lagrange-Gauss reduced basis, as forms, for the
    trace form u*u' + |d|*v*v', and the integer columns c_j with
    reduced_j = c_j[0]*basis_0 + c_j[1]*basis_1.  Exact."""
    (p, cp), (r, cr) = (basis[0], (1, 0)), (basis[1], (0, 1))
    while True:
        if _trace_form(d, r, r) < _trace_form(d, p, p):
            (p, cp), (r, cr) = (r, cr), (p, cp)
        n = _trace_form(d, p, p)
        mu = (2 * _trace_form(d, p, r) + n) // (2 * n)  # nearest to <p, r>/<p, p>
        if mu == 0:
            return (p, r), (cp, cr)
        r = (r[0] - mu * p[0], r[1] - mu * p[1])
        cr = (cr[0] - mu * cp[0], cr[1] - mu * cp[1])


def _floor_surd(p: int, q: int, d: int, m: int) -> int:
    """floor((p + q*sqrt(d)) / m) for m > 0 and a nonsquare d > 0."""
    r = math.isqrt(q * q * d)
    return (p + (r if q >= 0 else -r - 1)) // m


def box_points(ideal: FracIdeal, radii,
               budget: int = enumeration.DEFAULT_BUDGET) -> Iterator[tuple[int, int]]:
    """The (m, k) with x = m*b0 + k*b1 in the ideal's HNF basis and
    |sigma(x)| <= rho_sigma at both real embeddings (radii (rho_1, rho_2)), or
    Nr(x) <= R at the complex place (radii (R,)), in exact integer rows t of
    x = s*r0 + t*r1 = (U + V*sqrt(d)) / D over a Lagrange-Gauss reduced basis:
    U^2 + |d|*V^2 = A*s^2 + 2*B*s*t + C*t^2, which is D^2*Nr(x) or
    D^2*(sigma_1(x)^2 + sigma_2(x)^2) / 2, is at most N on the box.  Row -t is
    row t negated.  The budget bounds the rows and the points."""
    d = ideal.field.d
    basis, D = _ideal_forms(ideal)
    reduced, ((a0, a1), (c0, c1)) = _gauss_reduced(d, basis)
    (p0, q0), (p1, q1) = r0, r1 = reduced
    A, B, C = _trace_form(d, r0, r0), _trace_form(d, r0, r1), _trace_form(d, r1, r1)
    radii = [Fraction(r) for r in radii]
    N = math.floor((radii[0] if d < 0 else (radii[0] ** 2 + radii[1] ** 2) / 2) * D * D)
    if d < 0:
        def row(t: int) -> tuple[int, int]:
            disc = (B * t) ** 2 - A * (C * t * t - N)
            r = math.isqrt(max(disc, 0))
            return (-((B * t + r) // A), (r - B * t) // A) if disc >= 0 else (1, 0)
    else:
        # |s*alpha + t*beta| <= rho*D for alpha, beta the images of r0, r1 at
        # sqrt(d) -> g*sqrt(d); over n = alpha*conj(alpha) and rho = a/b the
        # two ends (+-a*D - t*b*beta) / (b*alpha) are (P + Q*sqrt(d)) / (b*|n|)
        n = p0 * p0 - d * q0 * q0
        h = 1 if n > 0 else -1
        strips = [(h * a * D * p0, -g * h * a * D * q0, h * b * (d * q0 * q1 - p0 * p1),
                   g * h * b * (p1 * q0 - p0 * q1), b * abs(n))
                  for g, (a, b) in zip((1, -1), (r.as_integer_ratio() for r in radii))]

        def row(t: int) -> tuple[int, int]:
            # ceil(min) = min(ceil) and floor(max) = max(floor) of the ends
            ends = [[(t * P1 + e * P0, t * Q1 + e * Q0, M) for e in (1, -1)]
                    for P0, Q0, P1, Q1, M in strips]
            return (max(min(-_floor_surd(-P, -Q, d, M) for P, Q, M in s) for s in ends),
                    min(max(_floor_surd(P, Q, d, M) for P, Q, M in s) for s in ends))
    rows = math.isqrt(N * A // (A * C - B * B)) + 1
    if rows > budget:  # a needle-thin box has many empty rows
        raise enumeration.BudgetExceeded(budget, budget)
    found = 0
    for t in range(rows):
        lo, hi = row(t)
        found += max(hi - lo + 1, 0) * (2 if t else 1)
        if found > budget:
            raise enumeration.BudgetExceeded(budget, budget)
        for s in range(lo, hi + 1):
            m, k = s * a0 + t * c0, s * a1 + t * c1
            yield m, k
            if t:
                yield -m, -k


def box_sections(bundle: HermitianLineBundle,
                 budget: int = enumeration.DEFAULT_BUDGET) -> list:
    """All s in the ideal with |sigma(s)| <= rho_sigma at every embedding;
    membership decided exactly."""
    if bundle.field is None:
        q = bundle.ideal
        kmax = int(bundle.radii[0] / q)
        return [k * q for k in range(-kmax, kmax + 1)]
    b0, b1 = bundle.ideal.basis_elems()
    # Nr(s) = |sigma(s)|^2 at the complex place
    radii = bundle.radii if bundle.field.is_real else (bundle.radii[0] ** 2,)
    points = box_points(bundle.ideal, radii, budget)
    return [b0 * m + b1 * k for m, k in sorted(points, key=lambda c: (c[1], c[0]))]


def h1_via_duality(bundle: HermitianLineBundle,
                   tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
                   budget: int = enumeration.DEFAULT_BUDGET) -> float:
    """h1 of the bundle as h0 of dual tensor canonical."""
    twisted = tensor_bundle(dual_bundle(bundle), canonical_bundle(bundle.field))
    return enumeration.theta_log_sum(direct_image(twisted).gram, tail_tol, budget)[0]


def bundle_theta_and_h0ar(
    bundle: HermitianLineBundle,
    tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
    budget: int = enumeration.DEFAULT_BUDGET,
) -> tuple[ThetaReport, float]:
    """Theta invariants of the bundle (h1 via the duality route, checked
    against the direct-image dual) and the Arakelov h0 from the unit box."""
    lat = direct_image(bundle)
    h0, radius, tail = enumeration.theta_log_sum(lat.gram, tail_tol, budget)
    h1_direct, _, _ = enumeration.theta_log_sum(lat.dual().gram, tail_tol, budget)
    h1_dual = h1_via_duality(bundle, tail_tol, budget)
    if abs(h1_direct - h1_dual) > 1e-6:
        raise ArithmeticError(
            f"duality routes disagree: {h1_direct} vs {h1_dual}")
    report = ThetaReport(h0, h1_dual, adeg(bundle), radius, tail)
    h0_ar = math.log(len(box_sections(bundle, budget)))
    return report, h0_ar


# ---------------------------------------------------------------------------
# bounds


def f_bound(t: float) -> float:
    """The comparison function: 1 + t for t >= 0, e^{2 pi t} below 0."""
    return 1.0 + t if t >= 0 else math.exp(2.0 * math.pi * t)


def theta_bounds(t: float, bundle: HermitianLineBundle,
                 tail_tol: float = enumeration.DEFAULT_TAIL_TOL) -> dict:
    """Instantiates the degree-based upper bounds at the given t."""
    n = 1 if bundle.field is None else 2
    log_df = 0.0 if bundle.field is None else math.log(bundle.field.disc)
    report, h0_ar = bundle_theta_and_h0ar(bundle, tail_tol)
    deg = report.adeg
    checks = {}
    checks["h0_small_degree"] = {
        "premise": deg <= t,
        "bound": f_bound(t),
        "value": report.h0,
        "ok": (not deg <= t) or report.h0 <= f_bound(t) + 1e-9,
    }
    premise = deg >= log_df + t
    checks["h1_large_degree"] = {
        "premise": premise,
        "bound": f_bound(-t),
        "value": report.h1,
        "ok": (not premise) or report.h1 <= f_bound(-t) + 1e-9,
    }
    h0_big = deg - 0.5 * log_df + f_bound(-t)
    checks["h0_large_degree"] = {
        "premise": premise,
        "bound": h0_big,
        "value": report.h0,
        "ok": (not premise) or report.h0 <= h0_big + 1e-9,
    }
    checks["h0ar_large_degree"] = {
        "premise": premise,
        "bound": h0_big + math.pi * n,
        "value": h0_ar,
        "ok": (not premise) or h0_ar <= h0_big + math.pi * n + 1e-9,
    }
    return {"f_value": f_bound(t), "report": report, "h0_ar": h0_ar,
            "checks": checks}

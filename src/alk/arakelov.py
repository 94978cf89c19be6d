"""Euclidean lattices and Hermitian line bundles over quadratic rings.

Degrees, theta invariants, Poisson-Riemann-Roch, duality, and the
comparison bounds.  Ideals, radii and Grams are exact, a degree is one
rounded log of an exact rational, and a theta value is a float certified to
the fixed tail tolerance `enumeration.DEFAULT_TAIL_TOL`.  A Euclidean
lattice has degree log(1/det) / 2; its theta invariants sum its sparser
side, L or L*, and take the other from Poisson summation, h0 - h1 = adeg,
a rank-2 side on an exactly reduced basis.  A bundle (I, rho) has degree
sum_sigma log rho_sigma - log N(I).  It takes one theta sum on its direct
image, the integer `quadforms.lattice_gram` of its unit box's form on the
basis `quadforms` reduces for it, and counts that box on the same basis;
L* stands for the Serre twist once its ideal is checked, exactly, to be
the trace dual.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import enumeration
from .intarith import log_abs
from .numfield import FracIdeal, QuadField
from .quadforms import box_count, box_form, count_rows, lagrange, lattice_gram, positive_radii
from .ratlinalg import NotRational, adjugate, bareiss, integer_matrix, rational, real, transpose


@dataclass(frozen=True)
class EuclideanLattice:
    """Free Z-module of rank n with the positive definite Gram num / den: num
    a symmetric integer matrix, den > 0 least.  rows is the upper-triangular
    U that one `ratlinalg.bareiss` pass leaves on num, a fraction-free LDL^T
    with pivots p_k = U[k][k], the leading principal minors of num:
    x^T num x = sum_k (U_k . x)^2 / (p_{k-1} p_k), p_{-1} = 1, so det num is
    the last pivot.  `_lattice` builds every lattice from an integer Gram in
    lowest terms and makes that pass, so det, dual and the definiteness test
    are exact and `_fpenum_py.gauss_sum` walks U as it is; `euclidean_lattice`
    clears only a Gram from outside to that form, a float as its exact value."""

    num: tuple[tuple[int, ...], ...]
    den: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @property
    def rank(self) -> int:
        return len(self.num)

    def det(self) -> Fraction:
        return Fraction(self.rows[-1][-1] if self.rows else 1, self.den ** self.rank)

    def dual(self) -> "EuclideanLattice":
        """L*, of Gram den * adj(num) / det(num) and determinant 1 / det(L)."""
        return _lattice(*_dual_gram(self))


def _dual_gram(lat: EuclideanLattice) -> tuple[list[list[int]], int]:
    """L*'s Gram den * adj(num) / det(num) in lowest terms, as (m, den)."""
    adj, det = adjugate(lat.num)
    g = math.gcd(det, lat.den * math.gcd(*(x for row in adj for x in row)))
    return [[lat.den * x // g for x in row] for row in adj], det // g


def _lattice(m: list[list[int]], den: int) -> EuclideanLattice:
    """The lattice of Gram m / den, m a symmetric integer matrix with no
    factor in common with den > 0; the Bareiss pass eliminates m in place."""
    num = tuple(map(tuple, m))
    # Sylvester's criterion: before a row swap the pivots are the leading minors
    pivots, swaps = bareiss(m)
    if swaps or not all(p > 0 for p in pivots):
        raise ValueError("Gram matrix not positive definite")
    return EuclideanLattice(num, den, tuple((0,) * k + tuple(row[k:]) for k, row in enumerate(m)))


def euclidean_lattice(gram: Sequence[Sequence]) -> EuclideanLattice:
    """The lattice of a Gram of ints, rationals or floats; ValueError unless
    it is square, finite, symmetric and positive definite."""
    try:
        m, den = integer_matrix(gram)
        g = None
    except NotRational:  # a non-rational entry makes every entry a float
        m = g = [[float(real(x)) for x in row] for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("Gram matrix not square")
    if g is not None:
        # symmetric within an absolute 1e-8 plus a relative 1e-5; one triangle
        # for both halves, so a pair within the tolerance is stored equal
        if not all(abs(g[i][j] - g[j][i]) <= 1e-8 + 1e-5 * abs(g[j][i])
                   for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix not symmetric")
        m, den = integer_matrix([[real(g[min(i, j)][max(i, j)]) for j in range(n)]
                                 for i in range(n)])
    if m != transpose(m):
        raise ValueError("Gram matrix not symmetric")
    return _lattice(m, den)


@dataclass(frozen=True)
class ThetaReport:
    """h0, h1: log theta of L and L*.  One of them is summed over
    |v| <= truncation_radius and the other is derived from it by Poisson
    summation, h0 - h1 = adeg for a Euclidean lattice; both are below the
    true values by less than tail_bound, which bounds the truncation only,
    not float rounding: the points summed are exact, chosen on the LDL^T
    rows the summed lattice holds, `_fpenum_py.gauss_sum` bounds the
    rounding of their sum, and log det rounds too.  For a bundle,
    L is its direct image, h1 is also h0 of the Serre twist, and adeg is the
    bundle's degree, so h0 - h1 = adeg - log(D_F) / 2."""

    h0: float
    h1: float
    adeg: float
    truncation_radius: float
    tail_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def theta_invariants_euclidean(lat: EuclideanLattice, *,
                               budget: int = enumeration.DEFAULT_BUDGET) -> ThetaReport:
    """Sums the sparser side, L when det(L) >= 1 and L* otherwise, and takes
    the other from theta_{L*}(1) = covol(L) * theta_L(1)."""
    det = lat.det()
    adeg = log_abs(1 / det) / 2  # one log, where log(den) - log(num) would cancel
    side = lat if det >= 1 or lat.rank == 2 else lat.dual()
    if lat.rank == 2:  # summed on a reduced basis, whose outer walk is short
        # reduction keeps the content of the Gram, so it stays in lowest terms
        num, den = (lat.num, lat.den) if det >= 1 else _dual_gram(lat)
        (a, _), (b, _), (c, _) = lagrange(((num[0][0], 0), (num[0][1], 0), (num[1][1], 0)))[0]
        if det < 1 or (a, b, c) != (num[0][0], num[0][1], num[1][1]):
            side = _lattice([[a, b], [b, c]], den)
    h, radius, tail = enumeration.theta_log_sum(side, budget=budget)
    h0, h1 = (h, h - adeg) if det >= 1 else (h + adeg, h)
    return ThetaReport(h0, h1, adeg, radius, tail)


# ---------------------------------------------------------------------------
# Hermitian line bundles


@dataclass(frozen=True)
class HermitianLineBundle:
    """An ideal I, over Q its positive rational generator and over F a
    FracIdeal of F, with one radius rho_sigma > 0 per Archimedean embedding
    (equal at a complex pair).  A section s has norm |sigma(s)| / rho_sigma
    at sigma, so those of norm <= 1 are the elements of I in the box."""

    field: Optional[QuadField]
    ideal: object
    radii: tuple[Fraction, ...]


def make_bundle(field: Optional[QuadField], ideal, radii) -> HermitianLineBundle:
    radii = positive_radii(radii, "radii must be positive")
    if field is None:
        q = rational(ideal)
        if q <= 0:
            raise ValueError("ideal generator must be positive")
        if len(radii) != 1:
            raise ValueError("one Archimedean place over Q")
        return HermitianLineBundle(None, q, radii)
    if not isinstance(ideal, FracIdeal):
        raise TypeError("quadratic field bundles need a FracIdeal")
    if ideal.field != field:
        raise ValueError(f"an ideal of {ideal.field} for a bundle over {field}")
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
    ideal = FracIdeal.from_gens(field, [_inverse_different(field)])
    return make_bundle(field, ideal, (1, 1))


def _inverse_different(field: QuadField):
    """A generator of the inverse different: the different is generated by
    sqrt(d), or by 2*sqrt(d) when d != 1 mod 4, and 1/sqrt(d) = sqrt(d)/d."""
    d = field.d
    return field.elem(0, Fraction(1, d if d % 4 == 1 else 2 * d))


def adeg(bundle: HermitianLineBundle) -> float:
    """deg = sum_sigma log rho_sigma - log N(I), one log of an exact rational.

    It is the section definition log [I : O_F s] - sum_sigma log ||s||_sigma
    for any s != 0 in I, ||s||_sigma = |sigma(s)| / rho_sigma, with s gone:
    log [I : O_F s] = log |Nr s| - log N(I) and sum_sigma log |sigma(s)| =
    log |Nr s| cancel.  Over Q, I = qZ and N(I) = q; at the complex place
    the radii are (rho, rho), and the two embeddings give |sigma(s)|^2 = Nr s."""
    norm = bundle.ideal if bundle.field is None else bundle.ideal.norm()
    return log_abs(math.prod(bundle.radii) / norm)


def dual_bundle(bundle: HermitianLineBundle) -> HermitianLineBundle:
    radii = tuple(1 / r for r in bundle.radii)
    if bundle.field is None:
        return make_bundle(None, Fraction(1, bundle.ideal), radii)
    return make_bundle(bundle.field, bundle.ideal.inverse(), radii)


def tensor_bundle(b1: HermitianLineBundle, b2: HermitianLineBundle) -> HermitianLineBundle:
    if b1.field != b2.field:
        raise ValueError("bundles over different fields")
    radii = tuple(r1 * r2 for r1, r2 in zip(b1.radii, b2.radii))
    return make_bundle(b1.field, b1.ideal * b2.ideal, radii)


def _image_and_box(bundle: HermitianLineBundle):
    """(L, radii, form): the direct image L, the lattice of `quadforms.lattice_gram` on
    its unit box's `quadforms.box_form` at the box's radii; form is None over Q."""
    F = bundle.field
    if F is None:
        n, d = (bundle.ideal / bundle.radii[0]).as_integer_ratio()
        return _lattice([[n * n]], d * d), bundle.radii, None
    # the unit box has Nr(s) <= rho^2 at the complex place
    radii = bundle.radii if F.is_real else (bundle.radii[0] ** 2,)
    form = box_form(bundle.ideal, radii)
    return _lattice(*lattice_gram(form, F.d)), radii, form


def direct_image(bundle: HermitianLineBundle) -> EuclideanLattice:
    """The Z-lattice with ||v||^2 = sum over embeddings of |sigma(v)|^2 / rho_sigma^2."""
    return _image_and_box(bundle)[0]


def serre_twist(bundle: HermitianLineBundle) -> HermitianLineBundle:
    """The dual of the bundle tensor the canonical bundle, whose h0 is the
    bundle's h1 by Serre duality."""
    return tensor_bundle(dual_bundle(bundle), canonical_bundle(bundle.field))


def h1_via_duality(bundle: HermitianLineBundle, *,
                   budget: int = enumeration.DEFAULT_BUDGET) -> float:
    """h1 of the bundle as h0 of the Serre twist, summed on its own lattice:
    the oracle for the h1 that `bundle_theta_and_h0ar` derives."""
    return enumeration.theta_log_sum(direct_image(serre_twist(bundle)), budget=budget)[0]


def check_trace_dual(ideal: FracIdeal, dual: FracIdeal) -> None:
    """Raises ArithmeticError unless `dual` is the trace dual of `ideal`: the
    matrix Tr(b_i c_j) over their HNF bases must be integral with det +-1."""
    d = ideal.field.d
    # Tr((u + v*sqrt(d)) (u' + v'*sqrt(d))) = 2*(u*u' + d*v*v')
    t = [2 * (x[0] * y[0] + d * x[1] * y[1]) for x in ideal.rows for y in dual.rows]
    de = ideal.den * dual.den
    if any(x % de for x in t) or abs(t[0] * t[3] - t[1] * t[2]) != de * de:
        raise ArithmeticError("the Serre twist's ideal is not the trace dual of the ideal")


def bundle_theta_and_h0ar(bundle: HermitianLineBundle, *,
                          budget: int = enumeration.DEFAULT_BUDGET) -> tuple[ThetaReport, float]:
    """Theta invariants of the bundle from one theta sum, and the Arakelov h0
    from the unit box.  h0 and h1 are those of the direct image L and of L*
    (`theta_invariants_euclidean`, which sums one side); L* is the Serre
    twist's lattice, whose h0 is the bundle's h1, once the twist's ideal
    I^-1 d^-1 is checked, exactly, to be the trace dual of I.  adeg is the
    bundle's degree."""
    F, ideal = bundle.field, bundle.ideal
    if F is not None:
        check_trace_dual(ideal, ideal.inverse().scale(_inverse_different(F)))
    # the direct image's form is the unit box's: one reduction for both
    lat, radii, form = _image_and_box(bundle)
    rep = theta_invariants_euclidean(lat, budget=budget)
    report = ThetaReport(rep.h0, rep.h1, adeg(bundle), rep.truncation_radius, rep.tail_bound)
    count = box_count(ideal, radii, budget) if F is None else count_rows(form, radii, F.d, budget)
    return report, math.log(count)


# ---------------------------------------------------------------------------
# bounds


def f_bound(t: float) -> float:
    """The comparison function: 1 + t for t >= 0, e^{2 pi t} below 0."""
    return 1.0 + t if t >= 0 else math.exp(2.0 * math.pi * t)


def theta_bounds(t: float, bundle: HermitianLineBundle) -> dict:
    """Instantiates the degree-based upper bounds at the given t."""
    n = 1 if bundle.field is None else 2
    log_df = 0.0 if bundle.field is None else math.log(bundle.field.disc)
    report, h0_ar = bundle_theta_and_h0ar(bundle)
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

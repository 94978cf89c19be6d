"""Euclidean lattices and Hermitian line bundles over quadratic rings.

Degrees, theta invariants, Poisson-Riemann-Roch, duality, and the
comparison bounds.  Gram matrices and ideals are exact; theta values are
floats with certified truncation tails.  The theta invariants of a
Euclidean lattice sum its sparser side, L or L*, and take the other from
Poisson summation, h0 - h1 = adeg, with log det from the logs of its
numerator and denominator; a rank-2 side is summed on an exactly reduced
basis.  A bundle takes one theta sum on its direct image, whose basis
`_lagrange` reduces exactly for the bundle's own form, and counts its unit
box by rows on that basis, as `box_count` does every box; L* stands for the
Serre twist once the twist's ideal is checked, exactly, to be the trace dual.

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
from typing import Optional, Sequence

from . import enumeration
from .intarith import log_abs
from .numfield import FracIdeal, QuadField, embeddings
from .ratlinalg import adjugate, bareiss, transpose


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
    clears a Gram from outside to that form, a float as its exact value."""

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
    # one pass type-tests the entries, int and Fraction first (the abstract
    # Rational test is slower); a non-rational entry makes every entry a float
    g, exact = [], True
    for row in gram:
        g.append(q := [])
        for x in row:
            if not isinstance(x, (int, Fraction)):
                if not isinstance(x, Rational):
                    exact = False
                    break
                x = Fraction(x)
            q.append(x)
        if not exact:
            g = [[float(x) for x in row] for row in gram]
            break
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("Gram matrix not square")
    if not exact:
        if not all(math.isfinite(x) for row in g for x in row):
            raise ValueError("Gram entries must be finite")
        # symmetric within an absolute 1e-8 plus a relative 1e-5; one triangle
        # for both halves, so a pair within the tolerance is stored equal
        if not all(abs(g[i][j] - g[j][i]) <= 1e-8 + 1e-5 * abs(g[j][i])
                   for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix not symmetric")
        g = [[Fraction(g[min(i, j)][max(i, j)]) for j in range(n)] for i in range(n)]
    den = math.lcm(*(x.denominator for row in g for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in g]
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


def theta_invariants_euclidean(
    lat: EuclideanLattice,
    tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
    budget: int = enumeration.DEFAULT_BUDGET,
) -> ThetaReport:
    """Sums the sparser side, L when det(L) >= 1 and L* otherwise, and takes
    the other from theta_{L*}(1) = covol(L) * theta_L(1)."""
    det = lat.det()
    # math.log reads an int of any size, where float(det) may overflow or
    # underflow
    adeg = (math.log(det.denominator) - math.log(det.numerator)) / 2
    side = lat if det >= 1 or lat.rank == 2 else lat.dual()
    if lat.rank == 2:  # summed on a reduced basis, whose outer walk is short
        # reduction keeps the content of the Gram, so it stays in lowest terms
        num, den = (lat.num, lat.den) if det >= 1 else _dual_gram(lat)
        (a, _), (b, _), (c, _) = _lagrange(((num[0][0], 0), (num[0][1], 0), (num[1][1], 0)))[0]
        if det < 1 or (a, b, c) != (num[0][0], num[0][1], num[1][1]):
            side = _lattice([[a, b], [b, c]], den)
    h, radius, tail = enumeration.theta_log_sum(side, tail_tol, budget)
    h0, h1 = (h, h - adeg) if det >= 1 else (h + adeg, h)
    return ThetaReport(h0, h1, adeg, radius, tail)


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
    ideal = FracIdeal.from_gens(field, [_inverse_different(field)])
    return make_bundle(field, ideal, (1, 1))


def _inverse_different(field: QuadField):
    """A generator of the inverse different: the different is generated by
    sqrt(d), or by 2*sqrt(d) when d != 1 mod 4, and 1/sqrt(d) = sqrt(d)/d."""
    d = field.d
    return field.elem(0, Fraction(1, d if d % 4 == 1 else 2 * d))


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
        return log_abs(s / bundle.ideal) - log_abs(s / bundle.radii[0])
    s = bundle.field.coerce(s)
    if s.is_zero():
        raise ValueError("zero section")
    if not bundle.ideal.contains(s):
        raise ValueError("section not in the ideal")
    index = abs(s.norm()) / bundle.ideal.norm()
    arch = 0.0
    for sigma, r in zip(embeddings(s), bundle.radii):
        try:
            arch += math.log(abs(sigma) / float(r))
        except (OverflowError, ZeroDivisionError):  # float(r) overflows or is 0
            arch += math.log(abs(sigma)) - log_abs(r)
    return log_abs(index) - arch


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
    |sigma(v)|^2 / rho_sigma^2, on the reduced basis of `ideal_gram`."""
    if bundle.field is None:
        q = bundle.ideal
        return euclidean_lattice([[(q / bundle.radii[0]) ** 2]])
    radii = bundle.radii if bundle.field.is_real else bundle.radii[:1]
    return euclidean_lattice(ideal_gram(bundle.ideal, [r * r for r in radii])[0])


def _surd_sign(x: int, y: int, d: int) -> int:
    """The sign of x + y*sqrt(d), for y = 0 or a nonsquare d > 0."""
    lead = x if y == 0 or x * y > 0 or x * x > y * y * d else y
    return (lead > 0) - (lead < 0)


def _floor_surd(p: int, q: int, d: int, m: int) -> int:
    """floor((p + q*sqrt(d)) / m) for m > 0, and q = 0 or a nonsquare d > 0."""
    r = math.isqrt(q * q * d)
    return (p + (r if q >= 0 else -r - 1)) // m


def _lagrange(gram, d: int = 0):
    """(gram', (c0, c1)): the Lagrange-Gauss reduction of a positive definite
    binary form, exact.  gram = (A, B, C) stands for [[A, B], [B, C]], each
    entry an integer pair (x, y) for x + y*sqrt(d): y = 0 for a rational form,
    whatever d is, and otherwise d > 0 is a nonsquare and the conjugate form
    (y -> -y) is positive definite too, as it is for sum sigma(x)sigma(y)/R_sigma
    (the conjugate swaps the radii).  gram' is the Gram of the reduced basis
    r_j = c_j[0]*e_0 + c_j[1]*e_1, with A' <= C' and |2B'| <= A'."""
    (a, ay), (b, by), (c, cy) = gram
    c0, c1 = (1, 0), (0, 1)
    while True:
        if _surd_sign(c - a, cy - ay, d) < 0:
            a, ay, c, cy, c0, c1 = c, cy, a, ay, c1, c0
        # mu = floor(B/A + 1/2) = floor((2B + A) * conj(A) / (2 A conj(A)))
        x, y = 2 * b + a, 2 * by + ay
        mu = _floor_surd(x * a - y * ay * d, y * a - x * ay, d, 2 * (a * a - ay * ay * d))
        if mu == 0:
            return ((a, ay), (b, by), (c, cy)), (c0, c1)
        c, cy = c - mu * (2 * b - mu * a), cy - mu * (2 * by - mu * ay)
        b, by = b - mu * a, by - mu * ay
        c1 = (c1[0] - mu * c0[0], c1[1] - mu * c0[1])


def _reduce_forms(d: int, forms, s: int = 1, t: int = 0):
    """(gram, columns, reduced): `_lagrange` on the Gram of
    s*(u*u' + |d|*v*v') + t*(u*v' + v*u')*sqrt(d) over two integer forms
    (u, v) of (u + v*sqrt(d)) / D, and the reduced forms.  That is
    D^2 * sum_sigma sigma(x)sigma(y)^* / R_sigma for s = 1/R_1 + 1/R_2 and
    t = 1/R_1 - 1/R_2; s = 1, t = 0 is the trace form.  t = 0 at equal
    radii and at the complex place."""
    (u0, v0), (u1, v1) = forms
    gram = tuple((s * (x[0] * y[0] + abs(d) * x[1] * y[1]), t * (x[0] * y[1] + x[1] * y[0]))
                 for x, y in ((forms[0], forms[0]), (forms[0], forms[1]), (forms[1], forms[1])))
    gram, cols = _lagrange(gram, d)
    return gram, cols, tuple((m * u0 + k * u1, m * v0 + k * v1) for m, k in cols)


def _surd_float(x: int, y: int, d: int, k: int) -> float:
    """(x + y*sqrt(d)) / k for k > 0 in floats without cancellation: the sum
    when x and y have the same sign, else (x^2 - y^2*d) / (k*(x - y*sqrt(d)))."""
    r = math.sqrt(d)
    if x * y >= 0:
        return x / k + y / k * r
    return (x * x - y * y * d) / (k * x) / (1 - y / x * r)


def _box_form(ideal: FracIdeal, sq_radii):
    """(gram, columns, reduced, k, D): `_reduce_forms` on k times the form
    sum_sigma sigma(x) sigma(y)^* / R_sigma, for squared radii (R_1, R_2) at
    the real embeddings or R at the complex place (sq_radii = (R,), the form
    2*Re(x y^*) / R), over the ideal's HNF rows, integer forms (u, v) of
    (u + v*sqrt(d)) / D for D its den.  The form is at most 2 on the box
    |sigma(x)|^2 <= R_sigma, or Nr(x) <= R."""
    D = ideal.den
    inv = [1 / Fraction(R) for R in (sq_radii if len(sq_radii) == 2 else sq_radii * 2)]
    s, t = inv[0] + inv[1], inv[0] - inv[1]
    m = math.lcm(s.denominator, t.denominator)
    gram, cols, reduced = _reduce_forms(ideal.field.d, ideal.rows,
                                        s.numerator * (m // s.denominator),
                                        t.numerator * (m // t.denominator))
    return gram, cols, reduced, m * D * D, D


def _rounded_gram(form, d: int) -> list[list]:
    """The Gram of a `_box_form` over its k: exact Fractions when the form is
    rational (t = 0: equal radii, or the complex place), and otherwise each
    entry rounded from its exact value without cancellation (`_surd_float`)."""
    gram, _, _, k, _ = form
    if any(y for _, y in gram):
        a, b, c = (_surd_float(x, y, d, k) for x, y in gram)
    else:
        a, b, c = (Fraction(x, k) for x, _ in gram)
    return [[a, b], [b, c]]


def ideal_gram(ideal: FracIdeal, sq_radii) -> tuple[list[list], tuple]:
    """(gram, columns): the Gram of sum_sigma sigma(x) sigma(y)^* / R_sigma
    (`_box_form`) on the Lagrange-Gauss reduced basis r_j = c_j[0]*b0 +
    c_j[1]*b1 of the ideal's HNF basis (b0, b1) for this form; columns are the
    c_j.  The reduction is exact, in integers of Q(sqrt(d)); the entries are
    exact at equal radii and at the complex place (`_rounded_gram`)."""
    form = _box_form(ideal, sq_radii)
    return _rounded_gram(form, ideal.field.d), form[1]


def box_count(ideal, radii, budget: int = enumeration.DEFAULT_BUDGET) -> int:
    """#{x in the ideal : |sigma(x)| <= rho_sigma} at both real embeddings
    (radii (rho_1, rho_2)), or with Nr(x) <= R at the complex place (radii
    (R,)), exact.  Over Q the ideal is a rational q > 0 and radii (rho,)."""
    if not isinstance(ideal, FracIdeal):
        return 2 * math.floor(radii[0] / ideal) + 1
    return _count_rows(_box_form(ideal, [r * r for r in radii] if len(radii) == 2 else radii),
                       radii, ideal.field.d, budget)


def _count_rows(form, radii, d: int, budget: int) -> int:
    """The points x = s*r0 + t*r1 of the box on the reduced basis of its own
    `_box_form`, summed as row widths: the box lies in A*s^2 + 2*B*s*t + C*t^2
    <= 2k, so |t| <= sqrt(2k*A / (AC - B^2)), whatever the ratio of the radii.
    Each row's s-range is exact; row -t is row t negated."""
    ((a, ay), (b, by), (c, cy)), _, ((p0, q0), (p1, q1)), k, D = form
    # 2k*A / (AC - B^2) = 2k*A*E' / N(E) for E = AC - B^2 = ex + ey*sqrt(d) and
    # its conjugate E'; N(E) > 0, as the conjugate form is positive definite too
    ex, ey = a * c + ay * cy * d - b * b - by * by * d, a * cy + ay * c - 2 * b * by
    t_max = math.isqrt(_floor_surd(2 * k * (a * ex - ay * ey * d), 2 * k * (ay * ex - a * ey),
                                   d, ex * ex - ey * ey * d))
    if t_max >= budget:  # more rows than the budget
        raise enumeration.BudgetExceeded(budget, budget, "box rows")
    if d < 0:  # a rational form: A*s^2 + 2*B*s*t + C*t^2 <= 2k in integers
        def row(t: int) -> tuple[int, int]:
            disc = (b * t) ** 2 - a * (c * t * t - 2 * k)
            r = math.isqrt(max(disc, 0))
            return (-((b * t + r) // a), (r - b * t) // a) if disc >= 0 else (1, 0)
    else:
        # |s*alpha + t*beta| <= rho*D for alpha, beta the images of r0, r1 at
        # sqrt(d) -> g*sqrt(d); over n = alpha*conj(alpha) and rho = i/j the
        # two ends (+-i*D - t*j*beta) / (j*alpha) are (P + Q*sqrt(d)) / (j*|n|)
        n = p0 * p0 - d * q0 * q0
        h = 1 if n > 0 else -1
        strips = [(h * i * D * p0, -g * h * i * D * q0, h * j * (d * q0 * q1 - p0 * p1),
                   g * h * j * (p1 * q0 - p0 * q1), j * abs(n))
                  for g, (i, j) in zip((1, -1), (r.as_integer_ratio() for r in radii))]

        def row(t: int) -> tuple[int, int]:
            # ceil(min) = min(ceil) and floor(max) = max(floor) of the ends
            ends = [[(t * P1 + e * P0, t * Q1 + e * Q0, M) for e in (1, -1)]
                    for P0, Q0, P1, Q1, M in strips]
            return (max(min(-_floor_surd(-P, -Q, d, M) for P, Q, M in s) for s in ends),
                    min(max(_floor_surd(P, Q, d, M) for P, Q, M in s) for s in ends))
    found = 0
    for t in range(t_max + 1):
        lo, hi = row(t)
        found += max(hi - lo + 1, 0) * (2 if t else 1)
        if found > budget:
            raise enumeration.BudgetExceeded(budget, budget, "box points")
    return found


def serre_twist(bundle: HermitianLineBundle) -> HermitianLineBundle:
    """The dual of the bundle tensor the canonical bundle, whose h0 is the
    bundle's h1 by Serre duality."""
    return tensor_bundle(dual_bundle(bundle), canonical_bundle(bundle.field))


def h1_via_duality(bundle: HermitianLineBundle,
                   tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
                   budget: int = enumeration.DEFAULT_BUDGET) -> float:
    """h1 of the bundle as h0 of the Serre twist, summed on its own lattice:
    the oracle for the h1 that `bundle_theta_and_h0ar` derives."""
    return enumeration.theta_log_sum(direct_image(serre_twist(bundle)), tail_tol, budget)[0]


def check_trace_dual(ideal: FracIdeal, dual: FracIdeal) -> None:
    """Raises ArithmeticError unless `dual` is the trace dual of `ideal`: the
    matrix Tr(b_i c_j) over their HNF bases must be integral with det +-1."""
    d = ideal.field.d
    # Tr((u + v*sqrt(d)) (u' + v'*sqrt(d))) = 2*(u*u' + d*v*v')
    t = [2 * (x[0] * y[0] + d * x[1] * y[1]) for x in ideal.rows for y in dual.rows]
    de = ideal.den * dual.den
    if any(x % de for x in t) or abs(t[0] * t[3] - t[1] * t[2]) != de * de:
        raise ArithmeticError("the Serre twist's ideal is not the trace dual of the ideal")


def bundle_theta_and_h0ar(
    bundle: HermitianLineBundle,
    tail_tol: float = enumeration.DEFAULT_TAIL_TOL,
    budget: int = enumeration.DEFAULT_BUDGET,
) -> tuple[ThetaReport, float]:
    """Theta invariants of the bundle from one theta sum, and the Arakelov h0
    from the unit box.  h0 and h1 are those of the direct image L and of L*
    (`theta_invariants_euclidean`, which sums one side); L* is the Serre
    twist's lattice, whose h0 is the bundle's h1, once the twist's ideal
    I^-1 d^-1 is checked, exactly, to be the trace dual of I.  adeg is the
    bundle's degree."""
    F = bundle.field
    if F is None:
        lat = direct_image(bundle)
    else:
        ideal = bundle.ideal
        check_trace_dual(ideal, ideal.inverse().scale(_inverse_different(F)))
        sq = [r * r for r in (bundle.radii if F.is_real else bundle.radii[:1])]
        # the direct image's form is the unit box's: one reduction for both
        form = _box_form(ideal, sq)
        lat = euclidean_lattice(_rounded_gram(form, F.d))
    rep = theta_invariants_euclidean(lat, tail_tol, budget)
    report = ThetaReport(rep.h0, rep.h1, adeg(bundle), rep.truncation_radius, rep.tail_bound)
    # the unit box has Nr(s) <= rho^2 at the complex place
    count = (box_count(bundle.ideal, bundle.radii, budget) if F is None
             else _count_rows(form, bundle.radii if F.is_real else sq, F.d, budget))
    return report, math.log(count)


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

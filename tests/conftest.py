"""Shared generators for the test suite.

Everything random is driven by explicit random.Random instances so the
suite is deterministic.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from alk.arakelov import make_bundle
from alk.numfield import FracIdeal, QuadField, conj


def random_posdef_gram(rng: random.Random, n: int, shift: int = 3):
    """A^T A + shift*I over the integers, as Fractions."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [Fraction(sum(a[k][i] * a[k][j] for k in range(n)) + (shift if i == j else 0))
         for j in range(n)]
        for i in range(n)
    ]


def random_nonzero_elem(rng: random.Random, F: QuadField, span: int = 3):
    while True:
        x = F.elem(Fraction(rng.randint(-span, span)),
                   Fraction(rng.randint(-span, span)))
        if not x.is_zero():
            return x


def random_principal_bundle(rng: random.Random, F: QuadField):
    """Principal-ideal Hermitian line bundle with modest radii."""
    g = random_nonzero_elem(rng, F)
    ideal = FracIdeal.from_gens(F, [g])
    r1 = Fraction(rng.randint(1, 6), rng.randint(1, 2))
    r2 = r1 if not F.is_real else Fraction(rng.randint(1, 6), rng.randint(1, 2))
    return make_bundle(F, ideal, (r1, r2))


def _leq_with_sqrt(rational_part, sqrt_part, d, bound):
    """Exact test of rational_part + sqrt_part*sqrt(d) <= bound (d > 0)."""
    rem = bound - rational_part
    if sqrt_part == 0:
        return rem >= 0
    if sqrt_part > 0:
        return rem >= 0 and sqrt_part * sqrt_part * d <= rem * rem
    return rem >= 0 or sqrt_part * sqrt_part * d >= rem * rem


def _box_test(D: int, d: int, radii):
    """The test of `in_box_reference` on x = (U + V sqrt(d)) / D, in integers:
    sigma(x)^2 = (U^2 + d V^2 +- 2 U V sqrt(d)) / D^2 against rho^2 at the
    real places, Nr(x) = (U^2 - d V^2) / D^2 against R at the complex place."""
    if d < 0:
        p, q = radii[0].numerator * D * D, radii[0].denominator
        return lambda U, V: q * (U * U - d * V * V) <= p
    (p1, q1), (p2, q2) = ((r.numerator ** 2 * D * D, r.denominator ** 2) for r in radii)

    def inside(U, V):
        w, z = U * U + d * V * V, 2 * U * V
        return (_leq_with_sqrt(q1 * w, q1 * z, d, p1)
                and _leq_with_sqrt(q2 * w, -q2 * z, d, p2))

    return inside


def _int_coords(xs):
    """((U, V), ...), D: the x = (U + V sqrt(d)) / D over one least D."""
    D = math.lcm(*(c.denominator for x in xs for c in (x.a, x.b)))
    return [(int(x.a * D), int(x.b * D)) for x in xs], D


def in_box_reference(x, F, radii) -> bool:
    """|sigma_i(x)| <= rho_i at the real embeddings, Nr(x) <= R at the
    complex place, decided exactly."""
    ((U, V),), D = _int_coords([x])
    return _box_test(D, F.d, [Fraction(r) for r in radii])(U, V)


def box_reference_points(ideal, radii):
    """(r0, r1, points): the (m, k) with x = m*r0 + k*r1 in the ideal that
    `in_box_reference` accepts, over a coefficient window that holds the box,
    with count_box_naive's bounds.  The trace form T(x) = Tr(x conj(x)) at a
    complex place, Tr(x^2) at real ones, is at most 2R or rho_1^2 + rho_2^2
    on the box, and on a basis (r0, r1) of Gram G, x = m*r0 + k*r1 has
    m^2 <= T(x) G_11 / det G and k^2 <= T(x) G_00 / det G.  (r0, r1) is the
    ideal's HNF basis Lagrange-Gauss reduced for T, here in Fractions, so
    that the window follows the box and not the skew of the ideal."""
    F = ideal.field
    radii = [Fraction(r) for r in radii]
    bar = (lambda x: x) if F.is_real else conj
    form = lambda x, y: (x * bar(y)).trace()
    r0, r1 = ideal.basis_elems()
    while True:
        if form(r1, r1) < form(r0, r0):
            r0, r1 = r1, r0
        mu = math.floor(form(r0, r1) / form(r0, r0) + Fraction(1, 2))
        if mu == 0:
            break
        r1 = r1 - r0 * mu
    g00, g01, g11 = form(r0, r0), form(r0, r1), form(r1, r1)
    det = g00 * g11 - g01 * g01
    t_max = sum(r * r for r in radii) if F.is_real else 2 * radii[0]
    m_max = math.isqrt(math.floor(t_max * g11 / det))
    k_max = math.isqrt(math.floor(t_max * g00 / det))
    ((u0, v0), (u1, v1)), D = _int_coords([r0, r1])
    inside = _box_test(D, F.d, radii)
    return r0, r1, [(m, k) for m in range(-m_max, m_max + 1) for k in range(-k_max, k_max + 1)
                    if inside(m * u0 + k * u1, m * v0 + k * v1)]


def box_reference_count(ideal, radii) -> int:
    return len(box_reference_points(ideal, radii)[2])


PI_100 = Decimal("3.14159265358979323846264338327950288419716939937510"
                 "58209749445923078164062862089986280348253421170679")


def decimal_log_theta(bundle, digits: int = 50, cut: int = 40) -> Decimal:
    """log theta of a quadratic-field bundle's lattice, the sum over s in
    the ideal of exp(-pi Q(s)) with Q(s) = sum_sigma |sigma(s)|^2 / rho_sigma^2,
    in decimal arithmetic: the oracle for alk's theta sums.  Every s with
    Q(s) <= cut is summed, and the rest add less than about exp(-pi cut) per
    point.  s = m*b0 + k*b1 on the ideal's basis has two real coordinates,
    sigma_1(s) and sigma_2(s) at a real field, Re and Im of sigma(s) at a
    complex one, with Q = w_1 f_1^2 + w_2 f_2^2; the loop bounds on k and m
    come from |f_i| <= sqrt(cut / w_i) in floats, widened by 1e-6."""
    F = bundle.field
    basis = bundle.ideal.basis_elems()
    with localcontext() as ctx:
        ctx.prec = digits + 15
        root = Decimal(abs(F.d)).sqrt()

        def dec(q):
            return Decimal(q.numerator) / Decimal(q.denominator)

        if F.is_real:
            w = [1 / Fraction(r) ** 2 for r in bundle.radii]
            coords = [(dec(x.a) + dec(x.b) * root, dec(x.a) - dec(x.b) * root) for x in basis]
        else:
            w = [2 / Fraction(bundle.radii[0]) ** 2] * 2
            coords = [(dec(x.a), dec(x.b) * root) for x in basis]
        (p0, p1), (q0, q1) = [[float(c) for c in xy] for xy in coords]
        lim = [math.sqrt(cut / float(wi)) for wi in w]
        det = p0 * q1 - q0 * p1
        # k = (p0 f_2 - p1 f_1) / det
        kmax = int((abs(p0) * lim[1] + abs(p1) * lim[0]) / abs(det)) + 1
        wd = [dec(wi) for wi in w]
        total = Decimal(0)
        for k in range(-kmax, kmax + 1):
            lo, hi = -math.inf, math.inf
            for c, e, L in ((p0, q0, lim[0]), (p1, q1, lim[1])):
                if c:  # |m c + k e| <= L
                    ends = sorted(((-L - k * e) / c, (L - k * e) / c))
                    lo, hi = max(lo, ends[0]), min(hi, ends[1])
            for m in range(math.ceil(lo - 1e-6), math.floor(hi + 1e-6) + 1):
                f = [m * a + k * b for a, b in zip(*coords)]
                q = wd[0] * f[0] ** 2 + wd[1] * f[1] ** 2
                if q <= cut:
                    total += (-PI_100 * q).exp()
        return total.ln()


def random_gl2_zp(rng: random.Random, p: int):
    """Random 2x2 integer matrix with unit determinant mod p."""
    from alk.intarith import valuation

    while True:
        m = [[Fraction(rng.randint(-p * p, p * p)) for _ in range(2)]
             for _ in range(2)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 0 and valuation(det, p) == 0:
            return m


def random_invertible(rng: random.Random, n: int, span: int = 3):
    from alk.ratlinalg import mat_det

    while True:
        m = [[Fraction(rng.randint(-span, span)) for _ in range(n)]
             for _ in range(n)]
        if mat_det([row[:] for row in m]) != 0:
            return m


def conjugate_all(field, conjugation, gamma):
    """Every entry of a `git4.Conjugation` over field of the rational n x n
    gamma, as a field element in lowest terms: gamma is cleared once to
    integers v over e, and entry (i, j) of A gamma B is `entry(v, i, j)`
    over e."""
    from alk.nfpoly import _canonical
    from alk.ratlinalg import integer_matrix

    m, e = integer_matrix(gamma)
    v = [x for row in m for x in row]
    n = len(m)
    return [[_canonical(field, num, den * e)
             for num, den in (conjugation.entry(v, i, j) for j in range(n))] for i in range(n)]


def rand_coeffs(rng: random.Random, n: int, span: int = 9):
    """n field coordinates, each 0 with probability 0.2, else a Fraction
    of numerator at most span and denominator at most 6."""
    return [Fraction(rng.randint(-span, span), rng.randint(1, 6))
            if rng.random() < 0.8 else Fraction(0) for _ in range(n)]


def rand_ints(rng: random.Random, n: int, digits: int):
    """n integers of up to digits digits, each 0 with probability 0.2."""
    return [rng.randint(-10 ** digits, 10 ** digits) if rng.random() < 0.8 else 0
            for _ in range(n)]


def is_canonical(x) -> bool:
    """Whether the field element x is in lowest terms over a positive denominator."""
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


def gauss_jordan(a):
    """(det, inverse or None) of a square matrix by plain Gauss-Jordan
    elimination over any field-like entries (int and Fraction taken as
    Fractions, NFElem, complex), with the first nonzero pivot of each
    column: the oracle for ratlinalg's fraction-free elimination and for
    the closed-form inverses of the package, which inverts nothing but
    rational matrices."""
    n = len(a)
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    one = a[0][0] ** 0
    aug = [row + [one if i == j else one * 0 for j in range(n)] for i, row in enumerate(a)]
    det = one
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col] == 0), None)
        if piv is None:
            return one * 0, None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        p = aug[col][col]
        det = det * p
        inv_p = one / p
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col] == 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def random_tower(rng: random.Random):
    """A quartic tower F(sqrt(base * mu^2)), or None when the radicand is
    zero or a square in F.  delta * mu^2 keeps the square class of
    Nr(delta); d + b sqrt(d) with d - b^2 a square is cyclic, and b = 0
    marks a field with no such datum, so all three Galois types occur."""
    from alk.numfield import make_quad_field, make_tower

    d, b = rng.choice(((2, 1), (5, 1), (5, 2), (10, 3), (13, 2), (-1, 0), (3, 0),
                       (-7, 0), (6, 0)))
    F = make_quad_field(d)
    base = rng.choice((F.elem(d, b),
                       F.elem(rng.randint(-9, 9), rng.randint(-9, 9)),
                       F.elem(rng.randint(-9, 9))))
    mu = F.elem(rng.randint(-2, 2), rng.randint(-2, 2)) / rng.randint(1, 3)
    try:
        return make_tower(F, base * mu * mu)
    except ValueError:
        return None


def within_seconds(seconds: int, fn):
    """fn(), or TimeoutError once it has run for the given seconds, so that
    a regression to a hang fails instead of stalling the suite."""
    import signal

    def stop(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def closure_mul(x, y, delta):
    """Product in F(u, v), u^2 = delta and v^2 = conj(delta), of elements
    given by their F-coordinates on (1, u, v, uv): the reference for the
    structure constants of the Kummer closure."""
    from alk.numfield import conj

    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    bar = conj(delta)
    return (x0 * y0 + x1 * y1 * delta + x2 * y2 * bar + x3 * y3 * delta.norm(),
            x0 * y1 + x1 * y0 + (x2 * y3 + x3 * y2) * bar,
            x0 * y2 + x2 * y0 + (x1 * y3 + x3 * y1) * delta,
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1)


def _common_den(vecs):
    """Integer numerators of Fraction vectors over their least common
    denominator."""
    den = math.lcm(1, *(c.denominator for v in vecs for c in v))
    return [[c.numerator * (den // c.denominator) for c in v] for v in vecs], den


class PowerBasisField:
    """Q[x]/(m) on its power basis, for a monic m given low degree first:
    the reference field that the package's Kummer basis is checked
    against.  An element is a tuple of Fraction coefficients; a product is
    schoolbook and reduced mod m by long division, the trace and norm are
    read from the multiplication matrix, and the inverse solves it by
    gauss_jordan."""

    def __init__(self, min_poly):
        self.min_poly = tuple(Fraction(c) for c in min_poly)
        assert self.min_poly[-1] == 1, "monic polynomial required"
        self.degree = len(self.min_poly) - 1
        (self._p,), _ = _common_den([self.min_poly])

    def __eq__(self, other):
        return isinstance(other, PowerBasisField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def reduce(self, c, den: int) -> "PowerBasisElem":
        """The element of integer numerators c over den, reduced mod m by
        long division: with m cleared to integers p over its leading
        integer, each step multiplies by that integer and subtracts the top
        coefficient times p."""
        p = self._p
        n, lead = self.degree, p[-1]
        c = list(c)
        while len(c) > n:
            top = c.pop()
            c = [x * lead for x in c]
            for i in range(n):
                c[len(c) - n + i] -= top * p[i]
            den *= lead
        return PowerBasisElem(self, tuple(Fraction(x, den) for x in c + [0] * (n - len(c))))

    def elem(self, coeffs) -> "PowerBasisElem":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        (c,), den = _common_den([[Fraction(x) for x in coeffs]])
        return self.reduce(c, den)

    def one(self) -> "PowerBasisElem":
        return self.elem(1)

    @property
    def gen(self) -> "PowerBasisElem":
        return self.elem([0, 1])


class PowerBasisElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PowerBasisField, coeffs: tuple):
        self.field, self.coeffs = field, coeffs

    def _coerce(self, other) -> "PowerBasisElem":
        if isinstance(other, PowerBasisElem):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.elem(Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return PowerBasisElem(self.field, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return PowerBasisElem(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """Schoolbook on integer numerators over one denominator, reduced
        mod m by long division."""
        o = self._coerce(other)
        (a, b), den = _common_den([self.coeffs, o.coeffs])
        out = [0] * (2 * self.field.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.field.reduce(out, den * den)

    __rmul__ = __mul__

    def mult_matrix(self):
        """The matrix of multiplication by self, columns self * x^j."""
        n = self.field.degree
        cols = [(self * self.field.elem([0] * j + [1])).coeffs for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def trace(self) -> Fraction:
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(len(m)))

    def norm(self) -> Fraction:
        return gauss_jordan(self.mult_matrix())[0]

    def inverse(self):
        inv = gauss_jordan(self.mult_matrix())[1]
        if inv is None:
            raise ZeroDivisionError("inverse of zero")
        return PowerBasisElem(self.field, tuple(row[0] for row in inv))

    def __truediv__(self, other):
        if isinstance(other, PowerBasisElem):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** -k
        out = self.field.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, PowerBasisElem):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == self.field.elem(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PowerBasisElem({self.coeffs})"


def trace_form_det(basis) -> Fraction:
    """det(Tr(b_i b_j)) by gauss_jordan, for elements of any field."""
    return gauss_jordan([[(x * y).trace() for y in basis] for x in basis])[0]


def power_basis_trace_disc(tower) -> Fraction:
    """The discriminant of theta's power basis, from the trace form of the
    reference field of theta_min_poly."""
    theta = PowerBasisField(tower.theta_min_poly).gen
    return trace_form_det([theta ** i for i in range(4)])


def norm_square_class_reference(delta):
    """numfield.norm_square_class on Fractions: is_square_fraction on
    Nr(delta), then on Nr(delta)/d, with the root from exact_isqrt of
    numerator and denominator; the oracle for the integer route."""
    from alk.intarith import exact_isqrt, is_square_fraction

    n, d = delta.norm(), delta.field.squares[0][0]
    for kind, x in (("biquadratic", n), ("cyclic", n / d)):
        if is_square_fraction(x):
            return kind, Fraction(exact_isqrt(x.numerator), exact_isqrt(x.denominator))
    return "dihedral", None


def is_square_in_field_reference(x) -> bool:
    """numfield.is_square_in_field on Fractions: a rational a is a square
    when a or a/d is one in Q, and a + b sqrt(d) with b != 0 when Nr(x) = r^2
    and (a + r)/2 or (a - r)/2 is a square in Q."""
    from alk.intarith import is_square_fraction

    if x.is_zero():
        return True
    if x.b == 0:
        return is_square_fraction(x.a) or is_square_fraction(x.a / x.field.squares[0][0])
    kind, r = norm_square_class_reference(x)
    return kind == "biquadratic" and any(
        is_square_fraction((x.a + sign * r) / 2) for sign in (1, -1))


def power_basis_disc_reference(tower) -> Fraction:
    """quartics.power_basis_disc on Fractions: 16 Nr(delta) X^2 with
    X = e^4 - 4 e^2 a_delta + 4 b_delta^2 d and e^2 = 4 b_alpha^2 d."""
    d, delta = tower.base.d, tower.delta
    e2 = 4 * tower.alpha.b ** 2 * d
    x = e2 * e2 - 4 * e2 * delta.a + 4 * delta.b ** 2 * d
    return 16 * (delta.a ** 2 - d * delta.b ** 2) * x * x


def random_alpha_tower(rng: random.Random):
    """random_tower's radicand with a fractional alpha drawn directly, or
    None when FieldTower refuses the data."""
    from alk.numfield import FieldTower

    tower = random_tower(rng)
    if tower is None:
        return None
    alpha = tower.base.elem(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    try:
        return FieldTower(tower.base, tower.delta, alpha)
    except ValueError:
        return None


def eta_closure(tower):
    """(L, sqrt(d), u, v) for a dihedral tower K = F(u), u^2 = delta, with L
    the reference field of eta = u + 2v: the degree-8 construction on
    eta's power basis that the Kummer closure replaced, kept as its oracle.

    L = F(u, v) with v^2 = conj(delta) is generated by eta, whose
    conjugates +-u +- 2v and +-v +- 2u are distinct.  One exact elimination
    over the basis sqrt(d)^i u^j v^k gives eta^8 and the coordinates of
    sqrt(d), u and v in the power basis of eta."""
    from alk.ratlinalg import mat_inv, mat_mul, transpose

    delta, F = tower.delta, tower.base
    zero, one = F.elem(0), F.elem(1)
    eta = (zero, one, F.elem(2), zero)
    powers = [(one, zero, zero, zero)]
    for _ in range(8):
        powers.append(closure_mul(powers[-1], eta, delta))

    def coords(x):
        return [c for q in x for c in q.coeffs]

    inv = mat_inv(transpose([coords(p) for p in powers[:8]]))
    eta8, sqrt_d, u, v = (transpose(mat_mul(inv, transpose([coords(x)])))[0] for x in (
        powers[8], (F.elem(0, 1), zero, zero, zero), (zero, one, zero, zero),
        (zero, zero, one, zero)))
    L = PowerBasisField(tuple(-c for c in eta8) + (Fraction(1),))
    return L, L.elem(sqrt_d), L.elem(u), L.elem(v)

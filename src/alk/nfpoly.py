"""Exact arithmetic in Q[x]/(m) for monic m, plus cyclotomic helpers.

Used for quartic towers: traces of order bases, exact embedding matrices
in the Galois closure of a quartic field (degree 4 or 8), and the
Gaussian-period construction of cyclic quartic fields inside Q(zeta_p)
for primes p = 1 mod 4.  The periods and the Gauss sum are integer
vectors in Z[zeta_p]; the coordinates of eta_1 and of sqrt(p) in the
power basis of eta_0 come from one exact Gauss-Jordan elimination on the
overdetermined system.

A field element is a vector of integer numerators over one positive
common denominator, kept in lowest terms (Cohen, GTM 138, ch. 4).  A
field caches an integer table for reducing x^n ... x^(2n-2) mod m and one
`Automorphism` (an integer matrix) per automorphism it applies, so a
product or a conjugate is integer vector work followed by one gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .intarith import factorize


def _over_common_den(vecs) -> tuple[list[list[int]], int]:
    """Integer numerators of Fraction vectors over their least common
    denominator."""
    den = lcm(1, *(c.denominator for v in vecs for c in v))
    return [[c.numerator * (den // c.denominator) for c in v] for v in vecs], den


# ---------------------------------------------------------------------------
# number field elements


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(min_poly) with min_poly monic of degree n."""

    min_poly: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def elem(self, coeffs) -> "NFElem":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        c = [Fraction(x) for x in coeffs]
        n, m = self.degree, self._monic
        while len(c) > n:  # long division by the monic modulus
            top = c.pop()
            for i in range(n):
                c[len(c) - n + i] -= top * m[i]
        (num,), den = _over_common_den([c + [Fraction(0)] * (n - len(c))])
        return _canonical(self, num, den)

    @property
    def gen(self) -> "NFElem":
        return self.elem([0, 1])

    def one(self) -> "NFElem":
        return self.elem(1)

    @cached_property
    def _monic(self) -> list[Fraction]:
        lead = Fraction(self.min_poly[-1])
        return [Fraction(c) / lead for c in self.min_poly]

    @cached_property
    def _reduction(self) -> tuple[list[list[int]], int]:
        """(rows, den) with x^(n+k) = sum_i rows[k][i] x^i / den mod m,
        0 <= k <= n-2."""
        n, m = self.degree, self._monic
        rows, row = [], [-c for c in m[:n]]
        for _ in range(n - 1):
            rows.append(row)
            row = [s - row[-1] * c for s, c in zip([Fraction(0)] + row[:-1], m)]
        return _over_common_den(rows)

    @cached_property
    def _traces(self) -> list[int]:
        """Numerators of Tr(x^i), 0 <= i < n, over the reduction denominator:
        Tr(x^i) sums the x^j coefficients of x^(i+j)."""
        n = self.degree
        rows, den = self._reduction
        return [n * den] + [sum(rows[i + j - n][j] for j in range(n - i, n))
                            for i in range(1, n)]

    @cached_property
    def _automorphisms(self) -> dict:
        return {}

    def automorphism(self, conj_poly) -> "Automorphism":
        """The automorphism sending the generator to conj_poly, built once
        per field and polynomial."""
        key = tuple(conj_poly)
        tau = self._automorphisms.get(key)
        if tau is None:
            tau = self._automorphisms[key] = Automorphism(self, key)
        return tau

    def _mul_ints(self, a, b) -> list[int]:
        """Numerators of a*b mod m over the reduction denominator, for
        integer vectors a and b."""
        n = len(a)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):  # k = i + j
                    prod[k] += x * y
        rows, den = self._reduction
        low = prod[:n] if den == 1 else [c * den for c in prod[:n]]
        for c, row in zip(prod[n:], rows):
            if c:
                for i, r in enumerate(row):
                    low[i] += c * r
        return low


def _canonical(field: NumberField, num, den: int) -> "NFElem":
    """The element num/den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return NFElem(field, tuple(num), den)


class NFElem:
    """The element sum_i num[i] x^i / den of a NumberField; immutable, with
    gcd(den, *num) = 1 and den > 0, so equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def __repr__(self):
        return f"NFElem({self.num}/{self.den} mod {self.field.min_poly})"

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            return other
        q = other if isinstance(other, (int, Fraction)) else Fraction(other)
        return NFElem(self.field, (q.numerator,) + (0,) * (len(self.num) - 1),
                      q.denominator)

    def __add__(self, other):
        o = self._coerce(other)
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.field, [x + y for x, y in zip(self.num, o.num)], da)
        return _canonical(self.field, [x * db + y * da for x, y in zip(self.num, o.num)],
                          da * db)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        K = self.field
        if isinstance(other, NFElem):
            return _canonical(K, K._mul_ints(self.num, other.num),
                              self.den * other.den * K._reduction[1])
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        p = other.numerator
        return _canonical(K, [x * p for x in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def inverse(self):
        """Solves self * y = 1 as a rational linear system in the power basis."""
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero")
        from .ratlinalg import solve

        K, n = self.field, len(self.num)
        # column j: numerators of self * x^j over self.den * K._reduction[1]
        cols = [K._mul_ints(self.num, [int(i == j) for i in range(n)]) for j in range(n)]
        y = solve([[Fraction(c) for c in row] for row in zip(*cols)],
                  [Fraction(int(i == 0)) for i in range(n)])
        scale = self.den * K._reduction[1]
        return K.elem([v * scale for v in y])

    def __truediv__(self, other):
        if isinstance(other, NFElem):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, NFElem):
            return self.num == other.num and self.den == other.den and (
                self.field is other.field or self.field.min_poly == other.field.min_poly)
        if isinstance(other, (int, Fraction)):
            return not any(self.num[1:]) and \
                self.num[0] * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.field.min_poly, self.num, self.den))

    def mult_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (columns)."""
        n = len(self.num)
        cols = [(self * NFElem(self.field, tuple(int(i == j) for i in range(n)), 1)).coeffs
                for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def trace(self) -> Fraction:
        K = self.field
        return Fraction(sum(x * t for x, t in zip(self.num, K._traces)),
                        self.den * K._reduction[1])

    def norm(self) -> Fraction:
        from .ratlinalg import mat_det

        return mat_det(self.mult_matrix())

    def apply_conj(self, conj_poly: Sequence[Fraction]) -> "NFElem":
        """Image under the automorphism sending the generator to conj_poly."""
        return self.field.automorphism(conj_poly)(self)

    def embed(self, root: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * root + complex(float(c))
        return out


class Automorphism:
    """x -> x(conj_poly) on a NumberField: one integer matrix, whose columns
    are the numerators of the images of 1, x, ..., x^(n-1) over one
    denominator, applied to the numerators of x.  A call hashes nothing."""

    __slots__ = ("field", "_rows", "_den")

    def __init__(self, field: NumberField, conj_poly):
        c = field.elem(conj_poly)
        # integer products, not NFElem.__mul__, so the element
        # multiplications a caller performs do not depend on this table
        powers = [field.one()]
        for _ in range(field.degree - 1):
            p = powers[-1]
            powers.append(_canonical(field, field._mul_ints(p.num, c.num),
                                     p.den * c.den * field._reduction[1]))
        cols, self._den = _over_common_den([p.coeffs for p in powers])
        self._rows = [list(r) for r in zip(*cols)]
        self.field = field

    def __call__(self, x: NFElem) -> NFElem:
        num = x.num
        return _canonical(self.field, [sum(r * c for r, c in zip(row, num))
                                       for row in self._rows], x.den * self._den)


# ---------------------------------------------------------------------------
# cyclotomic arithmetic for Gaussian periods


class Cyclotomic:
    """Z[zeta_p] as integer vectors indexed by exponents 0..p-1 with the
    single relation sum_k zeta^k = 0 (canonical form zeroes the coefficient
    of zeta^(p-1))."""

    def __init__(self, p: int):
        self.p = p

    def zero(self) -> list[int]:
        return [0] * self.p

    def canon(self, v):
        c = v[self.p - 1]
        return [x - c for x in v[: self.p - 1]] + [0]

    def add(self, a, b):
        return self.canon([x + y for x, y in zip(a, b)])

    def scal(self, s, a):
        return self.canon([s * x for x in a])

    def mul(self, a, b):
        p, out = self.p, self.zero()
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    out[(i + j) % p] += x * y
        return self.canon(out)

    def monomial(self, k):
        v = self.zero()
        v[k % self.p] = 1
        return self.canon(v)

    def rational_part(self, v):
        """The rational value if v is rational; raises otherwise."""
        v = self.canon(v)
        if any(v[1:]):
            raise ValueError("not a rational cyclotomic element")
        return v[0]


def _primitive_root(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found")


def _solve_in_power_basis(cyc: Cyclotomic, powers: list[list[int]],
                          target: list[int]) -> list[Fraction]:
    """Rational coordinates of target in span(powers), exact, verified.

    One Gauss-Jordan pass over the overdetermined system with a row per
    coordinate zeta^0 .. zeta^(p-2) (Cohen, GTM 138, ch. 2).
    """
    m, rows = len(powers), cyc.p - 1
    aug = [[Fraction(v[i]) for v in powers] + [Fraction(target[i])] for i in range(rows)]
    for col in range(m):
        piv = next((r for r in range(col, rows) if aug[r][col]), None)
        if piv is None:
            raise ArithmeticError("power basis is degenerate")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        pivot_row = aug[col] = [x * inv_p for x in aug[col]]
        for r in range(rows):
            f = aug[r][col]
            if f and r != col:
                aug[r] = [x - f * y for x, y in zip(aug[r], pivot_row)]
    if any(row[m] for row in aug[m:]):
        raise ArithmeticError("target not in the span of the power basis")
    sol = [aug[j][m] for j in range(m)]
    if any(sum(s * v[i] for s, v in zip(sol, powers)) != target[i] for i in range(rows)):
        raise ArithmeticError("solution does not reproduce the target")
    return sol


def gaussian_period_quartic(p: int) -> dict:
    """Exact data for the quartic subfield of Q(zeta_p), p prime, p = 1 mod 4.

    Returns min_poly of the period eta_0, the conjugation polynomial of a
    Galois generator tau (eta_0 -> eta_1), the coordinates of sqrt(p) in
    the power basis, and delta = (eta_0 - eta_2)^2 in F = Q(sqrt(p)) as a
    pair (rational part, sqrt(p) coefficient).
    """
    if p < 2 or p % 4 != 1 or factorize(p) != {p: 1}:
        raise ValueError(f"p must be a prime = 1 mod 4, got p = {p}")
    cyc = Cyclotomic(p)
    g = _primitive_root(p)
    m = (p - 1) // 4
    etas = []
    for j in range(4):
        v = cyc.zero()
        for k in range(m):
            v[pow(g, 4 * k + j, p)] += 1
        etas.append(cyc.canon(v))

    # minimal polynomial prod (X - eta_j), coefficients as cyclotomic vectors
    poly = [cyc.monomial(0)]  # coefficients of X^i, constant term first
    for eta in etas:
        new = [cyc.zero() for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            new[i + 1] = cyc.add(new[i + 1], c)
            new[i] = cyc.add(new[i], cyc.mul(cyc.scal(-1, eta), c))
        poly = new
    min_poly = tuple(Fraction(cyc.rational_part(c)) for c in poly)
    assert min_poly[4] == 1

    powers = [cyc.monomial(0)]
    for _ in range(3):
        powers.append(cyc.mul(powers[-1], etas[0]))

    tau_coords = _solve_in_power_basis(cyc, powers, etas[1])

    # quadratic Gauss sum: sum of legendre(k) zeta^k = sqrt(p) for p = 1 mod 4
    gauss = cyc.zero()
    for k in range(1, p):
        gauss[k] += 1 if pow(k, (p - 1) // 2, p) == 1 else -1
    gauss = cyc.canon(gauss)
    sqrtp_coords = _solve_in_power_basis(cyc, powers, gauss)

    diff = cyc.add(etas[0], cyc.scal(-1, etas[2]))
    delta_vec = cyc.mul(diff, diff)
    # delta lies in Q(sqrt p): delta = u + v*sqrt(p)
    one = cyc.monomial(0)
    sol = _solve_in_power_basis(cyc, [one, gauss], delta_vec)
    u, v = sol

    return {
        "p": p,
        "min_poly": min_poly,
        "tau_poly": tuple(tau_coords),
        "sqrtp_coords": tuple(sqrtp_coords),
        "delta": (u, v),
    }

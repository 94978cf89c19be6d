"""Exact arithmetic in quadratic fields and quadratic towers.

A field F = Q(sqrt(d)) is described by a squarefree integer d.  Its
elements are `nfpoly.NFElem`s on the Kummer basis (1, sqrt d), so
a + b*sqrt(d) has coordinates (a, b); the degree-2 helpers below (conj,
embeddings, coordinates on the integral basis) read them, and a fractional
ideal holds its HNF rows on the same integer numerators.
Finite places are tagged by the splitting behaviour of the rational prime
below them; split-place valuations are read from residues mod p at a root
of the minimal polynomial of the integral-basis generator, so all
finite-place data is exact.  Quartic fields enter only as towers
K = F(sqrt(delta)) given by (F, delta, alpha), theta = alpha + sqrt(delta)
primitive; FieldTower's constructor is the one place that checks them.
K is held on the Kummer basis that extends F's, and theta's power basis
only as data, the rows theta^i of P and P^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index
from typing import Optional, Sequence

from .intarith import (exact_isqrt, factorize, is_prime, is_square_fraction, is_squarefree,
                       sqrt_mod, valuation)
from .nfpoly import NFElem, NumberField, _canonical
from .ratlinalg import integer_matrix, mat_inv, rational


# ---------------------------------------------------------------------------
# fields and elements


@lru_cache(maxsize=None)
def _quad_nf(d: int) -> NumberField:
    return NumberField(((d, 0),))


@dataclass(frozen=True)
class QuadField:
    """F = Q(sqrt(d)) for squarefree d not in {0, 1}; its elements are
    NFElems of nf, the Kummer field of sqrt(d), one NumberField per d."""

    d: int

    def __post_init__(self):
        if index(self.d) in (0, 1) or not is_squarefree(self.d):
            raise ValueError(f"d = {self.d} must be squarefree and not 0 or 1")

    @property
    def disc(self) -> int:
        return abs(self.d) if self.d % 4 == 1 else 4 * abs(self.d)

    @property
    def is_real(self) -> bool:
        return self.d > 0

    @property
    def nf(self) -> NumberField:
        return _quad_nf(self.d)

    def elem(self, a, b=0) -> NFElem:
        """The element a + b*sqrt(d)."""
        if type(a) is int and type(b) is int:
            return NFElem(self.nf, (a, b), 1)
        (num,), den = integer_matrix([[a, b]])
        return NFElem(self.nf, tuple(num), den)

    def coerce(self, x) -> NFElem:
        """x as an element of F: a rational, or an element of F itself."""
        if not isinstance(x, NFElem):
            return self.elem(x)
        if x.field != self.nf:
            raise ValueError(f"{x} is not an element of {self}")
        return x

    @property
    def omega(self) -> NFElem:
        # generator of the ring of integers over Z
        if self.d % 4 == 1:
            return NFElem(self.nf, (1, 1), 2)
        return NFElem(self.nf, (0, 1), 1)

    def gen_min_poly(self) -> tuple[Fraction, Fraction]:
        """(c0, c1) with omega^2 + c1*omega + c0 = 0."""
        if self.d % 4 == 1:  # omega^2 = omega + (d - 1) / 4
            return (Fraction((1 - self.d) // 4), Fraction(-1))
        return (Fraction(-self.d), Fraction(0))

    def __repr__(self):
        return f"QuadField(d={self.d})"


def make_quad_field(d: int) -> QuadField:
    return QuadField(d)


def _d(x: NFElem) -> int:
    """d for an element x of Q(sqrt(d))."""
    return x.field.squares[0][0]


def conj(x: NFElem) -> NFElem:
    """The Galois conjugate a - b*sqrt(d) of x = a + b*sqrt(d)."""
    return NFElem(x.field, (x.num[0], -x.num[1]), x.den)


def gen_ints(x: NFElem) -> tuple[int, int, int]:
    """Integers (u, w, den) with x = (u + w*omega) / den."""
    an, bn = x.num
    if _d(x) % 4 == 1:  # sqrt(d) = 2*omega - 1
        return (an - bn, 2 * bn, x.den)
    return (an, bn, x.den)


def gen_coords(x: NFElem) -> tuple[Fraction, Fraction]:
    """Coordinates (u, v) with x = u + v*omega."""
    u, w, den = gen_ints(x)
    return (Fraction(u, den), Fraction(w, den))


def embeddings(x: NFElem) -> tuple[complex, complex]:
    """The two complex embedding values of a quadratic field element
    (conjugates for d < 0; floats for d > 0)."""
    d = _d(x)
    # int / int rounds correctly, so these equal float(x.a), float(x.b)
    a, b = x.num[0] / x.den, x.num[1] / x.den
    if d > 0:
        s = math.sqrt(d)
        return (a + b * s, a - b * s)
    s = math.sqrt(-d)
    z = complex(a, b * s)
    return (z, z.conjugate())


def is_square_in_field(x: NFElem) -> bool:
    """Whether x = (A + B sqrt(d)) / D is a square in its quadratic field,
    decided on the integers A, B and D."""
    if x.is_zero():
        return True
    (A, B), D = x.num, x.den
    if B == 0:
        # A/D in lowest terms is a square iff A D is, and A/(D d) iff A D d is
        return exact_isqrt(A * D) is not None or exact_isqrt(A * D * _d(x)) is not None
    # (s + t sqrt(d))^2 = x needs Nr(x) = (n/D)^2 and one of the rationals
    # s^2 = (A +- n) / 2D a square, that is 2D(A +- n) a square
    n = exact_isqrt(A * A - _d(x) * B * B)
    return n is not None and any(exact_isqrt(2 * D * (A + sign * n)) is not None
                                 for sign in (1, -1))


def norm_square_class(delta: NFElem) -> tuple[str, Optional[Fraction]]:
    """The square class of Nr(delta) for delta = (A + B sqrt(d)) / D != 0,
    which decides the Galois type of F(sqrt(delta))/Q when delta is not a
    square in F (Kappe-Warren, Amer. Math. Monthly 96 (1989)):
    ("biquadratic", r) with r^2 = Nr(delta), ("cyclic", r) with
    r^2 = Nr(delta)/d, or ("dihedral", None).  With N = A^2 - d B^2, so
    that Nr(delta) = N / D^2, the class is biquadratic when N = s^2, with
    r = s/D, and cyclic when N d = t^2, with r = t / (|d| D): one integer
    square root per test.  A rational delta has Nr(delta) = delta^2, so it
    is biquadratic."""
    (A, B), D = delta.num, delta.den
    d = _d(delta)
    n = A * A - d * B * B
    s = exact_isqrt(n)
    if s is not None:
        return "biquadratic", Fraction(s, D)
    t = exact_isqrt(n * d)
    if t is not None:
        return "cyclic", Fraction(t, abs(d) * D)
    return "dihedral", None


# ---------------------------------------------------------------------------
# places


def splitting_type(F: QuadField, p: int) -> str:
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    d = F.d
    if p == 2:
        if d % 8 == 1:
            return "split"
        if d % 4 == 1:  # d = 5 mod 8
            return "inert"
        return "ramified"
    if d % p == 0:
        return "ramified"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


@lru_cache(maxsize=None)
def _hensel_root(d: int, p: int) -> int:
    """The least root in [0, p) of omega's minimal polynomial mod p (split
    p only): (-c1 +- s) / 2 for s the square root of its discriminant mod
    an odd p; at p = 2 the two residues are tried."""
    c0, c1 = map(int, QuadField(d).gen_min_poly())
    if p == 2:
        return next(x for x in range(2) if (x * x + c1 * x + c0) % 2 == 0)
    s = sqrt_mod(c1 * c1 - 4 * c0, p)
    return min((-c1 + e * s) * ((p + 1) // 2) % p for e in (1, -1))


@dataclass(frozen=True)
class Place:
    """A place of a quadratic field.

    kind: 'finite', 'real' or 'complex'.  Finite places carry the prime p
    and a tag in {'split1', 'split2', 'inert', 'ramified'}; real places an
    embedding index in {0, 1}.  The two split places are the primes
    (p, omega - r) at the two roots r of omega's minimal polynomial mod p.
    """

    field: QuadField
    kind: str
    p: int = 0
    tag: str = ""
    embedding_index: int = 0

    @property
    def residue_size(self) -> int:
        """q_v, the size of the residue field (finite places)."""
        if self.kind != "finite":
            raise ValueError("residue field only at finite places")
        return self.p * self.p if self.tag == "inert" else self.p

    def hensel_root(self) -> int:
        """This split place's root mod p of omega's minimal polynomial."""
        if not self.tag.startswith("split"):
            raise ValueError("root mod p only at split places")
        r = _hensel_root(self.field.d, self.p)
        if self.tag == "split2":
            # the other root; the two roots sum to -c1 mod p
            _, c1 = self.field.gen_min_poly()
            r = (-int(c1) - r) % self.p
        return r


def finite_places(F: Optional[QuadField], p: int) -> list[Place]:
    """The finite places over the prime p: of F, or the one of Q when F is
    None; ValueError unless p is a prime."""
    if F is None:
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        return [Place(None, "finite", p, "ramified")]
    t = splitting_type(F, p)
    if t == "split":
        return [Place(F, "finite", p, "split1"), Place(F, "finite", p, "split2")]
    return [Place(F, "finite", p, t)]


def infinite_places(F: QuadField) -> list[Place]:
    if F.is_real:
        return [Place(F, "real", embedding_index=0), Place(F, "real", embedding_index=1)]
    return [Place(F, "complex")]


def finite_valuation(x: NFElem, v: Place) -> int:
    """Exact valuation of x != 0 at a finite place."""
    if x.is_zero():
        raise ValueError("valuation of 0")
    p, tag = v.p, v.tag
    nv = valuation(x.norm(), p)
    if tag == "inert":
        if nv % 2 != 0:
            raise ArithmeticError("odd norm valuation at an inert place")
        return nv // 2
    if tag == "ramified":
        return nv
    # split: x = (u + w*omega) / den = p^s * y * (unit at p) with
    # y = (u + w*omega) / p^k not divisible by p.  The two primes over p are
    # coprime, so y lies in at most one of them: in this place's prime
    # (p, omega - r) exactly when u + w*r = 0 mod p^(k+1), and then that
    # prime carries all of Nr(y)'s p-part, v_p(Nr x) - 2s.
    u, w, den = gen_ints(x)
    k = min(valuation(c, p) for c in (u, w) if c)
    s = k - valuation(den, p)
    if (u + w * v.hensel_root()) % p ** (k + 1) == 0:
        return nv - s
    return s


def place_data(F: QuadField, x: NFElem, v: Place) -> tuple[Optional[int], float | Fraction]:
    """(valuation, normalized absolute value) of x at the place v.

    Finite absolute values are exact Fractions q_v^(-val); Archimedean
    ones are floats, squared modulus at the complex place.
    """
    if v.kind == "finite":
        val = finite_valuation(x, v)
        return val, Fraction(1, v.residue_size) ** val
    if v.kind == "real":
        return None, abs(embeddings(x)[v.embedding_index])
    # complex place, normalized absolute value = squared modulus = Nr(x)
    return None, float(abs(x.norm()))


def support_places(F: QuadField, x: NFElem) -> list[Place]:
    """All finite places where |x|_v can differ from 1."""
    if x.is_zero():
        raise ValueError("0 has no support")
    u, w = gen_coords(x)
    den = math.lcm(u.denominator, w.denominator)
    y = x * den
    primes = set(factorize(den)) | set(factorize(int(y.norm())))
    out: list[Place] = []
    for p in sorted(primes):
        out.extend(finite_places(F, p))
    return out


def content(F: QuadField, x: NFElem) -> float:
    """Product of |x|_v over all places; equals 1 for x != 0."""
    c = Fraction(1)
    for v in support_places(F, x):
        c *= place_data(F, x, v)[1]
    out = float(c)
    for v in infinite_places(F):
        out *= place_data(F, x, v)[1]
    return out


# ---------------------------------------------------------------------------
# fractional ideals (maximal order of a quadratic field)


@dataclass(frozen=True)
class FracIdeal:
    """Fractional ideal of O_F, stored as an HNF basis on the Kummer numerators
    an NFElem holds: rows (a, b) and (0, c) meaning (a + b*sqrt(d)) / den and
    c*sqrt(d) / den.  The form is canonical (a, c > 0, 0 <= b < c,
    gcd(a, b, c, den) = 1), so equal ideals have equal (rows, den)."""

    field: QuadField
    rows: tuple[tuple[int, int], tuple[int, int]]
    den: int

    def __post_init__(self):
        # equality and hashing read (rows, den), so only the canonical form
        # of an ideal may be stored
        (a, b), (z, c) = self.rows
        if not (z == 0 and a > 0 and 0 <= b < c and self.den > 0
                and math.gcd(a, b, c, self.den) == 1):
            raise ValueError(f"{self.rows} / {self.den} is not a canonical HNF basis")

    @staticmethod
    def from_gens(F: QuadField, gens: Sequence[NFElem]) -> "FracIdeal":
        """O_F-module generated by the given elements: the Z-span of each x
        and x*omega, for x = (u + v*sqrt(d)) / e."""
        d = F.d
        den = math.lcm(*[g.den for g in gens])
        rows = []
        for g in gens:
            u, v = (x * (den // g.den) for x in g.num)
            if d % 4 == 1:  # 2x and 2x*omega = x + x*sqrt(d), over 2*den
                rows += [(2 * u, 2 * v), (u + d * v, u + v)]
            else:
                rows += [(u, v), (d * v, u)]
        return FracIdeal._from_rows(F, rows, 2 * den if d % 4 == 1 else den)

    @staticmethod
    def _from_rows(F: QuadField, rows, den: int) -> "FracIdeal":
        """The Z-module spanned by the integer rows (x, y), scaled by 1/den, in
        its canonical form, from one pass over the rows: each joins the HNF
        ((a, b), (0, c)) of the rows before it, since (a, b) and (x, y) span
        what (g, s*b + t*y) and (0, (a*y - x*b) / g) span, for
        g = gcd(a, x) = s*a + t*x (Cohen, GTM 138, 2.4).  ValueError unless
        the rows span a rank-2 module."""
        a = b = c = 0
        for x, y in rows:
            if x:
                g = math.gcd(a, x)
                s = pow(a // g, -1, abs(x) // g)  # s*a = g mod x, so t is exact
                t = (g - s * a) // x
                a, b, c = g, s * b + t * y, math.gcd(c, (a * y - x * b) // g)
            else:
                c = math.gcd(c, y)
            if c:
                b %= c
        if not (a and c):
            raise ValueError("rows do not span a rank-2 module")
        g = math.gcd(a, b, c, den)
        return FracIdeal(F, ((a // g, b // g), (0, c // g)), den // g)

    @staticmethod
    def maximal_order(F: QuadField) -> "FracIdeal":
        if F.d % 4 == 1:  # 1 = 2/2 and omega = (1 + sqrt(d)) / 2
            return FracIdeal(F, ((1, 1), (0, 2)), 2)
        return FracIdeal(F, ((1, 0), (0, 1)), 1)

    def basis_elems(self) -> tuple[NFElem, NFElem]:
        return tuple(_canonical(self.field.nf, row, self.den) for row in self.rows)

    def norm(self) -> Fraction:
        # the covolume a*c/den^2 over O_F's, 1/2 when d = 1 mod 4 and 1 otherwise
        (a, _), (_, c) = self.rows
        return Fraction(a * c * (2 if self.field.d % 4 == 1 else 1), self.den ** 2)

    def conj(self) -> "FracIdeal":
        return FracIdeal._from_rows(self.field, [(u, -v) for u, v in self.rows], self.den)

    def inverse(self) -> "FracIdeal":
        # L * conj(L) = Nr(L) * O_F, so L^-1 = conj(L) * den^2 / (a*c*k)
        n = self.norm()
        return FracIdeal._from_rows(
            self.field, [(u * n.denominator, -v * n.denominator) for u, v in self.rows],
            self.den * n.numerator)

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        # the Z-span of the four products of basis rows is already an O_F-module
        d = self.field.d
        rows = [(u * x + d * v * y, u * y + v * x) for u, v in self.rows for x, y in other.rows]
        return FracIdeal._from_rows(self.field, rows, self.den * other.den)

    def scale(self, c) -> "FracIdeal":
        """c * L for a nonzero rational or field element c."""
        c = self.field.coerce(c)
        d, (x, y) = self.field.d, c.num
        rows = [(u * x + d * v * y, u * y + v * x) for u, v in self.rows]
        return FracIdeal._from_rows(self.field, rows, self.den * c.den)

    def __pow__(self, n: int) -> "FracIdeal":
        if n == 0:
            return FracIdeal.maximal_order(self.field)
        # left to right over the bits of |n|, from the base itself
        base = self if n > 0 else self.inverse()
        out = base
        for bit in bin(abs(n))[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def contains(self, x: NFElem) -> bool:
        """Whether x = (p + q*sqrt(d)) / e lies in the ideal: (p, q) * den / e
        = m*(a, b) + n*(0, c) over Z."""
        (p, q), e = x.num, x.den
        (a, b), (_, c) = self.rows
        u, w = p * self.den, q * self.den
        if u % e or w % e:
            return False
        u, w = u // e, w // e
        return u % a == 0 and (w - u // a * b) % c == 0

    def is_ideal(self) -> bool:
        omega = self.field.omega
        return all(self.contains(b * omega) for b in self.basis_elems())


def prime_ideal(place: Place) -> FracIdeal:
    """The prime ideal of O_F attached to a finite place."""
    F, p = place.field, place.p
    if place.tag == "inert":
        return FracIdeal.from_gens(F, [F.elem(p)])
    if place.tag == "ramified":
        d = F.d
        if p != 2 or d % 2 == 0:
            gen = F.elem(0, 1)  # sqrt(d)
        else:  # p = 2, d = 3 mod 4
            gen = F.elem(1, 1)
        return FracIdeal.from_gens(F, [F.elem(p), gen])
    r = place.hensel_root()
    omega = F.omega
    return FracIdeal.from_gens(F, [F.elem(p), omega - F.elem(r)])


# ---------------------------------------------------------------------------
# towers K = F(sqrt(delta))


@dataclass(frozen=True)
class FieldTower:
    """Q c F c K = F(sqrt(delta)) with [K:F] = 2.

    base None means F = Q (then K is the quadratic field of sqrt(delta)).
    A quartic tower is (F, delta, alpha) with delta and alpha in F: its
    primitive element theta = alpha + sqrt(delta) has the conjugates
    alpha +- sqrt(delta) and conj(alpha) +- sqrt(conj delta), which git4
    builds from this one root formula; the data below are derived from
    (F, delta, alpha) on first use.  K is `nf`, on the Kummer basis
    {1, sqrt d, u, sqrt(d) u} that extends F's, with u = c sqrt(delta) and
    c = `u_scale` the denominator of delta; P's rows are `theta_powers`.
    declared_DK, when present, is the certified discriminant of K's
    maximal order.

    The constructor raises ValueError unless delta is a nonzero nonsquare
    (in F, or in Q) and, for a quartic tower, alpha and delta are not both
    rational.  This proves theta of degree 4, so P is invertible: [K:F] = 2,
    and (theta - alpha)^2 = delta gives sqrt(d) (2 b1 theta - bb) in Q(theta)
    for alpha = a1 + b1 sqrt(d), alpha^2 - delta = ba + bb sqrt(d), where
    2 b1 theta - bb = 0 only when b1 = bb = 0, with alpha and delta rational.
    """

    base: Optional[QuadField]
    delta: object  # NFElem of base for quartic towers, a rational for base Q
    alpha: Optional[NFElem] = None  # theta - sqrt(delta), in F
    declared_DK: Optional[int] = None
    galois_hint: Optional[str] = None

    def __post_init__(self):
        F, delta, alpha = self.base, self.delta, self.alpha
        if F is None:
            if alpha is not None or delta == 0 or is_square_fraction(delta):
                raise ValueError("delta must be a nonsquare")
            return
        # coerce raises ValueError for an element of another field
        if not all(isinstance(x, NFElem) and F.coerce(x) is x for x in (delta, alpha)):
            raise ValueError("a quartic tower needs delta and alpha in F")
        if delta.is_zero() or is_square_in_field(delta):
            raise ValueError("delta must be a nonsquare in F")
        if delta.num[1] == 0 and alpha.num[1] == 0:
            raise ValueError("theta = alpha + sqrt(delta) is not primitive: "
                             "alpha and delta are both rational")

    @property
    def degree(self) -> int:
        return 2 if self.base is None else 4

    @cached_property
    def theta_min_poly(self) -> Optional[tuple[Fraction, ...]]:
        """N_{F/Q}((x - alpha)^2 - delta), low-degree first, for
        alpha = a1 + b1*sqrt(d) and alpha^2 - delta = ba + bb*sqrt(d):
        x^4 - Tr(2 alpha) x^3 + (Tr(beta) + Nr(2 alpha)) x^2
        - Tr(2 alpha conj(beta)) x + Nr(beta).  None for base Q."""
        if self.base is None:
            return None
        d, a1, b1 = self.base.d, self.alpha.a, self.alpha.b
        beta = self.alpha * self.alpha - self.delta
        ba, bb = beta.a, beta.b
        return (ba * ba - d * bb * bb, 4 * (d * b1 * bb - a1 * ba),
                2 * ba + 4 * (a1 * a1 - d * b1 * b1), -4 * a1, Fraction(1))

    @property
    def u_scale(self) -> int:
        return self.delta.den

    @cached_property
    def nf(self) -> NumberField:
        """K = F(u), u^2 = c^2 delta, on the Kummer basis {1, sqrt d} x {1, u}."""
        c = self.u_scale
        return NumberField(((self.base.d, 0), tuple(x * c for x in self.delta.num)))

    @cached_property
    def theta_powers(self) -> tuple[NFElem, ...]:
        """theta^0, ..., theta^3 in nf, theta = alpha + u/c: the rows of P."""
        theta = self.nf.elem([self.alpha.a, self.alpha.b, Fraction(1, self.u_scale)])
        return tuple(theta ** i for i in range(4))

    @cached_property
    def theta_basis_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """P^-1: row j is the basis element e_j of nf in the power basis of theta."""
        return tuple(map(tuple, mat_inv([x.coeffs for x in self.theta_powers])))

    @cached_property
    def sqrt_d_coords(self) -> Optional[tuple[Fraction, ...]]:
        """sqrt(d) = e_1 in the power basis of theta.  None for base Q."""
        return None if self.base is None else self.theta_basis_inverse[1]


def make_tower(
    F: Optional[QuadField],
    delta,
    declared_DK: Optional[int] = None,
    galois_hint: Optional[str] = None,
) -> FieldTower:
    """The tower F(sqrt(delta)), or Q(sqrt(delta)) when F is None, with
    delta a rational or an element of F itself.  theta = sqrt(delta)
    (alpha = 0) when delta is not rational, and theta = sqrt(d) + sqrt(e)
    (alpha = sqrt(d)) when delta = e is; FieldTower raises ValueError
    unless delta is a nonzero nonsquare."""
    if F is None:
        return FieldTower(None, rational(delta), declared_DK=declared_DK,
                          galois_hint=galois_hint)
    delta = F.coerce(delta)
    alpha = F.elem(0, 1) if delta.num[1] == 0 else F.elem(0)
    return FieldTower(F, delta, alpha, declared_DK, galois_hint)

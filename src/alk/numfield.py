"""Exact arithmetic in quadratic fields and quadratic towers.

A field F = Q(sqrt(d)) is described by a squarefree integer d.  Its
elements are `nfpoly.NFElem`s of Q[x]/(x^2 - d), x = sqrt(d), so
a + b*sqrt(d) has power-basis coordinates (a, b); the degree-2 helpers
below (conj, embeddings, coordinates on the integral basis) read them.
Finite places are tagged by the splitting behaviour of the rational prime
below them; split-place valuations are read from residues mod p at a root
of the minimal polynomial of the integral-basis generator, so all
finite-place data is exact.  Quartic fields enter only as towers
K = F(sqrt(delta)); the one test that delta is not a square in F also
proves the tower quartic irreducible (see make_tower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .intarith import (
    factorize,
    is_square_fraction,
    is_squarefree,
    prime_support,
    sqrt_fraction,
    valuation,
)
from .nfpoly import NFElem, NumberField, _canonical


# ---------------------------------------------------------------------------
# fields and elements


@lru_cache(maxsize=None)
def _quad_nf(d: int) -> NumberField:
    return NumberField((Fraction(-d), Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class QuadField:
    """F = Q(sqrt(d)) for squarefree d not in {0, 1}; its elements are
    NFElems of nf = Q[x]/(x^2 - d), one NumberField per d."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1) or not is_squarefree(self.d):
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
        a, b = Fraction(a), Fraction(b)
        # numerators over the lcm of the denominators are already coprime to it
        den = math.lcm(a.denominator, b.denominator)
        return NFElem(self.nf, (a.numerator * (den // a.denominator),
                                b.numerator * (den // b.denominator)), den)

    def coerce(self, x) -> NFElem:
        """x as an element of F: a rational, or an element of F itself."""
        if not isinstance(x, NFElem):
            return self.elem(x)
        if x.field.min_poly != self.nf.min_poly:
            raise ValueError(f"{x} is not an element of {self}")
        return x

    @property
    def omega(self) -> NFElem:
        # generator of the ring of integers over Z
        if self.d % 4 == 1:
            return NFElem(self.nf, (1, 1), 2)
        return NFElem(self.nf, (0, 1), 1)

    @property
    def integral_basis(self) -> tuple[NFElem, NFElem]:
        return (self.elem(1), self.omega)

    @property
    def omega_square(self) -> tuple[int, int]:
        """(t, s) with omega^2 = t*omega + s."""
        return (1, (self.d - 1) // 4) if self.d % 4 == 1 else (0, self.d)

    def gen_min_poly(self) -> tuple[Fraction, Fraction]:
        """(c0, c1) with omega^2 + c1*omega + c0 = 0."""
        t, s = self.omega_square
        return (Fraction(-s), Fraction(-t))

    def from_gen_coords(self, u: int, w: int, den: int) -> NFElem:
        """The element (u + w*omega) / den, den > 0."""
        if self.d % 4 == 1:  # omega = (1 + sqrt(d)) / 2
            return _canonical(self.nf, (2 * u + w, w), 2 * den)
        return _canonical(self.nf, (u, w), den)

    def __repr__(self):
        return f"QuadField(d={self.d})"


def make_quad_field(d: int) -> QuadField:
    return QuadField(d)


def _d(x: NFElem) -> int:
    """d for an element x of Q[x]/(x^2 - d)."""
    return -x.field.min_poly[0].numerator


_CONJ = (0, -1)  # sqrt(d) -> -sqrt(d)


def conj(x: NFElem) -> NFElem:
    """The Galois conjugate of a quadratic field element."""
    return x.apply_conj(_CONJ)


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
    """Whether x is a square in its quadratic field."""
    if x.is_zero():
        return True
    d = _d(x)
    if x.b == 0:
        return is_square_fraction(x.a) or is_square_fraction(x.a / d)
    # (s + t sqrt(d))^2 = x needs Nr(x) a square and s^2 = (a +- sqrt(Nr))/2 a square
    n = x.norm()
    if not is_square_fraction(n):
        return False
    r = sqrt_fraction(n)
    for s2 in ((x.a + r) / 2, (x.a - r) / 2):
        if is_square_fraction(s2):
            return True
    return False


# ---------------------------------------------------------------------------
# places


def splitting_type(F: QuadField, p: int) -> str:
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
    p only)."""
    c0, c1 = QuadField(d).gen_min_poly()
    return next(x for x in range(p) if (x * x + int(c1) * x + int(c0)) % p == 0)


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


def finite_places(F: QuadField, p: int) -> list[Place]:
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
        q = Fraction(v.residue_size)
        return val, q ** (-val)
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
    primes = set(prime_support(Fraction(den))) if den != 1 else set()
    primes |= set(factorize(int(y.norm())))
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


def _hnf_rows(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite normal form [[a, b], [0, c]] of the Z-module spanned by rows."""
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise ValueError("zero module")
    # gcd of the first column with Bezout tracking
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        a = nz[0]
        new = [a]
        for r in nz[1:]:
            q = r[0] // a[0]
            new.append((r[0] - q * a[0], r[1] - q * a[1]))
        rows = new + [r for r in rows if r[0] == 0]
    first = next((r for r in rows if r[0] != 0), None)
    seconds = [r[1] for r in rows if r[0] == 0]
    if first is None or not seconds:
        raise ValueError("rows do not span a rank-2 module")
    c = 0
    for s in seconds:
        c = math.gcd(c, s)
    if c == 0:
        raise ValueError("rows do not span a rank-2 module")
    a, b = abs(first[0]), first[1] if first[0] > 0 else -first[1]
    b %= c
    return (a, b), (0, c)


@dataclass(frozen=True)
class FracIdeal:
    """Fractional ideal of O_F, stored as an HNF basis over the integral
    basis (1, omega): rows (a, b) meaning a + b*omega, scaled by 1/den.
    The form is canonical (a, c > 0, 0 <= b < c, gcd(a, b, c, den) = 1),
    so equal ideals have equal (rows, den)."""

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
        """O_F-module generated by the given elements."""
        t, s = F.omega_square
        coords = [gen_ints(g) for g in gens]
        den = math.lcm(*[e for _, _, e in coords])
        rows = []
        for u, w, e in coords:
            u, w = u * (den // e), w * (den // e)
            rows.append((u, w))
            rows.append(_times_omega(t, s, u, w))
        return FracIdeal._from_rows(F, rows, den)

    @staticmethod
    def _from_rows(F: QuadField, rows, den: int) -> "FracIdeal":
        """The Z-module spanned by the integer rows, scaled by 1/den, in
        lowest terms."""
        r = _hnf_rows(rows)
        g = math.gcd(r[0][0], r[0][1], r[1][1], den)
        rows2 = ((r[0][0] // g, r[0][1] // g), (0, r[1][1] // g))
        return FracIdeal(F, rows2, den // g)

    @staticmethod
    def maximal_order(F: QuadField) -> "FracIdeal":
        return FracIdeal(F, ((1, 0), (0, 1)), 1)

    def basis_elems(self) -> tuple[NFElem, NFElem]:
        F, den = self.field, self.den
        return tuple(F.from_gen_coords(u, w, den) for u, w in self.rows)

    def norm(self) -> Fraction:
        (a, _), (_, c) = self.rows
        return Fraction(a * c, self.den ** 2)

    def _conj_rows(self) -> list[tuple[int, int]]:
        # conj(omega) = t - omega
        t, _ = self.field.omega_square
        return [(u + t * w, -w) for u, w in self.rows]

    def conj(self) -> "FracIdeal":
        return FracIdeal._from_rows(self.field, self._conj_rows(), self.den)

    def inverse(self) -> "FracIdeal":
        # L * conj(L) = Nr(L) * O_F in the maximal order, Nr(L) = a*c/den^2
        (a, _), (_, c) = self.rows
        den = self.den
        return FracIdeal._from_rows(
            self.field, [(u * den, w * den) for u, w in self._conj_rows()], a * c)

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        # each product of basis rows, and that product times omega
        t, s = self.field.omega_square
        rows = []
        for x in self.rows:
            for y in other.rows:
                u, v = _row_product(t, s, x, y)
                rows.append((u, v))
                rows.append(_times_omega(t, s, u, v))
        return FracIdeal._from_rows(self.field, rows, self.den * other.den)

    def scale(self, c) -> "FracIdeal":
        """c * L for a nonzero rational or field element c."""
        F = self.field
        u, w, e = gen_ints(F.coerce(c))
        t, s = F.omega_square
        rows = [_row_product(t, s, x, (u, w)) for x in self.rows]
        return FracIdeal._from_rows(F, rows, self.den * e)

    def __pow__(self, n: int) -> "FracIdeal":
        if n == 0:
            return FracIdeal.maximal_order(self.field)
        if n < 0:
            return self.inverse() ** (-n)
        out = FracIdeal.maximal_order(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _has_row(self, u: int, w: int) -> bool:
        """Whether (u + w*omega) / den lies in the ideal: (u, w) = m*(a, b)
        + n*(0, c) over Z."""
        (a, b), (_, c) = self.rows
        return u % a == 0 and (w - u // a * b) % c == 0

    def contains(self, x: NFElem) -> bool:
        u, w, e = gen_ints(x)
        u, w = u * self.den, w * self.den
        return u % e == 0 and w % e == 0 and self._has_row(u // e, w // e)

    def is_ideal(self) -> bool:
        t, s = self.field.omega_square
        return all(self._has_row(*_times_omega(t, s, u, w)) for u, w in self.rows)

    def __eq__(self, other):
        if not isinstance(other, FracIdeal):
            return NotImplemented
        return (self.rows == other.rows and self.den == other.den
                and self.field.d == other.field.d)

    def __hash__(self):
        return hash((self.field.d, self.rows, self.den))


def _times_omega(t: int, s: int, u: int, w: int) -> tuple[int, int]:
    """(u + w*omega) * omega over (1, omega), with omega^2 = t*omega + s."""
    return (s * w, u + t * w)


def _row_product(t: int, s: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(x0 + x1*omega) * (y0 + y1*omega) over (1, omega)."""
    return (x[0] * y[0] + s * x[1] * y[1], x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1])


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
    """Q c F c K with [K:F] = 2.

    base None means F = Q (then K is the quadratic field of sqrt(delta)).
    For quartic towers theta denotes a primitive element of K with monic
    minimal polynomial theta_min_poly (degree 4, rational coefficients);
    sqrt_d_coords expresses sqrt(d) in the power basis of theta.
    declared_DK, when present, is the certified discriminant of K's
    maximal order.
    conj_polys, when present, give the four embeddings K -> K (abelian K)
    as polynomials in theta, ordered compatibly with F.
    """

    base: Optional[QuadField]
    delta: object  # NFElem of base for quartic towers, Fraction for base Q
    theta_min_poly: Optional[tuple[Fraction, ...]] = None
    sqrt_d_coords: Optional[tuple[Fraction, ...]] = None
    declared_DK: Optional[int] = None
    galois_hint: Optional[str] = None
    conj_polys: Optional[tuple[tuple[Fraction, ...], ...]] = field(default=None)

    @property
    def degree(self) -> int:
        return 2 if self.base is None else 4


def make_tower(
    F: Optional[QuadField],
    delta,
    declared_DK: Optional[int] = None,
    galois_hint: Optional[str] = None,
    conj_polys=None,
) -> FieldTower:
    """The tower F(sqrt(delta)), or Q(sqrt(delta)) when F is None.

    Raises ValueError unless delta is a nonzero nonsquare (in F, or in Q),
    given as a rational or as an element of F itself.  For quartic towers
    the nonsquare test alone decides that theta_min_poly is irreducible
    over Q:
    - delta = a + b*sqrt(d) with b != 0: theta = sqrt(delta) gives
      sqrt(d) = (theta^2 - a)/b in Q(theta), so Q(theta) = F(sqrt(delta)),
      of degree 4 exactly when delta is not a square in F; then the monic
      quartic x^4 - Tr(delta) x^2 + Nr(delta) is theta's minimal polynomial.
    - delta = e rational: Q(sqrt d, sqrt e) has degree 4 exactly when e is
      not a square in F (neither e nor e/d a rational square), and then
      theta = sqrt(d) + sqrt(e) is primitive in it: its four conjugates
      +-sqrt(d) +- sqrt(e) are distinct, as e = d is a square in F.
    """
    if F is None:
        delta = Fraction(delta)
        if delta == 0 or is_square_fraction(delta):
            raise ValueError("delta must be a nonsquare")
        return FieldTower(None, delta, declared_DK=declared_DK, galois_hint=galois_hint)
    delta = F.coerce(delta)
    if delta.is_zero() or is_square_in_field(delta):
        raise ValueError("delta must be a nonsquare in F")
    d = F.d
    if delta.b != 0:
        # theta = sqrt(delta), minimal polynomial x^4 - Tr(delta) x^2 + Nr(delta)
        mp = (delta.norm(), Fraction(0), -delta.trace(), Fraction(0), Fraction(1))
        sq = (Fraction(-delta.a, 1) / delta.b, Fraction(0), 1 / delta.b, Fraction(0))
    else:
        # biquadratic: theta = sqrt(d) + sqrt(e)
        e = delta.a
        mp = ((Fraction(d) - e) ** 2, Fraction(0), -2 * (Fraction(d) + e),
              Fraction(0), Fraction(1))
        sq = _sqrt_coords(d, e)
    return FieldTower(F, delta, mp, sq, declared_DK, galois_hint, conj_polys)


def _sqrt_coords(d, e) -> tuple[Fraction, ...]:
    """sqrt(d) in the power basis of theta = sqrt(d) + sqrt(e), e != d:
    theta^3 - (3d + e) theta = 2 (e - d) sqrt(d)."""
    c = 1 / (2 * (Fraction(e) - d))
    return (Fraction(0), -(3 * d + e) * c, Fraction(0), c)


def biquadratic_conj_polys(d, e) -> tuple[tuple[Fraction, ...], ...]:
    """The conjugates +-sqrt(d) +- sqrt(e) of theta = sqrt(d) + sqrt(e) in
    its power basis, with sqrt(d) positive at the first two."""
    sd, se = _sqrt_coords(d, e), _sqrt_coords(e, d)
    return tuple(tuple(s1 * x + s2 * y for x, y in zip(sd, se))
                 for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)))


# ---------------------------------------------------------------------------
# trace form discriminants


def trace_form_disc(basis: Sequence) -> Fraction:
    """det(Tr(b_i b_j)) for a module basis of an order, given as NFElems
    (of a QuadField or of any NumberField)."""
    n = len(basis)
    gram = [[(basis[i] * basis[j]).trace() for j in range(n)] for i in range(n)]
    from .ratlinalg import mat_det

    det = mat_det([[Fraction(x) for x in row] for row in gram])
    if det == 0:
        raise ValueError("trace Gram is singular: not a basis of an order")
    return det

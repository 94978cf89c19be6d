"""Exact arithmetic in number fields on a Kummer basis, and Gaussian periods.

Every field is a tower of quadratic extensions on the products of its
generators sqrt(d), u, v, whose squares lie in Q(sqrt d) (Cohen, GTM 193,
ch. 2), so Q(sqrt d) c K = F(u) c L = K(v) embed by zero-padding
coordinates.  Cyclic quartic fields inside Q(zeta_p), p = 1 mod 4, are
built from Gaussian periods multiplied on their own normal basis through
a table of cyclotomic numbers built in O(p) steps; the one product
needed is (eta_0 - eta_2)^2, the radicand delta of the tower.

A field element is a vector of integer numerators over one positive
common denominator, kept in lowest terms (Cohen, GTM 138, ch. 4).  A
field caches one integer table: the monomial each product of two basis
elements is accumulated into, and the rows that reduce the monomials
beyond the basis.  Norm and inverse multiply by the conjugate that
negates the last generator, and repeat in the field below.  An
`Automorphism` is an integer matrix over one denominator built from the
images of the basis, each row kept as its nonzero entries only.  A
`Conjugation` gamma -> A gamma B of rational matrices by fixed matrices
over a field is likewise an integer table, applied by dot products: the
one kernel for git4's g^-1 gamma g and for the GL2 torus coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .intarith import factorize, is_prime


def _over_common_den(vecs) -> tuple[list[list[int]], int]:
    """Integer numerators of Fraction vectors over their least common
    denominator."""
    den = lcm(1, *(c.denominator for v in vecs for c in v))
    return [[c.numerator * (den // c.denominator) for c in v] for v in vecs], den


# ---------------------------------------------------------------------------
# number field elements


@dataclass(frozen=True)
class NumberField:
    """The number field Q(w_0, ..., w_(k-1)) of degree n = 2^k on its
    Kummer basis: w_0^2 = d is rational, each w_b^2 = p + q w_0 is read
    from squares[b] = (p, q), and basis element e_i is the product of the
    w_b at the set bits b of i.  The first half of the basis is that of
    the field without w_(k-1)."""

    squares: tuple

    @property
    def degree(self) -> int:
        return 1 << len(self.squares)

    def elem(self, coeffs) -> "NFElem":
        """The element with the given coordinates, zero-padded to the degree."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        c = [Fraction(x) for x in coeffs]
        n = self.degree
        if len(c) > n:
            raise ValueError(f"{len(c)} coordinates for a field of degree {n}")
        (num,), den = _over_common_den([c + [Fraction(0)] * (n - len(c))])
        return _canonical(self, num, den)

    def one(self) -> "NFElem":
        return self.elem(1)

    @cached_property
    def _subfield(self) -> "NumberField":
        return NumberField(self.squares[:-1])

    @cached_property
    def _table(self) -> tuple[list, list, int]:
        """(index, rows, den): e_i e_j is the monomial index[i][j].  Monomial
        k < n is e_k; monomial n + k is sum_{(i, r) in rows[k]} r e_i / den.
        e_i e_j = e_(i^j) s with s the product of the squares w_b^2 at the
        set bits of i&j, an element p + q w_0 of Q(w_0), so the monomials
        beyond the basis are the pairs (i^j, i&j)."""
        n, d = self.degree, self.squares[0][0]
        pairs = {}  # (i^j, i&j) -> monomial number
        index = [[i ^ j if not i & j else pairs.setdefault((i ^ j, i & j), n + len(pairs))
                  for j in range(n)] for i in range(n)]
        rows = []
        for t, bits in pairs:
            p, q = Fraction(1), Fraction(0)
            for b, (sp, sq) in enumerate(self.squares):
                if bits >> b & 1:
                    p, q = p * sp + d * q * sq, p * sq + q * sp
            row = [Fraction(0)] * n
            row[t], row[t ^ 1] = p, q * d if t & 1 else q  # e_t w_0 = d^(t&1) e_(t^1)
            rows.append(row)
        rows, den = _over_common_den(rows)
        return index, [[(i, r) for i, r in enumerate(row) if r] for row in rows], den

    def _mul_ints(self, a, b) -> list[int]:
        """Numerators of a*b over the table denominator, for integer
        coordinate vectors a and b: the products are accumulated per
        monomial, then the monomials beyond the basis are reduced."""
        index, rows, den = self._table
        n = len(a)
        prod = [0] * (n + len(rows))
        for i, x in enumerate(a):
            if x:
                for j, k in enumerate(index[i]):
                    prod[k] += x * b[j]
        low = prod[:n] if den == 1 else [c * den for c in prod[:n]]
        for c, row in zip(prod[n:], rows):
            if c:
                for i, r in row:
                    low[i] += c * r
        return low

    def _down(self, num, den: int) -> tuple[tuple, tuple[int, ...], int]:
        """(conj, y, yden): x' = conj/den is x = num/den with the last
        generator negated, and x x' = y/yden lies in the field below."""
        h = len(num) // 2
        conj = num[:h] + tuple(-x for x in num[h:])
        return conj, tuple(self._mul_ints(num, conj)[:h]), den * den * self._table[2]


def _canonical(field: NumberField, num, den: int) -> "NFElem":
    """The element num/den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return NFElem(field, tuple(num), den)


def _same_field(x: "NFElem", y: "NFElem") -> None:
    if x.field is not y.field and x.field != y.field:
        raise ValueError("elements of different fields")


class NFElem:
    """The element sum_i num[i] e_i / den of a NumberField; immutable, with
    gcd(den, *num) = 1 and den > 0, so equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def a(self) -> Fraction:
        """The coordinate of 1; in Q(sqrt d), self = a + b*sqrt(d)."""
        return Fraction(self.num[0], self.den)

    @property
    def b(self) -> Fraction:
        """The coordinate of sqrt(d)."""
        return Fraction(self.num[1], self.den)

    def __repr__(self):
        return f"NFElem({self.num}/{self.den} in {self.field})"

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            _same_field(self, other)
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
            _same_field(self, other)
            return _canonical(K, K._mul_ints(self.num, other.num),
                              self.den * other.den * K._table[2])
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        p = other.numerator
        return _canonical(K, [x * p for x in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def inverse(self):
        """x^-1 = x' (x x')^-1, with x x' inverted in the field below."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        K = self.field
        conj, y, yden = K._down(self.num, self.den)
        t = self.den * K._table[2]
        if len(y) == 1:  # x x' is rational: x^-1 = conj * den * T / y
            s = t if y[0] > 0 else -t
            return _canonical(K, [x * s for x in conj], abs(y[0]))
        y_inv = _canonical(K._subfield, y, yden).inverse()
        return _canonical(K, K._mul_ints(conj, y_inv.num + (0,) * len(y)), t * y_inv.den)

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
                self.field is other.field or self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return not any(self.num[1:]) and \
                self.num[0] * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def trace(self) -> Fraction:
        """n times the coordinate of 1: e_i e_j has no e_j term unless i = 0."""
        return Fraction(len(self.num) * self.num[0], self.den)

    def norm(self) -> Fraction:
        """N(x) = N(x x'), taken in the field below."""
        K = self.field
        _, y, yden = K._down(self.num, self.den)
        return Fraction(y[0], yden) if len(y) == 1 else _canonical(K._subfield, y, yden).norm()


class Automorphism:
    """The Q-linear map of a NumberField sending each basis element e_i to
    images[i], an automorphism when the images are those of the basis
    under one.  The images are the columns of an integer matrix over one
    denominator; each row is stored as its nonzero entries only, a tuple of
    column indices and a tuple of coefficients, and a coordinate of the
    image is the dot product of those coefficients with the numerators of
    x at those columns.  A call hashes nothing."""

    __slots__ = ("field", "_rows", "_den")

    def __init__(self, field: NumberField, images):
        cols, self._den = _over_common_den([x.coeffs for x in images])
        self._rows = tuple(
            (tuple(j for j, r in enumerate(row) if r), tuple(r for r in row if r))
            for row in zip(*cols))
        self.field = field

    def __call__(self, x: NFElem) -> NFElem:
        get = x.num.__getitem__
        return _canonical(self.field, [sum(map(mul, coeffs, map(get, cols)))
                                       for cols, coeffs in self._rows], x.den * self._den)


def _cleared(matrix) -> tuple[list[int], int]:
    """(v, e): the matrix's entries, row by row, as integers over one
    denominator e.  An entry that is not a rational number raises ValueError."""
    try:
        q = [Fraction(x) for row in matrix for x in row]
    except TypeError:
        raise ValueError("matrix entries must be rational numbers") from None
    (v,), e = _over_common_den([q])
    return v, e


class Conjugation:
    """The map gamma -> A gamma B on rational n x n matrices, for fixed n x n
    matrices A and B over a NumberField; a conjugation when A = B^-1.
    Entry (i, j) is sum_(k,l) gamma[k][l] A[i][k] B[l][j], linear in gamma,
    so the n^2 products A[i][k] B[l][j] of each entry are formed once and
    held as integer numerators over one denominator per entry.  gamma is
    cleared once to integers v over one denominator e (`_cleared`), and
    each coordinate of an entry is one integer dot product with v, over
    that entry's denominator times e, with no field multiplication.  A
    call takes every entry; `entry` takes one, so a caller that reads only
    some entries (git4's Psi values) conjugates only those."""

    __slots__ = ("field", "_table")

    def __init__(self, field: NumberField, left, right):
        self.field = field
        table = []
        for a_row in left:
            entries = []
            for j in range(len(right[0])):
                prods = [a * row[j] for a in a_row for row in right]
                den = lcm(*(x.den for x in prods))
                cols = [[c * (den // x.den) for c in x.num] for x in prods]
                entries.append((den, tuple(zip(*cols))))
            table.append(tuple(entries))
        # table[i][j] = (D, rows): rows[c][n k + l] / D is coordinate c of A[i][k] B[l][j]
        self._table = tuple(table)

    def __call__(self, gamma) -> list[list[NFElem]]:
        n = len(self._table)
        if len(gamma) != n or any(len(row) != n for row in gamma):
            raise ValueError(f"expected a {n}x{n} matrix")
        v, e = _cleared(gamma)
        return [[self.entry(v, e, i, j) for j in range(n)] for i in range(n)]

    def entry(self, v, e: int, i: int, j: int) -> NFElem:
        """Entry (i, j) of A gamma B for gamma cleared to v over e."""
        den, rows = self._table[i][j]
        return _canonical(self.field, [sum(map(mul, coord, v)) for coord in rows], den * e)


# ---------------------------------------------------------------------------
# Gaussian periods


def _primitive_root(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found")


def gaussian_period_quartic(p: int) -> dict:
    """Exact data for the quartic subfield K of Q(zeta_p), p prime, p = 1 mod 4.

    Returns delta = (eta_0 - eta_2)^2 in F = Q(sqrt(p)) as a pair
    (rational part, sqrt(p) coefficient).

    The work is done on the normal basis eta_0..eta_3 of K, where eta_j
    sums zeta^x over C_j = {g^(4k+j)} for the primitive root g, the Galois
    generator tau: eta_j -> eta_(j+1) shifts coordinates and
    1 = -(eta_0 + ... + eta_3).  With m = (p-1)/4 and the cyclotomic
    numbers (j, t) = #{z in C_j : 1 + z in C_t},
    eta_0 eta_j = sum_t ((j, t) - m [-1 in C_j]) eta_t and
    eta_a eta_b = tau^a(eta_0 eta_(b-a)) (Berndt-Evans-Williams, Gauss and
    Jacobi Sums, ch. 2), so this costs O(p).  The square must be fixed by
    tau^2, (a, b, a, b), and eta_0 + eta_2 = (-1 + sqrt p)/2 and
    eta_1 + eta_3 = (-1 - sqrt p)/2 (the Gauss sum) then give delta.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"p must be a prime = 1 mod 4, got p = {p}")
    g, m = _primitive_root(p), (p - 1) // 4
    cls = [0] * p  # x in C_cls[x] for 0 < x < p
    x = 1
    for k in range(p - 1):
        cls[x] = k % 4
        x = x * g % p
    table = [[-m * (cls[p - 1] == j)] * 4 for j in range(4)]  # eta_0 eta_j
    for z in range(1, p - 1):
        table[cls[z]][cls[z + 1]] += 1

    def mul(u, v):  # product in normal coordinates
        out = [0] * 4
        for a, ua in enumerate(u):
            for b, vb in enumerate(v):
                for t, c in enumerate(table[(b - a) % 4]):
                    out[(t + a) % 4] += ua * vb * c
        return out

    a, b, a2, b2 = mul([1, 0, -1, 0], [1, 0, -1, 0])
    if (a2, b2) != (a, b):
        raise ArithmeticError("(eta_0 - eta_2)^2 is not fixed by tau^2")
    return {"p": p, "delta": (Fraction(-(a + b), 2), Fraction(a - b, 2))}

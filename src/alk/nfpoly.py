"""Exact arithmetic in number fields on a Kummer basis, and Gaussian periods.

Every field is a tower of quadratic extensions on the products of its
generators sqrt(d), u, v, whose squares lie in Q(sqrt d) (Cohen, GTM 193,
ch. 2), so Q(sqrt d) c K = F(u) c L = K(v) embed by zero-padding
coordinates.  Cyclic quartic fields inside Q(zeta_p), p = 1 mod 4, are
built from Gaussian periods: (eta_0 - eta_2)^2, four times the radicand
of the tower, is ((-1)^((p-1)/4) p - a sqrt p)/2 in closed form for
p = a^2 + b^2 with a = 1 mod 4, and Cornacchia's algorithm finds a from a
square root of -1 mod p in O(log p) steps.

A field element is a vector of integer numerators over one positive
common denominator, kept in lowest terms (Cohen, GTM 138, ch. 4).  A
field caches one integer table: the monomial each product of two basis
elements is accumulated into, and the rows that reduce the monomials
beyond the basis.  Norm and inverse multiply by the conjugate that
negates the last generator, and repeat in the field below.  An
`Automorphism` is an integer matrix over one denominator built from the
images of the basis, each row kept as its nonzero entries only.

Products and automorphisms run straight-line code generated once per
field (on its first product) and once per automorphism from these
tables, with no loop over an index table: a product sums each monomial's
terms a_i b_j once, then multiplies each monomial beyond the basis into
its reduction row; an automorphism whose matrix is a signed permutation
over denominator 1 maps an element in lowest terms to one in lowest
terms, so its kernel takes no gcd.  Table constants are closure cells of
the generated code, never text in its source, so constants of any length
are allowed.

`_linear_forms` writes the integer linear forms of these kernels and of
git4's, which conjugate a cleared rational matrix by g and test its
commutation with sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt

from .intarith import is_prime, sqrt_mod
from .ratlinalg import integer_matrix, rational


# ---------------------------------------------------------------------------
# number field elements


class _Source:
    """Straight-line source for one generated kernel.  Every constant
    other than +-1 enters as a closure cell of a generated factory, named in
    the source and never written into it, so no constant meets the limit on
    the digits of an int rendered as text."""

    def __init__(self):
        self.consts: dict[int, str] = {}  # value -> cell name

    def times(self, c: int, expr: str) -> str:
        """The term c*expr for a nonzero integer c; a leading "-" is its sign."""
        if c in (1, -1):
            return expr if c == 1 else "-" + expr
        name = self.consts.setdefault(abs(c), f"c{len(self.consts)}")
        return f"{name} * {expr}" if c > 0 else f"-{name} * {expr}"

    def function(self, name: str, args: str, lines, **cells):
        """The function name(args) with the given body, its constants and
        the objects in cells bound as closure cells."""
        cells.update((cell, c) for c, cell in self.consts.items())
        src = (f"def factory({', '.join(cells)}):\n    def {name}({args}):\n"
               + "".join(f"        {line}\n" for line in lines) + f"    return {name}\n")
        return _factory(src)(*cells.values())


@lru_cache(maxsize=256)
def _factory(src: str):
    """The factory defined by src, compiled once per distinct source: fields
    and automorphisms of one shape share it, with their own cells."""
    scope = {}
    exec(compile(src, "<nfpoly kernel>", "exec"), scope)
    return scope["factory"]


def _unpack(name: str, n: int, src: str) -> str:
    """The line unpacking the length-n sequence src into name0, ..., name(n-1)."""
    return f"{', '.join(f'{name}{i}' for i in range(n))}, = {src}"


def _sum(terms) -> str:
    """The sum of terms (strings, a leading "-" a sign) as one expression."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])


def _linear_forms(gen: _Source, rows, x: str) -> list[str]:
    """One expression per row for the integer linear form sum_j c_j x<j> over
    the row's (j, c_j) pairs: zero coefficients are skipped, +-1 is a sign
    and every other constant a cell of gen."""
    return [_sum([gen.times(c, f"{x}{j}") for j, c in row if c]) for row in rows]


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
        """The element with the given coordinates, one rational or a list or
        tuple of them read by `integer_matrix`, zero-padded to the degree."""
        if not isinstance(coeffs, (list, tuple)):
            coeffs = [coeffs]
        n = self.degree
        if len(coeffs) > n:
            raise ValueError(f"{len(coeffs)} coordinates for a field of degree {n}")
        (num,), den = integer_matrix([list(coeffs) + [0] * (n - len(coeffs))])
        return NFElem(self, tuple(num), den)

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
        rows, den = integer_matrix(rows)
        return index, [[(i, r) for i, r in enumerate(row) if r] for row in rows], den

    @cached_property
    def _mul_ints(self):
        """The numerators of a*b over the table denominator, for integer
        coordinate vectors a and b: straight-line code generated from
        `_table` on first use.  Each monomial sums its products a_i b_j once;
        each monomial beyond the basis is then multiplied into its reduction
        row, and the basis monomials are scaled by the table denominator."""
        index, rows, den = self._table
        n = self.degree
        gen = _Source()
        monomials = [[] for _ in range(n + len(rows))]
        for i in range(n):
            for j, k in enumerate(index[i]):
                monomials[k].append(f"a{i} * b{j}")
        low = [terms if den == 1 else [gen.times(den, f"({_sum(terms)})")]
               for terms in monomials[:n]]
        lines = [_unpack("a", n, "a"), _unpack("b", n, "b")]
        for k, row in enumerate(rows):
            lines.append(f"t{k} = {_sum(monomials[n + k])}")
            for i, r in row:
                low[i].append(gen.times(r, f"t{k}"))
        lines.append(f"return [{', '.join(_sum(terms) for terms in low)}]")
        return gen.function("mul_ints", "a, b", lines)

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
        q = other if isinstance(other, (int, Fraction)) else rational(other)
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
            other = rational(other)
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
        return self * Fraction(1, other if isinstance(other, (int, Fraction)) else rational(other))

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
    column indices and a tuple of coefficients.  A call runs straight-line
    code generated from those rows when the map is built: each coordinate
    of the image is the sum of the coefficients times the numerators of x
    at those columns.  When the denominator is 1 and the matrix is a signed
    permutation (every automorphism of a dihedral closure, and of a
    biquadratic tower with a rational radicand), the image of an element
    in lowest terms is in lowest terms, so no gcd is taken."""

    __slots__ = ("field", "_rows", "_den", "_kernel")

    def __init__(self, field: NumberField, images):
        cols, self._den = integer_matrix([x.coeffs for x in images])
        self._rows = tuple(
            (tuple(j for j, r in enumerate(row) if r), tuple(r for r in row if r))
            for row in zip(*cols))
        self.field = field
        self._kernel = self._generate()

    def __call__(self, x: NFElem) -> NFElem:
        return self._kernel(x)

    def _generate(self):
        gen, n = _Source(), len(self._rows)
        image = ", ".join(_linear_forms(gen, (zip(*row) for row in self._rows), "x"))
        lines = [_unpack("x", n, "x.num")]
        signed_permutation = sorted(cols for cols, _ in self._rows) == [(j,) for j in range(n)] \
            and all(coeffs[0] in (1, -1) for _, coeffs in self._rows)
        if self._den == 1 and signed_permutation:
            lines.append(f"return NFElem(field, ({image},), x.den)")
        else:
            den = "x.den" if self._den == 1 else "x.den * den"
            lines.append(f"return canonical(field, [{image}], {den})")
        return gen.function("automorphism", "x", lines, field=self.field, NFElem=NFElem,
                            canonical=_canonical, den=self._den)


# ---------------------------------------------------------------------------
# Gaussian periods


def gaussian_period_delta(p: int) -> tuple[int, int]:
    """The odd integers (A, B) with (eta_0 - eta_2)^2 = (A + B sqrt p)/2 for
    the quartic Gaussian periods eta_j of Q(zeta_p), p prime, p = 1 mod 4.

    In closed form A = (-1)^((p-1)/4) p and B = -a, where p = a^2 + b^2
    with a = 1 mod 4 (Berndt-Evans-Williams, Gauss and Jacobi Sums, on the
    quartic Jacobi sum).  Cornacchia's algorithm finds a: for
    x^2 = -1 mod p, Euclid on (p, x) reaches a remainder r < sqrt(p), and
    {r, sqrt(p - r^2)} = {|a|, |b|} (Cohen, GTM 138, Algorithm 1.5.2).
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"p must be a prime = 1 mod 4, got p = {p}")
    x, r, s = p, sqrt_mod(-1, p), isqrt(p)
    while r > s:
        x, r = r, x % r
    a = r if r % 2 else isqrt(p - r * r)
    return (p if p % 8 == 1 else -p), (-a if a % 4 == 1 else a)

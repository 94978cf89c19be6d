"""Bi-torus invariant theory on GL4 and the entropy bookkeeping.

A quartic tower K/F/Q embeds K^x into GL4(Q) by the regular
representation on the power basis of theta.  Conjugating by the matrix
g with g[i][j] = sigma_j(theta^i) diagonalizes the whole field, and the
signed monomials

    Psi0_sigma(g) = det(g)^{-1} sign(sigma) prod_i g[sigma(i)][i]

evaluated on the conjugated matrix generate the bi-T-invariant regular
functions.  Every tower writes theta = alpha + sqrt(delta) with alpha in
F, so one root formula gives its four conjugates: alpha +- sqrt(delta)
and conj(alpha) +- sqrt(conj delta).  g is exact in the Galois closure L
of K, held in Kummer coordinates over F = Q(sqrt d) (Cohen, GTM 193,
ch. 2 and 5): L = F(u) = K on the basis {1, sqrt d} x {1, u} when K/Q is
abelian, and L = K(v) of degree 8 on {1, sqrt d} x {1, u, v, uv} when
K is dihedral, with u and v integer multiples of sqrt(delta) and
sqrt(conj delta).  An automorphism of L is given by the images of
sqrt(d), u and v, so on the dihedral closure it permutes the basis up to
sign.  The Galois relations are checked on generators of Gal(L/Q), which
implies them for every automorphism.  g g^T is the rational trace form
T[i][k] = Tr(theta^(i+k)) of K, so g^{-1} = g^T T^{-1} needs one rational
4x4 inverse and no field inverse in L.

The conjugated matrix m = g^{-1} gamma g is linear in gamma.  Each
embedding caches, on first use, one `Conjugation` for (g^{-1}, g), whose
generated code gives each coordinate of an entry as one integer linear
form of the cleared gamma, and one generated test of the 16 such forms of
sd gamma - gamma sd, for sqrt(d)'s matrix sd, for the block test.

Every entry point makes one integer pass over gamma: it checks the 4x4
shape, clears gamma once to integers v over one denominator e, takes
det(v) = e^4 det(gamma) as one closed-form Laplace expansion over the 2x2
minors of rows 0-1 and rows 2-3, and conjugates only the entries of
g^{-1} v g = e m that the requested permutations read, each left
unreduced over its table denominator.  The four entries of a Psi monomial
carry e^4, as det(v) does, so Psi is read from v and det(v) and e is
never used.  A block test on C4 or V4 forms Psi of both special
permutations from 8 of the 16 entries and 6 field products; on D4 the
two are 4-cycles of one orbit, so it forms Psi of the first from 4
entries and 3 products and takes the second as its image under an
automorphism.

A Psi profile shares its partial products: P[a][b] = m[a][0] m[b][1]
and Q[c][d] = m[c][2] m[d][3] are formed once per ordered pair and kept
as integer numerators, so
Psi_sigma = sign(sigma)/det(v) P[sigma0][sigma1] Q[sigma2][sigma3]
takes one more field product; the sign of det(v) joins sign(sigma) as a
sign flip of its integer numerators, |det(v)| joins their denominator,
and each value is reduced to lowest terms once: 48 field products and
no reduction of an entry for all 24 permutations.  The Galois
action tau.Psi_sigma = Psi_{rho sigma rho^{-1}} (after Khayutin, Duke
Math. J. 168(12), 2019) lets `psi_invariants` form Psi directly only on
one representative per orbit of S4 under conjugation by the Galois image
(10 for C4, 12 for V4, 8 for D4) and take every other value as the image
of its representative under an automorphism: 22, 28 and 19 field
products per profile.

`pattern_and_relation_check`, the check of that relation and of the entry
relation tau(m[i][j]) = m[rho i][rho j], reads one proof per embedding
(`EmbeddingData.relation_certificate`), built on first use: m is Q-linear
in gamma and tau is Q-linear, so the entry relation on the 16 matrix units
E_kl gives it for every rational gamma, and with tau multiplicative on the
closure's basis and sign(rho sigma rho^{-1}) = sign(sigma) it gives the
profile relation.  Per gamma, the check only reads gamma.

Permutations of {0,1,2,3} are stored as image tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional

from .intarith import is_prime, log_abs, valuation
from .nfpoly import (Automorphism, NFElem, NumberField, _canonical, _linear_forms, _Source,
                     _unpack)
from .numfield import FieldTower, conj, norm_square_class
from .ratlinalg import in_gl_zp, integer_matrix, mat_inv, mat_mul, rational, real, transpose

ALL_PERMS = tuple(itertools.permutations(range(4)))
IDENTITY = (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# permutation helpers


def perm_compose(s, t):
    """s after t: (s o t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(t)))


def perm_inverse(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def perm_sign(s):
    sign = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                sign = -sign
    return sign


def _closure(gens):
    group = {IDENTITY}
    frontier = set(gens)
    while frontier:
        group |= frontier
        frontier = {perm_compose(a, b) for a in group for b in group} - group
    return frozenset(group)


# _CONJUGATION[rho][i] is the index in ALL_PERMS of rho sigma rho^-1, sigma = ALL_PERMS[i]
_CONJUGATION = {r: tuple(ALL_PERMS.index(perm_compose(perm_compose(r, s), perm_inverse(r)))
                         for s in ALL_PERMS) for r in ALL_PERMS}


# ---------------------------------------------------------------------------
# Galois structures


@dataclass(frozen=True)
class GaloisStructure:
    name: str
    image: frozenset
    special: tuple  # permutations whose invariant vanishing detects the block


# cycles below in 0-based image-tuple form:
#   (1324) -> 0->2, 2->1, 1->3, 3->0
_C4 = (2, 3, 1, 0)
_SWAP34 = (0, 1, 3, 2)
_KLEIN = frozenset({IDENTITY, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)})

_STRUCTURES = {
    "biquadratic": GaloisStructure("biquadratic", _KLEIN, ((3, 2, 1, 0), (2, 3, 0, 1))),
    "cyclic": GaloisStructure("cyclic", _closure([_C4]), (_C4, perm_inverse(_C4))),
    "dihedral": GaloisStructure("dihedral", _closure([_C4, _SWAP34]),
                                (_C4, perm_inverse(_C4))),
}


def galois_structures(galois_type: str) -> GaloisStructure:
    if galois_type not in _STRUCTURES:
        raise ValueError(f"unsupported Galois type {galois_type!r}")
    return _STRUCTURES[galois_type]


# ---------------------------------------------------------------------------
# regular embedding


class Conjugation:
    """The map gamma -> A gamma B on rational n x n matrices, for fixed n x n
    matrices A and B over a NumberField; a conjugation when A = B^-1.
    Entry (i, j) is sum_(k,l) gamma[k][l] A[i][k] B[l][j], linear in gamma,
    so the n^2 products A[i][k] B[l][j] of each entry are formed once and
    held as integer numerators over one denominator per entry, from which
    the entry's straight-line code is generated when the map is built.
    `entry` takes gamma cleared to integers v, row by row, and gives the
    entry of A v B unreduced, each coordinate one integer linear form of v
    over the entry's table denominator, with no field multiplication and
    no gcd, so a caller that reads only some entries (the Psi values)
    conjugates only those and reduces only what it forms from them."""

    __slots__ = ("_table",)

    def __init__(self, left, right):
        n = len(right)
        table = []
        for a_row in left:
            entries = []
            for j in range(len(right[0])):
                prods = [a * row[j] for a in a_row for row in right]
                den = math.lcm(*(x.den for x in prods))
                coords = zip(*([c * (den // x.den) for c in x.num] for x in prods))
                gen = _Source()
                lines = [_unpack("v", n * n, "v"),
                         f"return [{', '.join(_linear_forms(gen, map(enumerate, coords), 'v'))}]"]
                entries.append((den, gen.function("entry", "v", lines)))
            table.append(tuple(entries))
        # table[i][j] = (D, kernel): kernel(v)[c] / D is coordinate c of entry (i, j)
        self._table = tuple(table)

    def entry(self, v, i: int, j: int) -> tuple[list[int], int]:
        """(numerators, den): entry (i, j) of A v B for the integer matrix v,
        row by row, is sum_c numerators[c] e_c / den, not reduced."""
        den, kernel = self._table[i][j]
        return kernel(v), den


@dataclass(frozen=True)
class EmbeddingData:
    tower: FieldTower
    closure: NumberField  # the Galois closure L of K, K itself or K(v); g lives in L
    g: tuple  # 4x4 rows of NFElem in L
    g_inv: tuple
    automorphisms: tuple  # Gal(L/Q) as nfpoly.Automorphism maps of L
    galois_image: tuple  # per automorphism tau, rho with tau(g[i][j]) = g[i][rho(j)]

    def regular_matrix(self, coeffs) -> list[list[Fraction]]:
        """Regular representation of the element x with the given power-basis
        coordinates (acting on row vectors): row i is [x theta^i] P^-1."""
        powers = self.tower.theta_powers
        if len(coeffs) > 4:
            raise ValueError(f"{len(coeffs)} coordinates for a quartic field")
        x = sum(map(mul, coeffs, powers))
        return mat_mul([(x * t).coeffs for t in powers], self.tower.theta_basis_inverse)

    @cached_property
    def sqrt_d_matrix(self) -> tuple:
        """sqrt(d)'s regular representation times its common denominator, as
        tuple rows of ints, built once per embedding (commuting ignores scalars)."""
        m, _ = integer_matrix(self.regular_matrix(self.tower.sqrt_d_coords))
        return tuple(map(tuple, m))

    @cached_property
    def commutation_test(self):
        """v -> whether the 4x4 gamma cleared to the integers v commutes with
        sqrt(d): straight-line code, generated from `sqrt_d_matrix` on first
        use, that is True iff the 16 integer linear forms of sd v - v sd,
        sum_k sd[i][k] v[4k + j] - v[4i + k] sd[k][j], are all 0."""
        sd = self.sqrt_d_matrix
        forms = [[sd[i][k] * (l == j) - sd[l][j] * (k == i) for k in range(4) for l in range(4)]
                 for i in range(4) for j in range(4)]
        gen = _Source()
        nonzero = _linear_forms(gen, (enumerate(f) for f in forms if any(f)), "v")
        lines = [_unpack("v", 16, "v"), f"return not ({' or '.join(nonzero)})"]
        return gen.function("commutes", "v", lines)

    @cached_property
    def generators(self) -> tuple:
        """A smallest set of (tau, rho) pairs whose rho generate the Galois
        image: one for C4, two for V4 and D4.  As tau -> rho is injective
        (g's columns are distinct), the taus generate Gal(L/Q)."""
        pairs = [p for p in zip(self.automorphisms, self.galois_image) if p[1] != IDENTITY]
        size = len(set(self.galois_image))
        return next(gens for k in range(1, len(pairs) + 1)
                    for gens in itertools.combinations(pairs, k)
                    if len(_closure([rho for _, rho in gens])) == size)

    @cached_property
    def conjugation_table(self) -> Conjugation:
        """gamma -> g^{-1} gamma g as one `Conjugation`, whose integer
        table of the closure products g^{-1}[i][k] g[l][j] is built on
        first use."""
        return Conjugation(self.g_inv, self.g)

    @cached_property
    def relation_certificate(self) -> tuple:
        """(entry_relation, profile_relation) for every rational gamma,
        proved once per embedding on the generators (tau, rho), on first use:
        (a) tau(m[i][j]) = m[rho i][rho j] for m = g^{-1} E_kl g on each of
            the 16 matrix units E_kl; as m = g^{-1} gamma g is Q-linear in
            gamma and tau is Q-linear, this is the entry relation for every
            rational gamma;
        (b) tau(e_a e_b) = tau(e_a) tau(e_b) on the closure's basis (b <= a,
            as L is commutative), so tau is a ring map fixing Q; with (a)
            and sign(rho s rho^{-1}) = sign(s), Psi_s = sign(s)/det
            prod_i m[s(i)][i] gives tau.Psi_s = Psi_{rho s rho^{-1}}, the
            profile relation.
        A relation that holds for tau and tau' holds for tau tau', so on
        generators it holds on all of Gal(L/Q)."""
        entry, L = self.conjugation_table.entry, self.closure
        units = [[_canonical(L, *entry([int(n == k) for n in range(16)], i, j)) for i in range(4)
                  for j in range(4)] for k in range(16)]
        entry_ok = all(tau(m[4 * i + j]) == m[4 * rho[i] + rho[j]] for tau, rho in self.generators
                       for m in units for i in range(4) for j in range(4))
        basis = [L.elem([0] * a + [1]) for a in range(L.degree)]
        products = [(a, b, x * y) for a, x in enumerate(basis) for b, y in enumerate(basis[:a + 1])]
        ring_map = True
        for tau, _ in self.generators:
            images = [tau(x) for x in basis]
            ring_map &= all(tau(xy) == images[a] * images[b] for a, b, xy in products)
        return entry_ok, entry_ok and ring_map

    @cached_property
    def psi_plan(self) -> tuple:
        """(reps, derived) of `_orbit_plan` for this embedding's Galois
        image, with each rho of derived replaced by its automorphism tau:
        (s, r, tau) with Psi_s = tau(Psi_{reps[r]}).  Built on first use,
        with no field arithmetic."""
        reps, derived = _orbit_plan(frozenset(self.galois_image))
        tau_of = dict(zip(self.galois_image, self.automorphisms))
        return reps, tuple((s, r, tau_of[rho]) for s, r, rho in derived)


def _conj_delta_ratio(tower: FieldTower) -> Optional[NFElem]:
    """v/u in F for u^2 = delta and v^2 = conj(delta) when K/Q is Galois:
    1 when delta is rational, else r/delta or r sqrt(d)/delta with
    r^2 = Nr(delta) or Nr(delta)/d (numfield.norm_square_class), as
    v = r/u or r sqrt(d)/u.  None for a dihedral tower."""
    F, delta = tower.base, tower.delta
    if delta.b == 0:
        return F.elem(1)
    kind, r = norm_square_class(delta)
    if kind == "biquadratic":
        return r / delta
    if kind == "cyclic":
        return F.elem(0, r) / delta
    return None


def _automorphism(L: NumberField, gen_images) -> Automorphism:
    """The automorphism of the Kummer field L sending its generators
    (sqrt(d), u[, v]) to gen_images: basis element e_i, the product of the
    generators at the set bits of i, goes to the product of their images."""
    images = [L.one()]
    for y in gen_images:
        images += [x * y for x in images]
    return Automorphism(L, images)


def regular_embedding(tower: FieldTower) -> EmbeddingData:
    """g[i][j] = sigma_j(theta)^i in the Galois closure L of K, with the one
    root formula theta = alpha + sqrt(delta) -> alpha +- sqrt(delta),
    conj(alpha) +- sqrt(conj delta), so sqrt(d) is positive at the first
    two roots.  L is the tower's K = F(u), u = c sqrt(delta), when K/Q is
    abelian, with v = (v/u) u, and K(v), v = c sqrt(conj delta), when K is
    dihedral; every structure constant is an integer.  The
    roots alpha +- u/c and conj(alpha) +- v/c are read off, and every
    automorphism sends sqrt(d) to +-sqrt(d) and u, v to +-u, +-v, or to
    +-v, +-u when it negates sqrt(d).  Inconsistent tower data raise
    ArithmeticError."""
    if tower.degree != 4:
        raise ValueError("quartic tower required")
    ratio, c, K = _conj_delta_ratio(tower), tower.u_scale, tower.nf
    p, q = K.squares[1]
    L = K if ratio is not None else NumberField(K.squares + ((p, -q),))
    sqrt_d, u = L.elem([0, 1]), L.elem([0, 0, 1])
    if ratio is None:
        v, signs = L.elem([0, 0, 0, 0, 1]), (1, -1)
    else:
        v, signs = L.elem(ratio.coeffs) * u, (1,)
    alpha, alpha_bar = L.elem(tower.alpha.coeffs), L.elem(conj(tower.alpha).coeffs)
    roots = [alpha + u / c, alpha - u / c, alpha_bar + v / c, alpha_bar - v / c]
    g = [[r ** i for r in roots] for i in range(4)]
    _check_roots(tower, g, sqrt_d)
    taus = tuple(_automorphism(L, (e * sqrt_d, s * x, t * y)[:len(L.squares)])
                 for e, x, y in ((1, u, v), (-1, v, u)) for s in (1, -1) for t in signs)
    image = tuple(_column_permutation(g, tau) for tau in taus)
    # slots 0 and 1 are the embeddings with sqrt(d) positive
    if any(tau(sqrt_d) != (sqrt_d if rho[0] < 2 else -sqrt_d)
           for tau, rho in zip(taus, image)):
        raise ArithmeticError("embedding order not compatible with F")
    # g^-1 = g^T T^-1 with T = g g^T = (Tr theta^(i+k)), rational, from K
    powers = tower.theta_powers
    traces = [x.trace() for x in powers + tuple(powers[3] * x for x in powers[1:])]
    g_inv = mat_mul(transpose(g), mat_inv([traces[i:i + 4] for i in range(4)]))
    return EmbeddingData(tower, L, tuple(map(tuple, g)), tuple(map(tuple, g_inv)),
                         taus, image)


def _check_roots(tower: FieldTower, g, sqrt_d) -> None:
    """Raise ArithmeticError unless sqrt_d_coords at the first root give
    sqrt(d) and every root satisfies theta's minimal polynomial."""
    if sum(c * row[0] for c, row in zip(tower.sqrt_d_coords, g)) != sqrt_d:
        raise ArithmeticError("sqrt_d_coords do not give sqrt(d) at the first root")
    for r in g[1]:
        acc = 0
        for c in reversed(tower.theta_min_poly):
            acc = acc * r + c
        if acc != 0:
            raise ArithmeticError("the root formula gives a non-root of theta's polynomial")


def _column_permutation(g, tau) -> tuple:
    """rho with tau(g[i][j]) = g[i][rho(j)] for the automorphism tau."""
    rho = []
    for j in range(4):
        col_img = [tau(g[i][j]) for i in range(4)]
        match = next((k for k in range(4) if all(col_img[i] == g[i][k] for i in range(4))),
                     None)
        if match is None:
            raise ArithmeticError("automorphism does not permute the columns")
        rho.append(match)
    return tuple(rho)


# ---------------------------------------------------------------------------
# invariant profiles


@dataclass(frozen=True)
class InvariantProfile:
    values: tuple  # (perm, value) pairs, value Fraction or NFElem of the closure
    galois_type: Optional[str] = None


# sign(s) for every permutation s, built once
_SIGN = {s: perm_sign(s) for s in ALL_PERMS}


def _clear(gamma) -> tuple[list[int], int]:
    """(v, det_v): the 4x4 rational gamma's entries, row by row, as integers
    v over one denominator e, and det(v) = e^4 det(gamma) != 0, one Laplace
    expansion over the 2x2 minors of rows 0-1 and of rows 2-3."""
    if len(gamma) != 4 or any(len(row) != 4 for row in gamma):
        raise ValueError("expected a 4x4 matrix")
    m, _ = integer_matrix(gamma)
    v = m[0] + m[1] + m[2] + m[3]
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = v
    det_v = ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
             + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
             - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    if det_v == 0:
        raise ValueError("gamma must be invertible")
    return v, det_v


def _entries(emb: EmbeddingData, v, perms) -> list[list]:
    """g^{-1} v g for the integer matrix v, at the entries m[s(j)][j] that
    perms read, each (numerators, den) unreduced (`Conjugation.entry`); the
    other entries are None."""
    entry = emb.conjugation_table.entry
    m = [[None] * 4 for _ in range(4)]
    for s in perms:
        for j, i in enumerate(s):
            if m[i][j] is None:
                m[i][j] = entry(v, i, j)
    return m


def _profile(emb: EmbeddingData, v, det_v: int, perms) -> list:
    """[Psi_s(gamma) for s in perms] for gamma cleared to the integers v
    with det(v) = det_v, each formed directly; a value in Q is returned as
    a Fraction.

    v = e gamma for gamma's denominator e, so g^{-1} v g = e m for
    m = g^{-1} gamma g and det v = e^4 det(gamma): e cancels from
    Psi_s = sign(s)/det(v) prod_i (g^{-1} v g)[s(i)][i].  Only the entries
    that perms read are conjugated (`_entries`), each kept as integer
    numerators over its table denominator D_ij.  The shared products
    P[a][b] = m[a][0] m[b][1] and Q[c][d] = m[c][2] m[d][3] are formed once,
    only for the pairs that perms use, as `_mul_ints` numerators, so
    Psi_s = sign(s) N_s / (D_s0,0 D_s1,1 D_s2,2 D_s3,3 T^3 |det v|) for
    N_s = P[s0][s1] Q[s2][s3] and the closure's table denominator T; the
    sign of det v joins sign(s), and each value is reduced to lowest terms
    once.  All 24 permutations take 12 + 12 + 24 = 48 field products."""
    m = _entries(emb, v, perms)
    L = emb.closure
    mul_ints = L._mul_ints
    table_den = L._table[2]
    # the last product's table denominator and |det v| in one factor
    last_den = abs(det_v) * table_den
    det_sign = 1 if det_v > 0 else -1
    P, Q = {}, {}
    vals = []
    for s in perms:
        a, b, c, d = s
        p = P.get((a, b))
        if p is None:
            (x, dx), (y, dy) = m[a][0], m[b][1]
            p = P[a, b] = (mul_ints(x, y), dx * dy * table_den)
        q = Q.get((c, d))
        if q is None:
            (x, dx), (y, dy) = m[c][2], m[d][3]
            q = Q[c, d] = (mul_ints(x, y), dx * dy * table_den)
        num = mul_ints(p[0], q[0])
        if _SIGN[s] != det_sign:
            num = [-x for x in num]
        val = _canonical(L, num, p[1] * q[1] * last_den)
        vals.append(Fraction(val.num[0], val.den) if not any(val.num[1:]) else val)
    return vals


@lru_cache(maxsize=None)
def _orbit_plan(image: frozenset) -> tuple:
    """(reps, derived) for the action s -> rho s rho^{-1} of the Galois
    image on S4.  reps holds one permutation per orbit: of all such
    choices, the first in the order of ALL_PERMS that uses the fewest
    distinct pairs (s0, s1) and (s2, s3), so the fewest products P and Q.
    derived holds (s, r, rho) for every other permutation
    s = rho reps[r] rho^{-1}.  The orbits number 10, 12 and 8 for C4, V4
    and D4, and the choices at most 1024."""
    group = sorted(image)
    orbits, seen = [], set()
    for i in range(len(ALL_PERMS)):
        if i not in seen:
            orbit = sorted({_CONJUGATION[rho][i] for rho in group})
            seen.update(orbit)
            orbits.append(orbit)
    reps = min(itertools.product(*orbits),
               key=lambda c: len({ALL_PERMS[k][:2] for k in c})
               + len({ALL_PERMS[k][2:] for k in c}))
    targets = {}  # index of s -> (s, r, rho)
    for r, k in enumerate(reps):
        for rho in group:
            t = _CONJUGATION[rho][k]
            if t not in reps and t not in targets:
                targets[t] = (ALL_PERMS[t], r, rho)
    return tuple(ALL_PERMS[k] for k in reps), tuple(targets[t] for t in sorted(targets))


def psi_invariants(emb: EmbeddingData, gamma,
                   galois_type: Optional[str] = None) -> InvariantProfile:
    """The 24 values Psi_s(gamma), formed directly only on one
    representative per Galois orbit (`EmbeddingData.psi_plan`); every
    other value is tau(Psi_rep) for the automorphism tau whose rho
    conjugates the representative to s, as tau.Psi_rep =
    Psi_{rho rep rho^{-1}}, and a rational value is copied as it is."""
    reps, derived = emb.psi_plan
    vals = _profile(emb, *_clear(gamma), reps)
    values = dict(zip(reps, vals))
    for s, r, tau in derived:
        x = vals[r]
        values[s] = tau(x) if isinstance(x, NFElem) else x
    return InvariantProfile(tuple((s, values[s]) for s in ALL_PERMS), galois_type)


def psi_sum_check(emb: EmbeddingData, gamma) -> object:
    """Sum of Psi0 over S4 on the conjugated matrix; equals 1 (Leibniz)."""
    profile = psi_invariants(emb, gamma)
    total = None
    for _, v in profile.values:
        total = v if total is None else total + v
    return total


# ---------------------------------------------------------------------------
# Galois relations


def pattern_and_relation_check(emb: EmbeddingData, gamma, galois_type: str) -> dict:
    """Entry-level Galois relation tau(m[i][j]) = m[rho i][rho j] and the
    profile-level relation tau.Psi_sigma = Psi_{rho sigma rho^{-1}}, read
    from the embedding's `relation_certificate`, which proves both for every
    rational gamma; gamma is read as every entry point reads it (shape,
    rationality, invertibility), and the Galois image is compared with the
    structure's."""
    gs = galois_structures(galois_type)
    _clear(gamma)
    entry_ok, profile_ok = emb.relation_certificate
    image_ok = frozenset(emb.galois_image) == gs.image
    return {"entry_relation": entry_ok, "profile_relation": profile_ok,
            "image_matches": image_ok, "pass": entry_ok and profile_ok and image_ok}


# ---------------------------------------------------------------------------
# block membership


@lru_cache(maxsize=None)
def _conjugator(image: tuple, s: tuple, t: tuple) -> Optional[int]:
    """The index in the Galois image of its first rho with
    rho s rho^{-1} = t, or None when s and t lie in different orbits."""
    return next((k for k, rho in enumerate(image)
                 if perm_compose(perm_compose(rho, s), perm_inverse(rho)) == t), None)


def block_membership_test(emb: EmbeddingData, gamma, galois_type: str) -> dict:
    """gamma in the embedded Res_{F/Q} GL2 iff Psi_sigma(gamma) = 0 for the
    special permutations iff gamma commutes with multiplication by sqrt(d);
    the commutation route, exact on integer multiples of both, is the truth:
    the embedding's `commutation_test`, independent of the conjugation table.
    When an automorphism tau of the closure has rho conjugating the first
    special permutation s to the second t (D4, where both are 4-cycles of
    one orbit), only Psi_s is formed, from 4 entries and 3 products, and
    Psi_t = tau(Psi_s); on C4 and V4 both values are formed directly."""
    gs = galois_structures(galois_type)
    v, det_v = _clear(gamma)
    commutes = emb.commutation_test(v)
    s, t = gs.special
    k = _conjugator(emb.galois_image, s, t)
    if k is None:
        sp_values = dict(zip(gs.special, _profile(emb, v, det_v, gs.special)))
    else:
        x, = _profile(emb, v, det_v, (s,))
        sp_values = {s: x, t: emb.automorphisms[k](x) if isinstance(x, NFElem) else x}
    vanish = all(v == 0 for v in sp_values.values())
    return {"in_R": commutes, "psi_sp_values": sp_values,
            "vanishing": vanish, "routes_agree": commutes == vanish}


def content_vanishing_detector(gs: GaloisStructure,
                               disc: float, tau: float, eta_sigma: dict,
                               C: float = 1.0,
                               in_R: Optional[bool] = None) -> dict:
    """Content bounds C e^{-2 tau eta_sigma} disc per special permutation
    (abelian), or the squared product bound (dihedral).  A bound below 1
    forces the invariant to vanish by the product formula."""
    bounds = {}
    if gs.name == "dihedral":
        total_eta = sum(eta_sigma[s] for s in gs.special)
        b = C * math.exp(-2.0 * tau * total_eta) * disc ** 2
        for s in gs.special:
            bounds[s] = b
        forced = b < 1.0
    else:
        for s in gs.special:
            bounds[s] = C * math.exp(-2.0 * tau * eta_sigma[s]) * disc
        forced = all(b < 1.0 for b in bounds.values())
    if forced and in_R is False:
        raise ArithmeticError(
            "content bound forces vanishing but gamma is not in the block")
    return {"bounds": bounds, "forced_zero": forced}


# ---------------------------------------------------------------------------
# entropy quantities


@dataclass(frozen=True)
class EntropyData:
    logs: tuple  # log|t_i|_u
    eta_sigma: dict  # full S4 map
    eta: dict  # per Galois type, min over the special permutations
    h_haar: float
    h_int: float
    in_A_prime: bool


def root_log_values(t, p: Optional[int] = None) -> tuple:
    """log |t_i| at the place p, each t_i read by `ratlinalg.real` at p None."""
    if p is None:
        return tuple(log_abs(real(x)) for x in t)
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return tuple(-valuation(x, p) * math.log(p) for x in t)


def entropy_quantities(t, p: Optional[int] = None) -> EntropyData:
    """Root-sum entropy data of a = diag(t1..t4) at the given place."""
    t = [real(x) if p is None else rational(x) for x in t]
    if len(t) != 4 or any(x == 0 for x in t):
        raise ValueError("need four nonzero diagonal entries")
    logs = root_log_values(t, p)
    eta_sigma = {}
    for s in ALL_PERMS:
        eta_sigma[s] = sum(abs(logs[s[i]] - logs[i]) for i in range(4) if s[i] != i)
    eta = {name: min(eta_sigma[s] for s in gs.special)
           for name, gs in _STRUCTURES.items()}
    h_haar, h_int = _haar_and_int(logs)
    if p is None:
        in_a_prime = h_int < h_haar / 3.0
    else:
        # the logs are -v log p, so the strict test is exact on the valuations v
        v_haar, v_int = _haar_and_int([valuation(x, p) for x in t])
        in_a_prime = 3 * v_int < v_haar
    return EntropyData(logs, eta_sigma, eta, h_haar, h_int, in_a_prime)


def _haar_and_int(x) -> tuple:
    """(sum_(i<j) |x_i - x_j|, |x_1 - x_2| + |x_3 - x_4|)."""
    return (sum(abs(x[i] - x[j]) for i in range(4) for j in range(i + 1, 4)),
            abs(x[0] - x[1]) + abs(x[2] - x[3]))


# ---------------------------------------------------------------------------
# tau windows


def tau_window(eta: float, h_int: float, D_K, D_F, c=1, kappa: float = 0.0,
               mode: str = "main", eps: Optional[float] = None,
               beta: Optional[float] = None) -> dict:
    """{tau : tau*eta > log(D_K)/2 + kappa and 2*tau*h_int <= log D_K
    - 3 log D_F - log c}; the refined mode intersects with the additional
    upper constraint 2*tau*h_int <= (1/2 - 2 eps) log D_K - beta log D_F.
    log c is `log_abs(c)`, so a rational c beyond the float range answers."""
    if D_K <= 0 or D_F <= 0:
        raise ValueError("discriminants must be positive")
    if eta <= 0 or h_int <= 0:
        raise ValueError("window needs positive eta and h_int")
    if c <= 0:
        raise ValueError("c must be positive")
    log_dk, log_df = math.log(D_K), math.log(D_F)
    lo = (0.5 * log_dk + kappa) / eta
    hi = (log_dk - 3.0 * log_df - log_abs(c)) / (2.0 * h_int)
    if mode == "refined":
        if eps is None or beta is None:
            raise ValueError("refined mode needs eps and beta")
        hi = min(hi, ((0.5 - 2.0 * eps) * log_dk - beta * log_df) / (2.0 * h_int))
    elif mode != "main":
        raise ValueError(f"unknown mode {mode!r}")
    return {"lo": lo, "hi": hi, "empty": not (lo < hi)}


# ---------------------------------------------------------------------------
# Bowen balls


@dataclass(frozen=True)
class BowenBall:
    """Base set GL_n(Z_p) conjugated by powers of a diagonal element."""

    p: int
    a: tuple  # diagonal entries, nonzero rationals
    tau: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if any(rational(x) == 0 for x in self.a):
            raise ValueError("diagonal entries must be nonzero")


def bowen_membership_loop(x, ball: BowenBall) -> bool:
    """The oracle: a^-t x a^t in GL_n(Z_p) for every |t| <= tau."""
    m, den = integer_matrix(x)
    vals = [valuation(ai, ball.p) for ai in ball.a]
    for t in range(-ball.tau, ball.tau + 1):
        y = [[Fraction(v, den) * Fraction(1, ball.p) ** (t * (vals[j] - vals[i]))
              for j, v in enumerate(row)] for i, row in enumerate(m)]
        if not in_gl_zp(y, ball.p):
            return False
    return True


def bowen_membership(x, ball: BowenBall) -> bool:
    """Closed form on x = m / den: x in GL_n(Z_p), so that v_p(x_ij) =
    v_p(m_ij), and v_p(m_ij) >= tau |v(a_i) - v(a_j)|."""
    m, den = integer_matrix(x)
    if den % ball.p == 0 or not in_gl_zp(m, ball.p):
        return False
    vals = [valuation(ai, ball.p) for ai in ball.a]
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v != 0 and valuation(v, ball.p) < ball.tau * abs(vals[i] - vals[j]):
                return False
    return True

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
of K: L = K when K/Q is abelian, and the degree-8 field
F(sqrt(delta), sqrt(conj delta)) when K is dihedral.  The Galois relations are checked for every automorphism of
L, so for a dihedral tower for all eight elements of D4.  g g^T is the
rational trace form T[i][k] = Tr(theta^(i+k)) of K, so g^{-1} = g^T T^{-1}
needs one rational 4x4 inverse and no field inverse in L.

The conjugated matrix m = g^{-1} gamma g is linear in gamma:
m[i][j] = sum_{k,l} gamma[k][l] g^{-1}[i][k] g[l][j].  Each embedding
caches, on first use, the 16 closure products of every entry as integer
numerators over one denominator per entry, so conjugating a rational
gamma is one integer dot product per coordinate of each entry and one
gcd per entry, with no field multiplication.

Permutations of {0,1,2,3} are stored as image tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from .intarith import is_prime, valuation
from .nfpoly import NFElem, NumberField, _canonical
from .numfield import FieldTower, conj, norm_square_class
from .ratlinalg import mat_det, mat_inv, mat_mul, mat_vec, transpose

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


@dataclass(frozen=True)
class EmbeddingData:
    tower: FieldTower
    nf: NumberField  # K, whose regular representation gamma comes from
    closure: NumberField  # the Galois closure L of K, where g lives
    g: tuple  # 4x4 rows of NFElem in L
    g_inv: tuple
    automorphisms: tuple  # Gal(L/Q) as nfpoly.Automorphism maps of L
    galois_image: tuple  # per automorphism tau, rho with tau(g[i][j]) = g[i][rho(j)]

    def regular_matrix(self, coeffs) -> list[list[Fraction]]:
        """Regular representation of the element with the given power-basis
        coordinates (acting on row vectors)."""
        return transpose(self.nf.elem(coeffs).mult_matrix())

    @cached_property
    def sqrt_d_matrix(self) -> tuple:
        """Regular representation of sqrt(d), built once per embedding, as
        tuple rows of Fractions."""
        return tuple(map(tuple, self.regular_matrix(self.tower.sqrt_d_coords)))

    @cached_property
    def conjugation_table(self) -> tuple:
        """Per entry (i, j) a pair (D, rows): rows[c][4k + l] / D is
        coordinate c of g^{-1}[i][k] g[l][j] in the power basis of the
        closure, with D the least common denominator of the 16 products.
        Built on first use."""
        table = []
        for a_row in self.g_inv:
            entries = []
            for j in range(4):
                prods = [a * row[j] for a in a_row for row in self.g]
                den = math.lcm(*(x.den for x in prods))
                cols = [[c * (den // x.den) for c in x.num] for x in prods]
                entries.append((den, tuple(zip(*cols))))
            table.append(tuple(entries))
        return tuple(table)


def _embed(x, sqrt_d):
    """The element x = a + b*sqrt(d) of F in a field holding sqrt_d."""
    return sqrt_d * x.b + x.a


def _conj_delta_root(tower: FieldTower, sqrt_d, u):
    """v in K with v^2 = conj(delta), given sqrt(d) and u^2 = delta in K,
    when K/Q is Galois: u itself when delta is rational, else
    sqrt(Nr delta)/u with sqrt(Nr delta) rational or sqrt(d) times a
    rational (numfield.norm_square_class).  None for a dihedral tower."""
    if tower.delta.b == 0:
        return u
    kind, r = norm_square_class(tower.delta)
    if kind == "biquadratic":
        return r / u
    if kind == "cyclic":
        return sqrt_d * r / u
    return None


def _closure_mul(x, y, delta):
    """Product in F(u, v), u^2 = delta and v^2 = conj(delta), of elements
    given by their F-coordinates on (1, u, v, uv)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    bar = conj(delta)
    return (x0 * y0 + x1 * y1 * delta + x2 * y2 * bar + x3 * y3 * delta.norm(),
            x0 * y1 + x1 * y0 + (x2 * y3 + x3 * y2) * bar,
            x0 * y2 + x2 * y0 + (x1 * y3 + x3 * y1) * delta,
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1)


def _dihedral_closure(tower: FieldTower):
    """(L, sqrt(d), u, v) for a dihedral tower K = F(u), u^2 = delta.

    L = F(u, v) with v^2 = conj(delta) has degree 8 and is generated by
    eta = u + 2v: its conjugates +-u +- 2v and +-v +- 2u are distinct, as
    u/v is not rational (u^2/v^2 = delta/conj(delta) is not a rational
    square when b != 0).  (eta = u + v is fixed by the swap u <-> v.)  One
    exact elimination over the basis sqrt(d)^i u^j v^k gives eta^8 and the
    coordinates of sqrt(d), u and v in the power basis of eta.  Gal(L/Q)
    is D4: u -> +-u, v -> +-v fixing sqrt(d), and u -> +-v, v -> +-u
    negating it."""
    delta, F = tower.delta, tower.base
    zero, one = F.elem(0), F.elem(1)
    eta = (zero, one, F.elem(2), zero)
    powers = [(one, zero, zero, zero)]
    for _ in range(8):
        powers.append(_closure_mul(powers[-1], eta, delta))

    def coords(x):
        return [c for q in x for c in q.coeffs]

    inv = mat_inv(transpose([coords(p) for p in powers[:8]]))
    eta8, sqrt_d, u, v = (mat_vec(inv, coords(x)) for x in (
        powers[8], (F.elem(0, 1), zero, zero, zero), (zero, one, zero, zero),
        (zero, zero, one, zero)))
    L = NumberField(tuple(-c for c in eta8) + (Fraction(1),))
    return L, L.elem(sqrt_d), L.elem(u), L.elem(v)


def regular_embedding(tower: FieldTower) -> EmbeddingData:
    """g[i][j] = sigma_j(theta)^i in the Galois closure L of K, with the one
    root formula theta = alpha + u -> alpha + u, alpha - u, conj(alpha) + v,
    conj(alpha) - v for u^2 = delta and v^2 = conj(delta), so sqrt(d) is
    positive at the first two roots.  For abelian towers L = K,
    u = theta - alpha and v lies in K; otherwise L is the degree-8 field of
    _dihedral_closure.  Gal(L/Q) is given by the images of L's generator:
    the roots when L = K, the conjugates +-u +- 2v, +-v +- 2u of u + 2v
    otherwise.  Inconsistent tower data raise ArithmeticError."""
    if tower.degree != 4 or tower.alpha is None:
        raise ValueError("quartic tower required")
    nf = NumberField(tuple(Fraction(c) for c in tower.theta_min_poly))
    sqrt_d = nf.elem(tower.sqrt_d_coords)
    u = nf.gen - _embed(tower.alpha, sqrt_d)
    v = _conj_delta_root(tower, sqrt_d, u)
    L, images = nf, None
    if v is None:
        L, sqrt_d, u, v = _dihedral_closure(tower)
        images = [s * x + 2 * t * y for x, y in ((u, v), (v, u))
                  for s in (1, -1) for t in (1, -1)]
    alpha, alpha_bar = _embed(tower.alpha, sqrt_d), _embed(conj(tower.alpha), sqrt_d)
    roots = [alpha + u, alpha - u, alpha_bar + v, alpha_bar - v]
    g = [[r ** i for r in roots] for i in range(4)]
    _check_roots(tower, g, sqrt_d, u)
    taus = tuple(L.automorphism(x.coeffs) for x in images or roots)
    image = tuple(_column_permutation(g, tau) for tau in taus)
    # slots 0 and 1 are the embeddings with sqrt(d) positive
    if any(tau(sqrt_d) != (sqrt_d if rho[0] < 2 else -sqrt_d)
           for tau, rho in zip(taus, image)):
        raise ArithmeticError("embedding order not compatible with F")
    # g^-1 = g^T T^-1 with T = g g^T = (Tr theta^(i+k)), rational
    traces = [x.trace() for x in itertools.accumulate([nf.gen] * 6, mul, initial=nf.one())]
    g_inv = mat_mul(transpose(g), mat_inv([traces[i:i + 4] for i in range(4)]))
    return EmbeddingData(tower, nf, L, tuple(map(tuple, g)), tuple(map(tuple, g_inv)),
                         taus, image)


def _check_roots(tower: FieldTower, g, sqrt_d, u) -> None:
    """Raise ArithmeticError unless sqrt(d)^2 = d and u^2 = delta in L,
    sqrt_d_coords at the first root give sqrt(d), and every root satisfies
    theta's minimal polynomial."""
    if sqrt_d * sqrt_d != tower.base.d or u * u != _embed(tower.delta, sqrt_d):
        raise ArithmeticError("sqrt(d) or u = theta - alpha does not match delta")
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

    def value(self, perm):
        for s, v in self.values:
            if s == perm:
                return v
        raise KeyError(perm)


def conjugated_matrix(emb: EmbeddingData, gamma):
    """g^{-1} gamma g with gamma rational, as 4x4 rows of NFElem of the
    closure: gamma is cleared to 16 integers over one denominator e, and
    entry (i, j) is read from `emb.conjugation_table` as one integer dot
    product per coordinate over D_ij * e, in lowest terms."""
    q = [Fraction(x) for row in gamma for x in row]
    e = math.lcm(*(x.denominator for x in q))
    v = [x.numerator * (e // x.denominator) for x in q]
    L = emb.closure
    return [[_canonical(L, [sum(map(mul, coord, v)) for coord in rows], den * e)
             for den, rows in entries] for entries in emb.conjugation_table]


def _psi_values(emb: EmbeddingData, gamma, perms):
    """(m, [(s, Psi_s(gamma)) for s in perms]) from one conjugated matrix m;
    a value in Q is returned as a Fraction."""
    det = mat_det([[Fraction(x) for x in row] for row in gamma])
    if det == 0:
        raise ValueError("gamma must be invertible")
    m = conjugated_matrix(emb, gamma)
    vals = []
    for s in perms:
        prod = m[s[0]][0]
        for i in range(1, 4):
            prod = prod * m[s[i]][i]
        v = prod * Fraction(perm_sign(s), 1) / det
        vals.append((s, Fraction(v.num[0], v.den) if not any(v.num[1:]) else v))
    return m, vals


def psi_invariants(emb: EmbeddingData, gamma,
                   galois_type: Optional[str] = None) -> InvariantProfile:
    return InvariantProfile(tuple(_psi_values(emb, gamma, ALL_PERMS)[1]), galois_type)


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
    profile-level relation tau.Psi_sigma = Psi_{rho sigma rho^{-1}}, for
    every automorphism tau of the closure."""
    gs = galois_structures(galois_type)
    m, vals = _psi_values(emb, gamma, ALL_PERMS)
    profile = dict(vals)
    entry_ok = profile_ok = True
    for tau, rho in zip(emb.automorphisms, emb.galois_image):
        if rho == IDENTITY:  # both relations hold trivially
            continue
        if any(tau(m[i][j]) != m[rho[i]][rho[j]] for i in range(4) for j in range(4)):
            entry_ok = False
        rho_inv = perm_inverse(rho)
        for s, v in vals:
            v_img = tau(v) if isinstance(v, NFElem) else v
            if v_img != profile[perm_compose(perm_compose(rho, s), rho_inv)]:
                profile_ok = False
    image_ok = frozenset(emb.galois_image) == gs.image
    return {"entry_relation": entry_ok, "profile_relation": profile_ok,
            "image_matches": image_ok, "pass": entry_ok and profile_ok and image_ok}


# ---------------------------------------------------------------------------
# block membership


def block_membership_test(emb: EmbeddingData, gamma, galois_type: str) -> dict:
    """gamma in the embedded Res_{F/Q} GL2 iff Psi_sigma(gamma) = 0 for the
    special permutations iff gamma commutes with multiplication by sqrt(d);
    the commutation route is exact over Q and is the ground truth."""
    gs = galois_structures(galois_type)
    sd = emb.sqrt_d_matrix
    gm = [[Fraction(x) for x in row] for row in gamma]
    commutes = mat_mul(sd, gm) == mat_mul(gm, sd)
    sp_values = dict(_psi_values(emb, gamma, gs.special)[1])
    vanish = all(v == 0 for v in sp_values.values())
    return {"in_R": commutes, "psi_sp_values": sp_values,
            "vanishing": vanish, "routes_agree": commutes == vanish}


def content_vanishing_detector(profile: InvariantProfile, gs: GaloisStructure,
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
    if p is None:
        return tuple(math.log(abs(float(x))) for x in t)
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return tuple(-valuation(Fraction(x), p) * math.log(p) for x in t)


def entropy_quantities(t, p: Optional[int] = None) -> EntropyData:
    """Root-sum entropy data of a = diag(t1..t4) at the given place."""
    if len(t) != 4 or any(Fraction(x) == 0 if p is not None else float(x) == 0
                          for x in t):
        raise ValueError("need four nonzero diagonal entries")
    logs = root_log_values(t, p)
    eta_sigma = {}
    for s in ALL_PERMS:
        eta_sigma[s] = sum(abs(logs[s[i]] - logs[i]) for i in range(4) if s[i] != i)
    eta = {name: min(eta_sigma[s] for s in gs.special)
           for name, gs in _STRUCTURES.items()}
    h_haar = sum(abs(logs[i] - logs[j]) for i in range(4) for j in range(i + 1, 4))
    h_int = abs(logs[0] - logs[1]) + abs(logs[2] - logs[3])
    return EntropyData(logs, eta_sigma, eta, h_haar, h_int,
                       h_int < h_haar / 3.0)


# ---------------------------------------------------------------------------
# tau windows


def tau_window(eta: float, h_int: float, D_K, D_F, c=1, kappa: float = 0.0,
               mode: str = "main", eps: Optional[float] = None,
               beta: Optional[float] = None) -> dict:
    """{tau : tau*eta > log(D_K)/2 + kappa and 2*tau*h_int <= log D_K
    - 3 log D_F - log c}; the refined mode intersects with the additional
    upper constraint 2*tau*h_int <= (1/2 - 2 eps) log D_K - beta log D_F."""
    if D_K <= 0 or D_F <= 0:
        raise ValueError("discriminants must be positive")
    if eta <= 0 or h_int <= 0:
        raise ValueError("window needs positive eta and h_int")
    if c <= 0:
        raise ValueError("c must be positive")
    log_dk, log_df = math.log(D_K), math.log(D_F)
    lo = (0.5 * log_dk + kappa) / eta
    hi = (log_dk - 3.0 * log_df - math.log(float(c))) / (2.0 * h_int)
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
        if any(Fraction(x) == 0 for x in self.a):
            raise ValueError("diagonal entries must be nonzero")


def _in_gl_zp(x, p: int) -> bool:
    for row in x:
        for v in row:
            if v != 0 and valuation(Fraction(v), p) < 0:
                return False
    det = mat_det([[Fraction(v) for v in row] for row in x])
    return det != 0 and valuation(det, p) == 0


def bowen_membership_loop(x, ball: BowenBall) -> bool:
    n = len(x)
    vals = [valuation(Fraction(ai), ball.p) for ai in ball.a]
    for t in range(-ball.tau, ball.tau + 1):
        y = [[Fraction(x[i][j]) * Fraction(ball.p) ** (t * (vals[i] - vals[j]))
              for j in range(n)] for i in range(n)]
        if not _in_gl_zp(y, ball.p):
            return False
    return True


def bowen_membership(x, ball: BowenBall) -> bool:
    """Closed form: v_p(x_ij) >= tau |v(a_i) - v(a_j)| plus unit determinant."""
    n = len(x)
    vals = [valuation(Fraction(ai), ball.p) for ai in ball.a]
    for i in range(n):
        for j in range(n):
            need = ball.tau * abs(vals[i] - vals[j])
            v = Fraction(x[i][j])
            if v != 0 and valuation(v, ball.p) < need:
                return False
    det = mat_det([[Fraction(v) for v in row] for row in x])
    return det != 0 and valuation(det, ball.p) == 0

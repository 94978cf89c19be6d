"""Bi-torus invariant theory on GL4 and the entropy bookkeeping.

A quartic tower K/F/Q embeds K^x into GL4(Q) by the regular
representation on the power basis of theta.  Conjugating by the matrix
g with g[i][j] = sigma_j(theta^i) diagonalizes the whole field, and the
signed monomials

    Psi0_sigma(g) = det(g)^{-1} sign(sigma) prod_i g[sigma(i)][i]

evaluated on the conjugated matrix generate the bi-T-invariant regular
functions.  For abelian K the embedding matrix is exact (automorphisms
as polynomials in theta); otherwise complex floats, with the working
precision taken from the ALK_PRECISION environment variable.

Permutations of {0,1,2,3} are stored as image tuples.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intarith import valuation
from .nfpoly import NFElem, NumberField
from .numfield import FieldTower
from .ratlinalg import mat_det, mat_inv, mat_mul, transpose

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
    star_pattern: tuple  # orbit labels of the entry positions


# cycles below in 0-based image-tuple form:
#   (1324) -> 0->2, 2->1, 1->3, 3->0
_C4 = (2, 3, 1, 0)
_SWAP34 = (0, 1, 3, 2)
_KLEIN = frozenset({IDENTITY, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)})

_STRUCTURES = {
    "biquadratic": GaloisStructure(
        "biquadratic", _KLEIN, ((3, 2, 1, 0), (2, 3, 0, 1)),
        ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))),
    "cyclic": GaloisStructure(
        "cyclic", _closure([_C4]), (_C4, perm_inverse(_C4)),
        ((1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 1, 2), (3, 4, 2, 1))),
    "dihedral": GaloisStructure(
        "dihedral", _closure([_C4, _SWAP34]), (_C4, perm_inverse(_C4)),
        ((1, 2, 3, 3), (2, 1, 3, 3), (3, 3, 1, 2), (3, 3, 2, 1))),
}


def galois_structures(galois_type: str) -> GaloisStructure:
    if galois_type not in _STRUCTURES:
        raise ValueError(f"unsupported Galois type {galois_type!r}")
    return _STRUCTURES[galois_type]


def pattern_orbits(image) -> tuple:
    """Orbit labels of the 16 entry positions under the diagonal action."""
    labels = [[0] * 4 for _ in range(4)]
    nxt = 1
    for i in range(4):
        for j in range(4):
            if labels[i][j]:
                continue
            orbit = {(s[i], s[j]) for s in image}
            for a, b in orbit:
                labels[a][b] = nxt
            nxt += 1
    return tuple(tuple(r) for r in labels)


# ---------------------------------------------------------------------------
# regular embedding


@dataclass(frozen=True)
class EmbeddingData:
    tower: FieldTower
    nf: NumberField
    g: tuple  # 4x4 rows, NFElem (exact) or complex/mpmath entries
    g_inv: tuple
    exact: bool
    conj_perm: Optional[tuple] = None  # complex conjugation on embeddings (float mode)

    def regular_matrix(self, coeffs) -> list[list[Fraction]]:
        """Regular representation of the element with the given power-basis
        coordinates (acting on row vectors)."""
        return transpose(self.nf.elem(coeffs).mult_matrix())

    def sqrt_d_matrix(self) -> list[list[Fraction]]:
        return self.regular_matrix(self.tower.sqrt_d_coords)


def _precision_bits() -> int:
    raw = os.environ.get("ALK_PRECISION", "53")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ALK_PRECISION must be an integer number of bits, "
                         f"got {raw!r}") from None


def _float_roots(min_poly, bits: int):
    """Roots at working precision max(bits, 53): mpmath numbers above 53
    bits, plain complex numbers (fast arithmetic) at 53 bits and below."""
    import mpmath

    prec = max(bits, 53)
    with mpmath.workprec(prec):
        roots = mpmath.polyroots([mpmath.mpf(float(c)) for c in reversed(min_poly)],
                                 maxsteps=200, extraprec=prec)
        if bits <= 53:
            return [complex(r) for r in roots]
        return [mpmath.mpc(r) for r in roots]


def _order_roots_for_F(tower: FieldTower, roots):
    """Order the four roots so the induced embeddings restrict to F
    compatibly: sqrt(d) positive (resp. +i sqrt|d|) at the first two."""
    d = tower.base.d
    target = complex(d) ** 0.5  # principal branch

    def sd_at(r):
        out = 0j
        for c in reversed(tower.sqrt_d_coords):
            out = out * complex(r) + complex(float(c))
        return out

    plus, minus = [], []
    for r in roots:
        (plus if abs(sd_at(r) - target) < abs(sd_at(r) + target) else minus).append(r)
    if len(plus) != 2 or len(minus) != 2:
        raise ArithmeticError("embedding matrix numerically degenerate; "
                              "raise ALK_PRECISION")
    key = lambda r: (round(complex(r).real, 9), round(complex(r).imag, 9))
    return sorted(plus, key=key) + sorted(minus, key=key)


def regular_embedding(tower: FieldTower) -> EmbeddingData:
    if tower.degree != 4:
        raise ValueError("quartic tower required")
    nf = NumberField(tuple(Fraction(c) for c in tower.theta_min_poly))
    theta = nf.gen
    if tower.conj_polys is not None:
        images = [theta.apply_conj(cp) for cp in tower.conj_polys]
        g = [[images[j] ** i for j in range(4)] for i in range(4)]
        g_inv = mat_inv(g)
        return EmbeddingData(tower, nf, tuple(map(tuple, g)),
                             tuple(map(tuple, g_inv)), True)
    bits = _precision_bits()
    roots = _order_roots_for_F(tower, _float_roots(tower.theta_min_poly, bits))
    g = [[roots[j] ** i for j in range(4)] for i in range(4)]
    g_inv = mat_inv(g)
    # permutation induced by complex conjugation on the embeddings
    conj_perm = []
    for j in range(4):
        rc = complex(roots[j]).conjugate()
        k = min(range(4), key=lambda m: abs(complex(roots[m]) - rc))
        if abs(complex(roots[k]) - rc) > 1e-6:
            raise ArithmeticError("roots not closed under conjugation")
        conj_perm.append(k)
    return EmbeddingData(tower, nf, tuple(map(tuple, g)),
                         tuple(map(tuple, g_inv)), False, tuple(conj_perm))


def _to_complex(x) -> complex:
    if isinstance(x, complex):
        return x
    if isinstance(x, (int, float, Fraction)):
        return complex(float(x))
    try:  # mpmath numbers
        return complex(x)
    except TypeError:
        raise TypeError(f"cannot coerce {type(x)} to complex")


# ---------------------------------------------------------------------------
# invariant profiles


@dataclass(frozen=True)
class InvariantProfile:
    values: tuple  # (perm, value) pairs, value exact or complex
    exact: bool
    galois_type: Optional[str] = None

    def value(self, perm):
        for s, v in self.values:
            if s == perm:
                return v
        raise KeyError(perm)

    def numeric(self, perm) -> complex:
        v = self.value(perm)
        if isinstance(v, NFElem):
            raise TypeError("non-rational exact value has no canonical number")
        return _to_complex(v)


def _rationalize(v, exact: bool):
    """Reduce a Psi value to a Fraction when honestly possible.  A float
    value becomes one only with a denominator up to 10**4 within 1e-12,
    which a random real meets with probability about 1e-4."""
    if exact:
        if isinstance(v, NFElem):
            if not any(v.num[1:]):
                return Fraction(v.num[0], v.den)
            return v
        return Fraction(v)
    z = _to_complex(v)
    if abs(z.imag) > 1e-9:
        return z
    fr = Fraction(z.real).limit_denominator(10 ** 4)
    if abs(float(fr) - z.real) < 1e-12:
        return fr
    return z


def conjugated_matrix(emb: EmbeddingData, gamma):
    """g^{-1} gamma g with gamma rational."""
    if emb.exact:
        gm = [[emb.nf.elem(Fraction(x)) for x in row] for row in gamma]
    else:
        gm = [[_to_complex(float(Fraction(x))) for x in row] for row in gamma]
    return mat_mul(mat_mul([list(r) for r in emb.g_inv], gm),
                   [list(r) for r in emb.g])


def psi_invariants(emb: EmbeddingData, gamma,
                   galois_type: Optional[str] = None) -> InvariantProfile:
    det = mat_det([[Fraction(x) for x in row] for row in gamma])
    if det == 0:
        raise ValueError("gamma must be invertible")
    m = conjugated_matrix(emb, gamma)
    vals = []
    for s in ALL_PERMS:
        prod = m[s[0]][0]
        for i in range(1, 4):
            prod = prod * m[s[i]][i]
        v = prod * Fraction(perm_sign(s), 1) / det
        vals.append((s, _rationalize(v, emb.exact)))
    return InvariantProfile(tuple(vals), emb.exact, galois_type)


def psi_sum_check(emb: EmbeddingData, gamma) -> object:
    """Sum of Psi0 over S4 on the conjugated matrix; equals 1 (Leibniz)."""
    profile = psi_invariants(emb, gamma)
    total = None
    for _, v in profile.values:
        total = v if total is None else total + v
    return total


# ---------------------------------------------------------------------------
# Galois relations and entry patterns


def _column_permutation_exact(emb: EmbeddingData, conj_poly) -> tuple:
    """rho with tau(g[i][j]) = g[i][rho(j)] for the automorphism tau."""
    g = emb.g
    rho = []
    for j in range(4):
        col_img = [g[i][j].apply_conj(conj_poly) for i in range(4)]
        match = None
        for k in range(4):
            if all(col_img[i] == g[i][k] for i in range(4)):
                match = k
                break
        if match is None:
            raise ArithmeticError("automorphism does not permute the columns")
        rho.append(match)
    return tuple(rho)


def galois_image_permutations(emb: EmbeddingData) -> tuple:
    """The image of the Galois group in S4, one permutation per conj poly."""
    if not emb.exact:
        raise ValueError("exact embedding required")
    return tuple(_column_permutation_exact(emb, cp)
                 for cp in emb.tower.conj_polys)


def pattern_and_relation_check(emb: EmbeddingData, gamma,
                               galois_type: str, tol: float = 1e-9) -> dict:
    """Entry-level Galois relation tau(m[i][j]) = m[rho i][rho j] and the
    profile-level relation tau.Psi_sigma = Psi_{rho sigma rho^{-1}}."""
    gs = galois_structures(galois_type)
    m = conjugated_matrix(emb, gamma)
    profile = psi_invariants(emb, gamma, galois_type)
    if emb.exact:
        entry_ok = True
        profile_ok = True
        image = []
        for cp in emb.tower.conj_polys:
            rho = _column_permutation_exact(emb, cp)
            image.append(rho)
            for i in range(4):
                for j in range(4):
                    img = m[i][j].apply_conj(cp)
                    if img != m[rho[i]][rho[j]]:
                        entry_ok = False
            rho_inv = perm_inverse(rho)
            for s in ALL_PERMS:
                v = profile.value(s)
                v_img = v.apply_conj(cp) if isinstance(v, NFElem) else v
                target = profile.value(perm_compose(perm_compose(rho, s), rho_inv))
                if not _exact_equal(v_img, target):
                    profile_ok = False
        image_ok = frozenset(image) == gs.image
        return {"entry_relation": entry_ok, "profile_relation": profile_ok,
                "image_matches": image_ok, "pass": entry_ok and profile_ok and image_ok}
    # float route: the only automorphism acting computably on plain complex
    # values is complex conjugation; also require the per-orbit elementary
    # symmetric functions of the entries to be real (Galois-stable orbits).
    rho = emb.conj_perm
    rho_inv = perm_inverse(rho)
    entry_ok = all(
        abs(_to_complex(m[i][j]).conjugate() - _to_complex(m[rho[i]][rho[j]])) < tol
        for i in range(4) for j in range(4)
    )
    profile_ok = all(
        abs(_to_complex(profile.value(s)).conjugate()
            - _to_complex(profile.value(perm_compose(perm_compose(rho, s), rho_inv)))) < tol
        for s in ALL_PERMS
    )
    labels = pattern_orbits(gs.image)
    sym_ok = True
    for lab in {x for row in labels for x in row}:
        entries = [_to_complex(m[i][j]) for i in range(4) for j in range(4)
                   if labels[i][j] == lab]
        e = [1.0 + 0j]
        for z in entries:
            e.append(0j)
            for k in range(len(e) - 1, 0, -1):
                e[k] = e[k] + z * e[k - 1]
        if any(abs(c.imag) > tol * max(1.0, abs(c)) for c in e[1:]):
            sym_ok = False
    pattern_ok = _same_partition(labels, gs.star_pattern)
    return {"entry_relation": entry_ok, "profile_relation": profile_ok,
            "orbit_symmetric_real": sym_ok, "pattern_ok": pattern_ok,
            "pass": entry_ok and profile_ok and sym_ok}


def _same_partition(a, b) -> bool:
    """Whether two label matrices induce the same partition of positions."""
    def groups(lab):
        g = {}
        for i in range(4):
            for j in range(4):
                g.setdefault(lab[i][j], set()).add((i, j))
        return sorted(tuple(sorted(s)) for s in g.values())
    return groups(a) == groups(b)


def _exact_equal(a, b) -> bool:
    if isinstance(a, NFElem) or isinstance(b, NFElem):
        return a == b
    return Fraction(a) == Fraction(b)


# ---------------------------------------------------------------------------
# block membership


def block_membership_test(emb: EmbeddingData, gamma, galois_type: str,
                          tol: float = 1e-9) -> dict:
    """gamma in the embedded Res_{F/Q} GL2 iff Psi_sigma(gamma) = 0 for the
    special permutations iff gamma commutes with multiplication by sqrt(d);
    the commutation route is exact over Q and is the ground truth."""
    gs = galois_structures(galois_type)
    sd = emb.sqrt_d_matrix()
    gm = [[Fraction(x) for x in row] for row in gamma]
    commutes = mat_mul(sd, gm) == mat_mul(gm, sd)
    profile = psi_invariants(emb, gamma, galois_type)
    sp_values = {s: profile.value(s) for s in gs.special}
    if emb.exact:
        vanish = all(_is_exact_zero(v) for v in sp_values.values())
    else:
        vanish = all(abs(_to_complex(v)) < tol for v in sp_values.values())
    return {"in_R": commutes, "psi_sp_values": sp_values,
            "vanishing": vanish, "routes_agree": commutes == vanish}


def _is_exact_zero(v) -> bool:
    if isinstance(v, NFElem):
        return not any(v.num)
    return Fraction(v) == 0


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
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if any(Fraction(x) == 0 for x in self.a):
            raise ValueError("diagonal entries must be nonzero")


def _in_gl_zp(x, p: int) -> bool:
    n = len(x)
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
            if v == 0:
                continue
    det = mat_det([[Fraction(v) for v in row] for row in x])
    return det != 0 and valuation(det, ball.p) == 0

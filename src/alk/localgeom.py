"""Tori in GL2 over Q, their local coordinates, and related local data.

A torus is the unit group of a quadratic algebra K = Q(sqrt D) acting on
itself; we fix the right-regular matrix model on a basis (1, g): the
matrix of x = a + b*sqrt(D) on the basis (1, sqrt(D)) is
[[a, b], [bD, a]].  The eigenbasis E = [[1, 1], [g, conj g]] of the
algebra turns any rational 2x2 matrix gamma into coordinates (b1, b2) in
K with E^{-1} gamma E = [[b1, b2], [conj b2, conj b1]], read from one
`nfpoly.Conjugation` per torus, the kernel git4 uses for g^{-1} gamma g.
The invariant psi_T(gamma) = Nr(b2)/det(gamma) needs no coordinates: it is
(n disc(gamma) - tr(f gamma)^2) / (4 n det(gamma)) for a traceless f that
generates the algebra and n = -det f, exact at every place.  The
Res_{F/Q} GL2 block coordinates of a rational 4x4 matrix are the (b1, b2)
of its four 2x2 blocks on the torus (1, f omega) (Khayutin, Duke Math. J.
168 (2019)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Optional

from .intarith import valuation
from .nfpoly import Conjugation, NFElem
from .numfield import QuadField, conj, splitting_type
from .ratlinalg import in_gl_zp, integer_matrix, mat_det, mat_mul, rational, real


# ---------------------------------------------------------------------------
# torus model


@dataclass(frozen=True)
class QuadTorus:
    """Multiplication model of K^x on the basis (1, basis_gen)."""

    K: QuadField
    basis_gen: NFElem

    def __post_init__(self):
        if self.basis_gen.b == 0:
            raise ValueError("basis generator must not be rational")

    def embed(self, x: NFElem) -> list[list[Fraction]]:
        """Matrix of right multiplication by x on row vectors."""
        g = self.basis_gen
        u, v = _coords_in_basis(x, g)
        w, z = _coords_in_basis(x * g, g)
        return [[u, v], [w, z]]

    def eigenbasis(self) -> list[list[NFElem]]:
        """E = [[1, 1], [g, conj g]]: E^{-1} embed(x) E = diag(x, conj x)."""
        one, g = self.K.elem(1), self.basis_gen
        return [[one, one], [g, conj(g)]]

    @cached_property
    def conjugate(self) -> Conjugation:
        """gamma -> E^{-1} gamma E on rational 2x2 matrices; one inverse
        and one table per torus."""
        e = self.eigenbasis()
        return Conjugation(self.K.nf, _inv2(e), e)

    @cached_property
    def generator(self) -> list[list[int]]:
        """embed(2g - Tr g) = ((-Tr g, 2), (-2 Nr g, Tr g)), traceless and
        cleared to integers: the f of `psi_invariant`, with n = disc g."""
        t, nr = self.basis_gen.trace(), self.basis_gen.norm()
        return integer_matrix([[-t, 2], [-2 * nr, t]])[0]


def _inv2(m):
    """Inverse of a 2x2 matrix over NFElem by its adjugate."""
    (a, b), (c, d) = m
    r = 1 / (a * d - b * c)
    return [[d * r, -b * r], [-c * r, a * r]]


def _coords_in_basis(x: NFElem, g: NFElem) -> tuple[Fraction, Fraction]:
    """(u, v) with x = u + v*g."""
    v = x.b / g.b
    u = x.a - v * g.a
    return u, v


def standard_torus(D: int) -> QuadTorus:
    K = QuadField(D)
    return QuadTorus(K, K.elem(0, 1))


@lru_cache
def order_torus(D: int, f: int) -> QuadTorus:
    """Torus on the basis (1, f*omega) of the conductor-f order; one per
    (D, f), so its conjugation table is built once."""
    K = QuadField(D)
    return QuadTorus(K, K.omega * f)


# ---------------------------------------------------------------------------
# local quadratic extension data


@dataclass(frozen=True)
class LocalQuadExt:
    """Completion data of the order Z_p[f*omega] in K at p."""

    K: QuadField
    p: int
    conductor: int
    ext_type: str  # split / inert / ramified
    alpha: NFElem  # order generator f*omega
    delta: NFElem  # different generator alpha - conj(alpha)

    @cached_property
    def torus(self) -> QuadTorus:
        """The torus on the basis (1, alpha) of the order."""
        return QuadTorus(self.K, self.alpha)

    @cached_property
    def disc_valuation(self) -> int:
        return valuation(self.delta.norm(), self.p)

    @property
    def disc_u(self) -> Fraction:
        """|disc O_u|_p^{-1} = p^{v_p(Nr delta)}."""
        return Fraction(self.p) ** self.disc_valuation

    def in_order(self, x: NFElem) -> bool:
        """x in Z_p + Z_p*alpha."""
        u, v = _coords_in_basis(x, self.alpha)
        return _p_integral(u, self.p) and _p_integral(v, self.p)

    def in_inverse_different(self, x: NFElem) -> bool:
        return self.in_order(x * self.delta)


def _p_integral(x: Fraction, p: int) -> bool:
    return x == 0 or valuation(x, p) >= 0


def different_and_orders(D: int, p: int, f: int = 1) -> LocalQuadExt:
    if f == 0:
        raise ValueError("conductor must be nonzero")
    K = QuadField(D)
    alpha = K.omega * f
    delta = alpha - conj(alpha)
    return LocalQuadExt(K, p, f, splitting_type(K, p), alpha, delta)


# ---------------------------------------------------------------------------
# local coordinates


@dataclass(frozen=True)
class LocalCoords:
    b1: NFElem
    b2: NFElem


def _sigma_pattern(m) -> bool:
    """m = [[b1, b2], [conj b2, conj b1]]."""
    return m[1][1] == conj(m[0][0]) and m[1][0] == conj(m[0][1])


def local_coords(torus: QuadTorus, gamma) -> LocalCoords:
    """Exact coordinates of a rational 2x2 matrix with respect to the torus;
    a non-rational entry raises ValueError."""
    m = torus.conjugate(gamma)
    if not _sigma_pattern(m):
        raise ArithmeticError("conjugated matrix lost its sigma-pattern")
    return LocalCoords(m[0][0], m[0][1])


def reconstruct(torus: QuadTorus, coords: LocalCoords):
    """E [[b1, b2], [conj b2, conj b1]] E^{-1}, for the identity check."""
    e = torus.eigenbasis()
    mid = [[coords.b1, coords.b2], [conj(coords.b2), conj(coords.b1)]]
    return mat_mul(mat_mul(e, mid), _inv2(e))


def _psi(f, gamma) -> Fraction:
    """psi_T(gamma) = Nr(b2)/det(gamma) for a rational 2x2 gamma and the
    torus of the algebra generated by the integer f = ((p, q), (r, -p)),
    n = -det f = p^2 + qr nonzero.  As f^2 = n, E^{-1} f E = diag(phi, -phi)
    on the torus's eigenbasis E, so gamma - f gamma f^{-1} maps to
    [[0, 2 b2], [2 conj b2, 0]], of determinant -4 Nr(b2); expanded with
    f^{-1} = f/n, psi = (n disc(gamma) - tr(f gamma)^2) / (4 n det(gamma)),
    of degree 0 in gamma, which is therefore cleared to integers."""
    (p, q), (r, _) = f
    n = p * p + q * r
    if n == 0:
        raise ValueError("f generates no torus: its traceless part is zero or nilpotent")
    if len(gamma) != 2 or any(len(row) != 2 for row in gamma):
        raise ValueError("expected a 2x2 matrix")
    ((a, b), (c, d)), _ = integer_matrix(gamma)
    det = a * d - b * c
    if det == 0:
        raise ValueError("gamma must be invertible")
    s = p * (a - d) + q * c + r * b  # tr(f gamma)
    return Fraction(n * ((a - d) ** 2 + 4 * b * c) - s * s, 4 * n * det)


def psi_invariant(torus: QuadTorus, gamma) -> Fraction:
    """psi_T(gamma) = Nr(b2)/det(gamma), exact; lies in the base field."""
    return _psi(torus.generator, gamma)


def normalizer_coset_rep(torus: QuadTorus) -> list[list[Fraction]]:
    """A representative of the nontrivial N_T/T coset (needs conj g = -g)."""
    g = torus.basis_gen
    if conj(g) != -g:
        raise ValueError("representative implemented for trace-zero generators")
    return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]


# ---------------------------------------------------------------------------
# integrality and invariant bounds


def integrality_checks(ext: LocalQuadExt, gamma) -> dict:
    """The four order conditions on the coordinates, their conjunction, and
    the direct matrix-side membership gamma in GL2(Z_p)."""
    lc = local_coords(ext.torus, gamma)
    p = ext.p
    det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
    checks = {
        "b_in_inv_different": ext.in_inverse_different(lc.b1)
        and ext.in_inverse_different(lc.b2),
        "difference_integral": ext.in_order(lc.b1 - lc.b2),
        "traces_integral": _p_integral(lc.b1.trace(), p)
        and _p_integral(lc.b2.trace(), p),
        "det_is_unit": det != 0 and valuation(det, p) == 0,
    }
    checks["all"] = all(checks.values())
    checks["gamma_in_gl2_zp"] = in_gl_zp(gamma, p)
    checks["coords"] = lc
    return checks


def psi_bound_finite(ext: LocalQuadExt, gamma) -> dict:
    """|psi(k)|_p <= disc_u for k in GL2(Z_p), as exact valuations."""
    psi = psi_invariant(ext.torus, gamma)
    if psi == 0:
        return {"psi": psi, "abs": Fraction(0), "disc_u": ext.disc_u, "ok": True}
    abs_psi = Fraction(ext.p) ** (-valuation(psi, ext.p))
    return {"psi": psi, "abs": abs_psi, "disc_u": ext.disc_u,
            "ok": abs_psi <= ext.disc_u}


# ---------------------------------------------------------------------------
# the Archimedean invariant


def psi_invariant_arch(f, gamma) -> float:
    """psi_T(gamma) for the torus of R[f], f a real 2x2 matrix whose
    traceless part is neither zero nor nilpotent; f and gamma are read
    exactly by `ratlinalg.real`, and the exact value is rounded once."""
    if len(f) != 2 or any(len(row) != 2 for row in f):
        raise ValueError("expected a 2x2 matrix")
    (a, b), (c, d) = ([real(x) for x in row] for row in f)
    gamma = [[real(x) for x in row] for row in gamma]
    return float(_psi(integer_matrix([[a - d, 2 * b], [2 * c, d - a]])[0], gamma))


# ---------------------------------------------------------------------------
# orbital measures


def orbital_measure_split(psi: Fraction, kind: str, q: Optional[int] = None,
                          radius: Optional[float] = None,
                          in_inverse_different: Optional[bool] = None) -> float:
    """Closed-form local orbital measures.

    kind 'split_nonarch': (log_q |psi|^{-1} + 1)(log_q |1+psi|^{-1} + 1)
    via the valuation-range count; 'field_nonarch': 0/1 indicator;
    'split_real'/'split_complex': log-length range product with the given
    Archimedean radius bound R.
    """
    if kind == "field_nonarch":
        if in_inverse_different is None:
            raise ValueError("field case needs the inverse-different flag")
        return 1.0 if in_inverse_different else 0.0
    psi = rational(psi)
    if psi == 0 or psi == -1:
        raise ValueError("psi in {0, -1} is the degenerate stabilizer case")
    if kind == "split_nonarch":
        if q is None:
            raise ValueError("split_nonarch needs the residue field size q")
        m = valuation(psi, q)
        el = valuation(1 + psi, q)
        if m < 0 or el < 0:
            return 0.0
        return float((m + 1) * (el + 1))
    if kind in ("split_real", "split_complex"):
        pref = 2.0 if kind == "split_real" else 2.0 * math.pi
        if radius is None or real(radius) <= 0:
            raise ValueError(f"{kind} needs a positive radius, not {radius!r}")
        r = float(radius)
        t1 = math.log(1.0 / abs(float(psi))) + 2.0 * math.log(r)
        t2 = math.log(1.0 / abs(1.0 + float(psi))) + 2.0 * math.log(r)
        if t1 < 0 or t2 < 0:
            return 0.0
        return pref * t1 * pref * t2
    raise ValueError(f"unknown kind {kind!r}")


def orbital_measure_split_oracle(psi: Fraction, q: int) -> int:
    """Valuation-range enumeration oracle for the split case: counts the
    radii rho with |b2 c1| <= |rho| <= |b1 c2|^{-1} factor by factor."""
    psi = rational(psi)

    def range_count(m: int) -> int:
        if m < 0:
            return 0
        lo_abs = Fraction(1, q) ** m  # |b2 c1|, with |b1 c2| = 1
        count = 0
        for k in range(-m - 5, m + 6):
            rho_abs = Fraction(1, q) ** k
            if lo_abs <= rho_abs <= 1:
                count += 1
        return count

    return range_count(valuation(psi, q)) * range_count(valuation(1 + psi, q))


# ---------------------------------------------------------------------------
# norm image index


def norm_index(ext: LocalQuadExt) -> int:
    """Index of the norm image of the local order's units in Z_p^x."""
    p = ext.p
    if p != 2:
        return 1 if ext.disc_valuation == 0 else 2
    # dyadic: enumerate norms of units modulo 8
    tr = int(ext.alpha.trace())
    nr = ext.alpha.norm()
    if nr.denominator != 1:
        raise ArithmeticError(f"order generator {ext.alpha} is not integral")
    nr = int(nr)
    images = set()
    for x in range(8):
        for y in range(8):
            n = (x * x + tr * x * y + nr * y * y) % 8
            if n % 2 == 1:
                images.add(n)
    units = {1, 3, 5, 7}
    if not (images <= units and all((a * b) % 8 in images for a in images for b in images)):
        raise ArithmeticError(f"unit norms {sorted(images)} mod 8 are not a subgroup")
    return len(units) // len(images)


# ---------------------------------------------------------------------------
# GL4 block coordinates


def block_coordinates_gl4(F: QuadField, gamma, f: int = 1) -> dict:
    """Coordinates of a rational 4x4 matrix with respect to the embedded
    Res_{F/Q} GL2: conjugation by c1 = P_(23) diag(c, c), c = E^{-1} on the
    torus (1, f omega), yields blocks [[A1, A2], [conj A2, conj A1]] with
    A1[i][j], A2[i][j] the (b1, b2) of gamma's 2x2 block (i, j)."""
    if len(gamma) != 4 or any(len(row) != 4 for row in gamma):
        raise ValueError("expected a 4x4 matrix")
    entry = order_torus(F.d, f).conjugate.entry
    w, e = integer_matrix(gamma)  # cleared once for the four blocks
    blocks = [[[[entry(v, e, r, c) for c in range(2)] for r in range(2)]
               for v in (w[i][j:j + 2] + w[i + 1][j:j + 2] for j in (0, 2))]
              for i in (0, 2)]
    return {"A1": [[m[0][0] for m in row] for row in blocks],
            "A2": [[m[0][1] for m in row] for row in blocks],
            "pattern_ok": all(_sigma_pattern(m) for row in blocks for m in row)}


def block_integrality(F: QuadField, gamma, p: int, f: int = 1) -> dict:
    """Integrality of the block coordinates for gamma in GL4(Z_p)."""
    ext = different_and_orders(F.d, p, f)
    bc = block_coordinates_gl4(F, gamma, f)
    if mat_det(gamma) == 0:
        raise ValueError("gamma must be invertible")
    a1, a2 = bc["A1"], bc["A2"]
    in_inv_diff = all(ext.in_inverse_different(a1[i][j]) and
                      ext.in_inverse_different(a2[i][j])
                      for i in range(2) for j in range(2))
    diff_int = all(ext.in_order(a1[i][j] - a2[i][j])
                   for i in range(2) for j in range(2))
    return {"pattern_ok": bc["pattern_ok"], "in_inv_different": in_inv_diff,
            "difference_integral": diff_int,
            "A2_zero": all(a2[i][j].is_zero() for i in range(2) for j in range(2))}

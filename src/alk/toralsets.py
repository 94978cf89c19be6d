"""Homogeneous toral sets: discriminants, Galois types, and the closed-form
right-hand side of the uniform basic lemma.

A descriptor bundles a field tower (the torus), a finite map of local
conductors (empty = maximal type), and optionally a traceless generator
of the Archimedean torus algebra.  Finite-place discriminants are exact
integers; the Archimedean one is the Gram-determinant ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intarith import (
    divisor_count,
    factorize,
    is_square_fraction,
    squarefree_kernel,
    valuation,
)
from .localgeom import different_and_orders
from .numfield import FieldTower, QuadField
from .ratlinalg import mat_det


@dataclass(frozen=True)
class ToralSetDescriptor:
    tower: FieldTower
    local_conductors: tuple = ()  # ((p, f), ...), omitted primes have f = 1
    arch_generator: Optional[tuple] = None  # traceless matrix rows

    @property
    def maximal_type(self) -> bool:
        return all(abs(f) == 1 for _, f in self.local_conductors)

    def conductor_at(self, p: int) -> int:
        for q, f in self.local_conductors:
            if q == p:
                return f
        return 1


def make_descriptor(tower: FieldTower, conductors=None, arch_generator=None):
    cond = tuple(sorted((int(p), int(f)) for p, f in (conductors or {}).items()))
    if any(f == 0 for _, f in cond):
        raise ValueError("zero conductor")
    arch = None
    if arch_generator is not None:
        arch = tuple(tuple(x for x in row) for row in arch_generator)
    return ToralSetDescriptor(tower, cond, arch)


def quad_field_of_square(delta: Fraction) -> QuadField:
    """Q(sqrt(delta)) as a QuadField (squarefree kernel of num*den)."""
    delta = Fraction(delta)
    m = delta.numerator * delta.denominator
    return QuadField(squarefree_kernel(m))


# ---------------------------------------------------------------------------
# discriminants


def nonarch_and_global_disc(desc: ToralSetDescriptor) -> dict:
    """Per-prime local discriminants, their product disc_fin, and the global
    discriminant including the Archimedean factor when a generator is set."""
    tower = desc.tower
    table: dict[int, int] = {}
    if tower.base is None:
        K = quad_field_of_square(tower.delta)
        support = set(factorize(K.disc)) | {p for p, _ in desc.local_conductors}
        for p in sorted(support):
            ext = different_and_orders(K.d, p, desc.conductor_at(p))
            du = int(ext.disc_u)
            if du != 1:
                table[p] = du
    else:
        if tower.declared_DK is None:
            raise ValueError("quartic descriptor needs a certified maximal order")
        d_rel = Fraction(abs(tower.declared_DK), tower.base.disc ** 2)
        if d_rel.denominator != 1:
            raise ArithmeticError("declared D_K not divisible by D_F^2")
        disc_fin = int(d_rel)
        # conductor-square law through the norm: rational conductor f
        # scales the relative discriminant ideal by f^2, its norm by f^4
        for p, f in desc.local_conductors:
            disc_fin *= p ** (4 * valuation(Fraction(f), p))
        for p in sorted(set(factorize(disc_fin)) if disc_fin != 1 else set()):
            table[p] = p ** valuation(Fraction(disc_fin), p)
    disc_fin = 1
    for du in table.values():
        disc_fin *= du
    out = {"disc_u": table, "disc_fin": disc_fin,
           "maximal_type": desc.maximal_type}
    if desc.arch_generator is not None:
        arch = arch_disc(desc.arch_generator)
        out["disc_arch"] = arch
        out["disc"] = disc_fin * arch
    else:
        out["disc"] = float(disc_fin)
    return out


def arch_disc_from_basis(basis) -> float:
    """det(<k_i, k_j>) / |det(Tr(k_i k_j))| for a basis of the torus algebra
    (entrywise inner product in the numerator, trace form below), with
    both determinants exact over the Fractions of the entries."""
    mats = [[list(map(Fraction, row)) for row in k] for k in basis]
    m = len(mats)
    n = len(mats[0])
    inner = [[sum(mats[a][i][j] * mats[b][i][j] for i in range(n) for j in range(n))
              for b in range(m)] for a in range(m)]
    tracef = [[sum(mats[a][i][j] * mats[b][j][i] for i in range(n) for j in range(n))
               for b in range(m)] for a in range(m)]
    det_tr = mat_det(tracef)
    if det_tr == 0:
        raise ValueError("trace Gram is singular for this basis")
    return float(mat_det(inner) / abs(det_tr))


def arch_disc(k) -> float:
    """Archimedean discriminant of the algebra generated by a traceless k."""
    n = len(k)
    kf = [[float(x) for x in row] for row in k]
    if abs(sum(kf[i][i] for i in range(n))) > 1e-9:
        raise ValueError("generator must be traceless")
    ident = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    basis = [ident, kf]
    power = kf
    while len(basis) < n:  # centralizer algebra has dimension n for regular k
        power = [[sum(power[i][t] * kf[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        basis.append(power)
    return arch_disc_from_basis(basis)


# ---------------------------------------------------------------------------
# Galois classification


def _rational_roots_cubic(coeffs) -> list[Fraction]:
    """Exact rational roots of a cubic, coefficients low-degree first."""
    c = [Fraction(x) for x in coeffs]
    den = 1
    for x in c:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ic = [int(x * den) for x in c]
    while ic and ic[-1] == 0:
        ic.pop()
    lead, const = ic[-1], ic[0]
    roots = set()
    if const == 0:
        roots.add(Fraction(0))
        ic = ic[1:]
        lead, const = ic[-1], ic[0]
    def divisors(n):
        n = abs(n)
        out = set()
        i = 1
        while i * i <= n:
            if n % i == 0:
                out |= {i, n // i}
            i += 1
        return out
    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(co * cand ** i for i, co in enumerate(ic)) == 0:
                    roots.add(cand)
    return sorted(roots)


def resolvent_cubic(min_poly) -> tuple:
    """Resolvent cubic y^3 - q y^2 + (pr - 4s) y - (p^2 s - 4 q s + r^2) of
    x^4 + p x^3 + q x^2 + r x + s, coefficients low-degree first."""
    s, r, q, p, lead = [Fraction(c) for c in min_poly]
    if lead != 1:
        raise ValueError("monic quartic required")
    return (-(p * p * s - 4 * q * s + r * r), p * r - 4 * s, -q, Fraction(1))


def classify_galois_type(tower: FieldTower) -> str:
    """biquadratic / cyclic / dihedral / other, by the square class of
    Nr(delta), cross-checked against the resolvent cubic's rational roots."""
    if tower.degree != 4:
        raise ValueError("quartic tower required")
    d = Fraction(tower.base.d)
    delta = tower.delta
    if delta.b != 0:
        nr = delta.norm()
        if is_square_fraction(nr):
            primary = "biquadratic"
        elif is_square_fraction(nr * d):
            primary = "cyclic"
        else:
            primary = "dihedral"
    else:
        primary = "biquadratic"  # theta = sqrt(d) + sqrt(e) construction
    n_roots = len(_rational_roots_cubic(resolvent_cubic(tower.theta_min_poly)))
    if n_roots == 0:
        return "other"
    expected = 3 if primary == "biquadratic" else 1
    if n_roots != expected:
        raise ArithmeticError(
            f"resolvent cubic ({n_roots} rational roots) contradicts the "
            f"norm square-class classification {primary}")
    if tower.galois_hint is not None and tower.galois_hint != primary:
        raise ArithmeticError("construction metadata contradicts classification")
    return primary


# ---------------------------------------------------------------------------
# cyclic quartic discriminant inequality


def cyclic_disc_check(tower: FieldTower) -> dict:
    """D_{K/F} >= D_F / 4 for cyclic quartic K with quadratic subfield F."""
    if classify_galois_type(tower) != "cyclic":
        raise ValueError("cyclic tower required")
    if tower.declared_DK is None:
        raise ValueError("needs a certified field discriminant")
    D_K = abs(tower.declared_DK)
    D_F = tower.base.disc
    if D_K % (D_F * D_F) != 0:
        raise ArithmeticError("D_K not divisible by D_F^2")
    d_rel = D_K // (D_F * D_F)
    # decomposition D_rel = W^2 d (or W^2 d / 4) with d > 1 squarefree
    decomposition = None
    kern = squarefree_kernel(d_rel)
    if kern > 1 and is_square_fraction(Fraction(d_rel, kern)):
        w = math.isqrt(d_rel // kern)
        decomposition = {"W": w, "d": kern, "form": "W^2*d"}
    else:
        kern4 = squarefree_kernel(4 * d_rel)
        if kern4 > 1 and is_square_fraction(Fraction(4 * d_rel, kern4)):
            w = math.isqrt(4 * d_rel // kern4)
            decomposition = {"W": w, "d": kern4, "form": "W^2*d/4"}
    return {
        "D_K": D_K,
        "D_F": D_F,
        "D_rel": d_rel,
        "pass": 4 * d_rel >= D_F,
        "decomposition": decomposition,
    }


# ---------------------------------------------------------------------------
# the basic-lemma right-hand side


def linnik_rhs(disc: float, vol: float, tau: float, h: float, eps: float,
               c: float = 1.0, D_F: float = 1.0) -> dict:
    """1/vol + disc^(1+eps)/vol^2 * e^(-2 tau h), with the theorem's
    hypothesis tau <= (log disc - log(c D_F)) / (2h) checked and flagged."""
    if disc <= 0 or vol <= 0 or h <= 0 or tau < 0:
        raise ValueError("positive disc, vol, h and nonnegative tau required")
    term1 = 1.0 / vol
    term2 = disc ** (1.0 + eps) / vol ** 2 * math.exp(-2.0 * tau * h)
    tau_max = (math.log(disc) - math.log(c * D_F)) / (2.0 * h)
    in_hyp = tau <= tau_max
    return {
        "value": term1 + term2,
        "terms": {"volume": term1, "disc": term2},
        "tau_max": tau_max,
        "in_hypothesis": in_hyp,
        "status": "ok" if in_hyp else "out_of_hypothesis",
    }


def linnik_rhs_special(disc: float, D_F: float, tau: float, h: float,
                       eps: float) -> dict:
    """Maximal-type shape disc^(-1/2+eps) + D_F^(-2) disc^eps e^(-2 tau h)
    (volume replaced by the disc^(1/2) proxy; the o(1) exponent is carried
    by eps and reported, not bounded)."""
    if disc <= 0 or D_F <= 0 or h <= 0 or tau < 0:
        raise ValueError("positive inputs required")
    term1 = disc ** (-0.5 + eps)
    term2 = D_F ** (-2.0) * disc ** eps * math.exp(-2.0 * tau * h)
    return {"value": term1 + term2, "terms": {"volume": term1, "disc": term2}}


# ---------------------------------------------------------------------------
# divisor-count bound


def divisor_bound_check(desc: ToralSetDescriptor) -> dict:
    """2^b <= tau(disc_fin) with b the number of non-dyadic finite places
    where the different's norm is a non-unit."""
    data = nonarch_and_global_disc(desc)
    disc_fin = data["disc_fin"]
    tower = desc.tower
    if tower.base is None:
        K = quad_field_of_square(tower.delta)
        support = set(factorize(K.disc)) | {p for p, _ in desc.local_conductors}
        b = 0
        for p in support:
            if p == 2:
                continue
            ext = different_and_orders(K.d, p, desc.conductor_at(p))
            if ext.disc_valuation > 0:
                b += 1
    else:
        b = sum(1 for p in data["disc_u"] if p != 2)
    tau_d = divisor_count(disc_fin) if disc_fin != 0 else 0
    return {"b": b, "2^b": 2 ** b, "divisor_count": tau_d,
            "disc_fin": disc_fin, "pass": 2 ** b <= tau_d}

"""Homogeneous toral sets: discriminants, Galois types, and the closed-form
right-hand side of the uniform basic lemma.

A descriptor bundles a field tower (the torus), a finite map of local
conductors (empty = maximal type), and optionally a traceless generator
of the Archimedean torus algebra.  Finite-place discriminants are exact
integers; the Archimedean one is the Gram-determinant ratio.

A quartic tower K = F(sqrt(delta)), F = Q(sqrt d), is biquadratic when
Nr(delta) is a rational square, cyclic when Nr(delta)/d is one, and
dihedral otherwise (Kappe-Warren, Amer. Math. Monthly 96 (1989)); the
one place that reads this square class is numfield.norm_square_class.
The tower is (F, delta, alpha) alone, so there is no second description
of K to compare it with; a galois_hint that names another type is an
error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional

from .intarith import (
    divisor_count,
    factorize,
    is_prime,
    log_abs,
    squarefree_kernel,
    valuation,
)
from .localgeom import different_and_orders
from .numfield import FieldTower, QuadField, norm_square_class
from .ratlinalg import mat_det, mat_mul, rational, real

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    cond = tuple(sorted((index(p), index(f)) for p, f in (conductors or {}).items()))
    if any(f == 0 or not is_prime(p) for p, f in cond):
        raise ValueError(f"conductors must be nonzero, at primes: got {dict(cond)}")
    arch = None if arch_generator is None else tuple(map(tuple, arch_generator))
    return ToralSetDescriptor(tower, cond, arch)


def quad_field_of_square(delta: Fraction) -> QuadField:
    """Q(sqrt(delta)) as a QuadField (squarefree kernel of num*den)."""
    delta = rational(delta)
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
        disc_fin, rem = divmod(abs(tower.declared_DK), tower.base.disc ** 2)
        if rem:
            raise ArithmeticError("declared D_K not divisible by D_F^2")
        # conductor-square law through the norm: rational conductor f
        # scales the relative discriminant ideal by f^2, its norm by f^4
        for p, f in desc.local_conductors:
            disc_fin *= p ** (4 * valuation(f, p))
        for p, e in sorted(factorize(disc_fin).items()):
            table[p] = p ** e
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
        out["disc"] = disc_fin
    return out


def arch_disc_from_basis(basis) -> float:
    """det(<k_i, k_j>) / |det(Tr(k_i k_j))| for a basis of the torus algebra
    (entrywise inner product in the numerator, trace form below), with
    both determinants exact over the entries read by `ratlinalg.real`, and
    their ratio rounded once; a ratio beyond the float range is refused
    with its size as a power of 10."""
    mats = [[[real(x) for x in row] for row in k] for k in basis]
    m = len(mats)
    n = len(mats[0])
    inner = [[sum(mats[a][i][j] * mats[b][i][j] for i in range(n) for j in range(n))
              for b in range(m)] for a in range(m)]
    tracef = [[sum(mats[a][i][j] * mats[b][j][i] for i in range(n) for j in range(n))
               for b in range(m)] for a in range(m)]
    det_tr = mat_det(tracef)
    if det_tr == 0:
        raise ValueError("trace Gram is singular for this basis")
    ratio = mat_det(inner) / abs(det_tr)
    try:
        return float(ratio)
    except OverflowError:
        raise ValueError(f"Archimedean discriminant of about 10^{log_abs(ratio) / math.log(10):.0f}"
                         " is beyond the float range") from None


def arch_disc(k) -> float:
    """Archimedean discriminant of the algebra generated by a traceless k,
    read exactly by `ratlinalg.real`: its basis of powers of k is exact,
    and only the ratio of `arch_disc_from_basis` is rounded."""
    n = len(k)
    k = [[real(x) for x in row] for row in k]
    if sum(k[i][i] for i in range(n)) != 0:
        raise ValueError("generator must be traceless")
    basis = [[[int(i == j) for j in range(n)] for i in range(n)], k]
    while len(basis) < n:  # centralizer algebra has dimension n for regular k
        basis.append(mat_mul(basis[-1], k))
    return arch_disc_from_basis(basis)


# ---------------------------------------------------------------------------
# Galois classification


def classify_galois_type(tower: FieldTower) -> str:
    """biquadratic / cyclic / dihedral by the square class of Nr(delta)
    (numfield.norm_square_class).  Raises ArithmeticError when galois_hint
    names another type."""
    if tower.degree != 4:
        raise ValueError("quartic tower required")
    gtype, _ = norm_square_class(tower.delta)
    if tower.galois_hint is not None and tower.galois_hint != gtype:
        raise ArithmeticError("construction metadata contradicts classification")
    return gtype


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
    # decomposition D_rel = W^2 d with d > 1 squarefree, so none for a square
    kern = squarefree_kernel(d_rel)
    decomposition = ({"W": math.isqrt(d_rel // kern), "d": kern, "form": "W^2*d"}
                     if kern > 1 else None)
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
    hypothesis tau <= (log disc - log(c D_F)) / (2h) checked and flagged.
    The value and its two terms are reported beside their logs, and as
    None where they lie beyond the float range; a term whose float formula
    fails on the way (vol^2 below the normal floats, vol^2 or disc^(1+eps)
    above them) is read from its log."""
    if disc <= 0 or vol <= 0 or h <= 0 or tau < 0:
        raise ValueError("positive disc, vol, h and nonnegative tau required")
    if c <= 0:
        raise ValueError("c must be positive")
    if D_F <= 0:
        raise ValueError("D_F must be positive")
    log_vol = math.log(vol)
    logs = {"volume": 0.0 - log_vol,  # not -0.0 at vol = 1
            "disc": (1.0 + eps) * math.log(disc) - 2.0 * log_vol - 2.0 * tau * h}
    terms = {"volume": 1.0 / vol, "disc": math.inf}
    try:
        square = vol ** 2
        if square >= sys.float_info.min:  # else vol^2 has lost bits or is 0
            terms["disc"] = disc ** (1.0 + eps) / square * math.exp(-2.0 * tau * h)
    except OverflowError:  # vol^2 or disc^(1 + eps) beyond the float range
        pass
    for name, x in terms.items():
        if math.isinf(x):
            terms[name] = math.exp(logs[name]) if logs[name] < _LOG_FLOAT_MAX else None
    value = None if None in terms.values() else terms["volume"] + terms["disc"]
    lo, hi = sorted(logs.values())
    tau_max = (math.log(disc) - math.log(c * D_F)) / (2.0 * h)
    in_hyp = tau <= tau_max
    return {
        "value": None if value is None or math.isinf(value) else value,
        "log_value": hi + math.log1p(math.exp(lo - hi)),
        "terms": terms,
        "log_terms": logs,
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
    # disc_u holds exactly the places whose local discriminant is a non-unit
    b = sum(p != 2 for p in data["disc_u"])
    tau_d = divisor_count(disc_fin) if disc_fin != 0 else 0
    return {"b": b, "2^b": 2 ** b, "divisor_count": tau_d,
            "disc_fin": disc_fin, "pass": 2 ** b <= tau_d}

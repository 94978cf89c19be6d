"""Homogeneous toral sets: discriminants, Galois types, and the closed-form
right-hand side of the uniform basic lemma.

A descriptor bundles a field tower (the torus), a finite map of local
conductors (empty = maximal type), and optionally a traceless generator
of the Archimedean torus algebra.  Finite-place discriminants are exact
integers; the Archimedean one is the Gram-determinant ratio.

The local discriminant at p is p^e_p, e_p = v_p(D) + k v_p(f_p), from the
one factorization of the relative discriminant D (D = D_K, k = 2 over Q;
D = D_K / D_F^2, k = 4 over a quadratic F): a conductor f scales the
order's discriminant by f^2 (|Nr(f omega - conj(f omega))| = f^2 |D_K|),
whose norm from F is f^4.  No product is factored again.

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

from .intarith import factorize, is_prime, log_abs, squarefree_kernel, valuation
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


def _local_exponents(tower: FieldTower, conductors=()) -> dict[int, int]:
    """{p: e_p}, the local discriminant at p being p^e_p with
    e_p = v_p(D) + k v_p(f_p), over the primes of the relative discriminant
    D and of the conductors (e_p may be 0): D = D_K with k = 2 over Q, and
    D = D_K / D_F^2 with k = 4 over a quadratic F."""
    if tower.base is None:
        exps, k = factorize(quad_field_of_square(tower.delta).disc), 2
    else:
        if tower.declared_DK is None:
            raise ValueError("quartic descriptor needs a certified maximal order")
        d_rel, rem = divmod(abs(tower.declared_DK), tower.base.disc ** 2)
        if rem:
            raise ArithmeticError("declared D_K not divisible by D_F^2")
        exps, k = factorize(d_rel), 4
    for p, f in conductors:
        exps[p] = exps.get(p, 0) + k * valuation(f, p)
    return exps


def nonarch_and_global_disc(desc: ToralSetDescriptor) -> dict:
    """Per-prime local discriminants, their product disc_fin, and the global
    discriminant including the Archimedean factor when a generator is set."""
    exps = _local_exponents(desc.tower, desc.local_conductors)
    table = {p: p ** exps[p] for p in sorted(exps) if exps[p]}
    disc_fin = math.prod(table.values())
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
    exps = _local_exponents(tower)
    # decomposition D_rel = W^2 d with d > 1 squarefree, so none for a square
    W = d = 1
    for p, e in exps.items():
        W, d = W * p ** (e // 2), d * p ** (e % 2)
    d_rel = W * W * d
    D_F = tower.base.disc
    return {
        "D_K": abs(tower.declared_DK),
        "D_F": D_F,
        "D_rel": d_rel,
        "pass": 4 * d_rel >= D_F,
        "decomposition": {"W": W, "d": d, "form": "W^2*d"} if d > 1 else None,
    }


# ---------------------------------------------------------------------------
# the basic-lemma right-hand side


def _rhs_report(formulas: dict, logs: dict) -> dict:
    """The value and the terms beside their logs: each term by its float
    formula, or from its log where the formula overflows or is not finite,
    and None beyond the float range, as is the value."""
    terms = {}
    for name, formula in formulas.items():
        try:
            x = formula()
        except (OverflowError, ZeroDivisionError):  # a power beyond the float range
            x = math.inf
        if not math.isfinite(x):
            x = math.exp(logs[name]) if logs[name] < _LOG_FLOAT_MAX else None
        terms[name] = x
    value = None if None in terms.values() else terms["volume"] + terms["disc"]
    lo, hi = sorted(logs.values())
    return {"value": None if value is None or math.isinf(value) else value,
            "log_value": hi + math.log1p(math.exp(lo - hi)),
            "terms": terms, "log_terms": logs}


def linnik_rhs(disc: float, vol: float, tau: float, h: float, eps: float,
               c=1, D_F: float = 1.0) -> dict:
    """1/vol + disc^(1+eps)/vol^2 * e^(-2 tau h), with the theorem's
    hypothesis tau <= (log disc - log(c D_F)) / (2h) checked and flagged,
    log disc and log(c D_F) the `log_abs` of the exact numbers.  The value
    and its two terms are reported beside their logs, and as None where
    they lie beyond the float range; a term whose float formula fails on
    the way (vol^2 or disc below the normal floats, vol^2 or disc^(1+eps)
    above them) is read from its log."""
    if disc <= 0 or vol <= 0 or h <= 0 or tau < 0:
        raise ValueError("positive disc, vol, h and nonnegative tau required")
    if c <= 0:
        raise ValueError("c must be positive")
    if D_F <= 0:
        raise ValueError("D_F must be positive")
    log_vol = math.log(vol)
    logs = {"volume": 0.0 - log_vol,  # not -0.0 at vol = 1
            "disc": (1.0 + eps) * log_abs(disc) - 2.0 * log_vol - 2.0 * tau * h}
    report = _rhs_report({
        "volume": lambda: 1.0 / vol,
        # below the normal floats vol^2 and float(disc) have lost bits or are 0
        "disc": lambda: (disc ** (1.0 + eps) / vol ** 2 * math.exp(-2.0 * tau * h)
                         if min(vol ** 2, disc) >= sys.float_info.min else math.inf)}, logs)
    tau_max = (log_abs(disc) - log_abs(Fraction(c) * Fraction(D_F))) / (2.0 * h)
    in_hyp = tau <= tau_max
    return {**report, "tau_max": tau_max, "in_hypothesis": in_hyp,
            "status": "ok" if in_hyp else "out_of_hypothesis"}


def linnik_rhs_special(disc: float, D_F: float, tau: float, h: float,
                       eps: float) -> dict:
    """Maximal-type shape disc^(-1/2+eps) + D_F^(-2) disc^eps e^(-2 tau h)
    (volume replaced by the disc^(1/2) proxy; the o(1) exponent is carried
    by eps and reported, not bounded), reported as `linnik_rhs` reports,
    with the logs of disc and D_F `log_abs` of the exact numbers."""
    if disc <= 0 or D_F <= 0 or h <= 0 or tau < 0:
        raise ValueError("positive inputs required")
    log_disc = log_abs(disc)
    logs = {"volume": (-0.5 + eps) * log_disc,
            "disc": eps * log_disc - 2.0 * log_abs(D_F) - 2.0 * tau * h}
    # below the normal floats float(disc) has lost bits or is 0
    normal = disc >= sys.float_info.min
    return _rhs_report({
        "volume": lambda: disc ** (-0.5 + eps) if normal else math.inf,
        "disc": lambda: (D_F ** (-2.0) * disc ** eps * math.exp(-2.0 * tau * h)
                         if normal else math.inf)}, logs)


# ---------------------------------------------------------------------------
# divisor-count bound


def divisor_bound_check(desc: ToralSetDescriptor) -> dict:
    """2^b <= tau(disc_fin) with b the number of non-dyadic finite places
    where the different's norm is a non-unit."""
    exps = _local_exponents(desc.tower, desc.local_conductors)
    b = sum(p != 2 and e > 0 for p, e in exps.items())
    tau_d = math.prod(e + 1 for e in exps.values())
    return {"b": b, "2^b": 2 ** b, "divisor_count": tau_d,
            "disc_fin": math.prod(p ** e for p, e in exps.items()),
            "pass": 2 ** b <= tau_d}

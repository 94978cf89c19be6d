"""Small exact integer and rational helpers shared across the package."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import index
from typing import Optional

from .ratlinalg import rational


TRIAL_LIMIT = 10 ** 6
_FLOAT_MIN, _FLOAT_MAX = Fraction(sys.float_info.min), Fraction(sys.float_info.max)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to TRIAL_LIMIT.

    Raises ValueError when the cofactor left exceeds TRIAL_LIMIT^2, since it
    may then be composite; any smaller cofactor is prime."""
    n = abs(index(n))
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > TRIAL_LIMIT:
            raise ValueError(f"cannot factor {n}: no prime factor up to "
                             f"{TRIAL_LIMIT}, and too large to be certified prime")
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    return index(n) != 0 and all(e == 1 for e in factorize(n).values())


def squarefree_kernel(n: int) -> int:
    """The squarefree integer s with n / s a square (sign of n kept)."""
    s = 1
    for p, k in factorize(n).items():
        if k % 2 == 1:
            s *= p
    return s if index(n) > 0 else -s


def exact_isqrt(n: int) -> Optional[int]:
    """The r >= 0 with r * r = n, or None when n is not a square; one
    `math.isqrt`."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_square_fraction(x: Fraction | int) -> bool:
    x = rational(x)
    return x >= 0 and exact_isqrt(x.numerator) is not None \
        and exact_isqrt(x.denominator) is not None


def log_abs(x: Fraction | int) -> float:
    """log |x| for a nonzero rational x: the log of float(|x|) where that is
    a normal float, and the log of the numerator less the log of the
    denominator elsewhere, where float(x) would underflow or overflow."""
    n, d = x.as_integer_ratio()
    n = abs(n)
    e = n.bit_length() - d.bit_length()  # 2^(e-1) < |x| < 2^(e+1)
    if -1021 <= e <= 1022 or _FLOAT_MIN <= Fraction(n, d) <= _FLOAT_MAX:
        return math.log(n / d)  # int / int rounds as float(x) does
    return math.log(n) - math.log(d)


def is_prime(n: int) -> bool:
    return index(n) >= 2 and factorize(n) == {n: 1}


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p by Tonelli-Shanks (Cohen,
    GTM 138, Algorithm 1.5.1); ValueError unless a is a square mod p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    # z a non-square: c = z^q generates the 2-Sylow subgroup
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a*t, and the order 2^i of t falls every step
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def valuation(x: Fraction | int, p: int) -> int:
    """The exponent of p in a nonzero rational, for an integer p >= 2."""
    if p < 2:
        raise ValueError(f"valuation at {p}: need an integer of at least 2")
    if not isinstance(x, (int, Fraction)):
        x = rational(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined (infinite)")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def divisor_count(n: int) -> int:
    n = abs(n)
    out = 1
    for e in factorize(n).values():
        out *= e + 1
    return out


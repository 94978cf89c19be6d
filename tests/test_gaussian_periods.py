"""Gaussian-period data: pinned values, input checks, exact identities
inside the quartic field, held as its own Galois closure, the tower's
derived data against the normal-basis construction of eta_0, and the
closed form of delta against the table of cyclotomic numbers."""

from fractions import Fraction as Q

import pytest
from conftest import gauss_jordan, within_seconds

from alk.git4 import regular_embedding
from alk.intarith import exact_isqrt, factorize, is_prime
from alk.nfpoly import gaussian_period_delta
from alk.quartics import gaussian_period_tower
from alk.toralsets import classify_galois_type, make_descriptor, nonarch_and_global_disc

PRIMES = tuple(p for p in range(5, 1000, 4) if factorize(p) == {p: 1})


def test_period_data_is_pinned():
    # printed by the Z[zeta_p] construction the normal basis replaced
    for p, mp, sqrtp, delta in (
            (5, (Q(1), Q(1), Q(1), Q(1), Q(1)), (Q(-1), Q(0), Q(-2), Q(-2)),
             (Q(-5, 2), Q(-1, 2))),
            (13, (Q(3), Q(-4), Q(2), Q(1), Q(1)), (Q(3), Q(2, 3), Q(0), Q(-2, 3)),
             (Q(-13, 2), Q(3, 2)))):
        assert tuple(Q(x, 2) for x in gaussian_period_delta(p)) == delta
        tower = gaussian_period_tower(p)
        assert tower.theta_min_poly == mp and tower.sqrt_d_coords == sqrtp
        assert 4 * tower.delta == tower.base.elem(*delta)
        assert all(type(c) is Q for c in tower.theta_min_poly + tower.sqrt_d_coords + delta)


@pytest.mark.parametrize("p", (-3, 0, 1, 2, 3, 7, 9, 21, 25, 45))
def test_rejects_p_that_is_not_a_prime_one_mod_four(p):
    with pytest.raises(ValueError, match=rf"prime = 1 mod 4, got p = {p}$"):
        gaussian_period_delta(p)


@pytest.mark.parametrize("p", PRIMES)
def test_period_data_satisfies_exact_field_identities(p):
    tower = gaussian_period_tower(p)
    assert tower.theta_min_poly[4] == 1
    # K is its own Galois closure L, held in Kummer coordinates; tau, the
    # automorphism of slot 2 of the root order alpha +- u, conj(alpha) +- v,
    # sends eta_0 to eta_1 or eta_3
    emb = regular_embedding(tower)
    tau = emb.automorphisms[2]
    theta = emb.g[1][0]
    images = [theta]
    for _ in range(4):
        images.append(tau(images[-1]))
    # tau has order 4: theta, tau theta, tau^2 theta are distinct, tau^4 = id
    assert images[1] != theta and images[2] != theta and images[4] == theta
    sqrtp = sum(c * theta ** i for i, c in enumerate(tower.sqrt_d_coords))
    assert sqrtp * sqrtp == p and sqrtp == emb.closure.elem([0, 1])
    u, v = (Q(x, 2) for x in gaussian_period_delta(p))
    diff = theta - images[2]
    assert diff * diff == u + v * sqrtp


def _cyclotomic_mul(p):
    """The product of K on its normal basis eta_0..eta_3, from a table of
    cyclotomic numbers built in O(p) steps.

    eta_j sums zeta^x over C_j = {g^(4k+j)} for a primitive root g.  For x
    in C_0 and z in C_j, x z runs over C_j, so eta_0 eta_j = sum_{z in C_j}
    sum_{x in C_0} zeta^(x (1 + z)): eta_t for 1 + z in C_t, and (p-1)/4
    copies of 1 = -(eta_0 + ... + eta_3) for z = -1.  tau: eta_j -> eta_(j+1)
    gives eta_a eta_b = tau^a(eta_0 eta_(b-a)) (Berndt-Evans-Williams, Gauss
    and Jacobi Sums, ch. 2)."""
    fac = factorize(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in fac))
    m = (p - 1) // 4
    cls = [0] * p  # x in C_cls[x] for 0 < x < p
    x = 1
    for k in range(p - 1):
        cls[x] = k % 4
        x = x * g % p
    eta0_eta = [[-m * (cls[p - 1] == j)] * 4 for j in range(4)]
    for z in range(1, p - 1):
        eta0_eta[cls[z]][cls[z + 1]] += 1

    def mul(u, v):
        out = [0] * 4
        for a in range(4):
            for b in range(4):
                for t in range(4):
                    out[(t + a) % 4] += u[a] * v[b] * eta0_eta[(b - a) % 4][t]
        return out

    return mul


def _cyclotomic_delta(p):
    """delta = (eta_0 - eta_2)^2 as (rational part, sqrt(p) coefficient),
    by the table: the square (a, b, a, b) is fixed by tau^2, and
    eta_0 + eta_2 = (-1 + sqrt p)/2, eta_1 + eta_3 = (-1 - sqrt p)/2."""
    a, b, a2, b2 = _cyclotomic_mul(p)([1, 0, -1, 0], [1, 0, -1, 0])
    assert (a2, b2) == (a, b)
    return Q(-(a + b), 2), Q(a - b, 2)


def _normal_basis_oracle(p):
    """(min_poly, sqrt(p) coordinates) of eta_0 on the normal basis
    eta_0..eta_3: the powers of eta_0 in normal coordinates, one 4x4
    inverse to the power basis, and the Gauss sum
    sqrt(p) = eta_0 - eta_1 + eta_2 - eta_3."""
    mul = _cyclotomic_mul(p)
    powers = [[-1] * 4, [1, 0, 0, 0]]
    for _ in range(3):
        powers.append(mul(powers[-1], powers[1]))
    inv = gauss_jordan([[Q(powers[j][i]) for j in range(4)] for i in range(4)])[1]

    def to_power_basis(v):
        return tuple(sum(r * x for r, x in zip(row, v)) for row in inv)

    return (tuple(-c for c in to_power_basis(powers[4])) + (Q(1),),
            to_power_basis([1, -1, 1, -1]))


@pytest.mark.parametrize("p", PRIMES)
def test_derived_tower_data_equals_the_normal_basis_construction(p):
    tower = gaussian_period_tower(p)
    assert (tower.theta_min_poly, tower.sqrt_d_coords) == _normal_basis_oracle(p)


def test_closed_form_equals_the_cyclotomic_table_below_twenty_thousand():
    # every prime p = 1 mod 4 below 2 * 10^4, 1,125 of them
    primes = [p for p in range(5, 20000, 4) if is_prime(p)]
    assert len(primes) == 1125
    for p in primes:
        A, B = gaussian_period_delta(p)
        assert (Q(A, 2), Q(B, 2)) == _cyclotomic_delta(p), p
        # A = +-p, and B = -a for p = a^2 + b^2 with a = 1 mod 4
        assert abs(A) == p and B % 4 == 3 and exact_isqrt(p - B * B) is not None, p
        delta = gaussian_period_tower(p).delta
        assert (delta.num, delta.den) == ((A, B), 8), p


@pytest.mark.parametrize("p", (1000033, 10 ** 9 + 9, 10 ** 12 + 61))
def test_towers_at_large_primes_are_built_in_closed_form(p):
    # no step is O(p): Cornacchia's Euclid is O(log p) steps; the trial
    # division of is_prime is the largest cost left
    tower = within_seconds(10, lambda: gaussian_period_tower(p))
    assert within_seconds(10, lambda: classify_galois_type(tower)) == "cyclic"
    disc = within_seconds(10, lambda: nonarch_and_global_disc(make_descriptor(tower)))
    assert disc["disc_fin"] == p and disc["disc_u"] == {p: p}

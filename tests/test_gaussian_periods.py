"""Gaussian-period data: pinned values, input checks, exact identities
inside the quartic field, held as its own Galois closure, and the tower's
derived data against the normal-basis construction of eta_0."""

from fractions import Fraction as Q

import pytest
from conftest import gauss_jordan

from alk.git4 import regular_embedding
from alk.intarith import factorize
from alk.nfpoly import gaussian_period_quartic
from alk.quartics import gaussian_period_tower

PRIMES = tuple(p for p in range(5, 1000, 4) if factorize(p) == {p: 1})


def test_period_data_is_pinned():
    # printed by the Z[zeta_p] construction the normal basis replaced
    for p, mp, sqrtp, delta in (
            (5, (Q(1), Q(1), Q(1), Q(1), Q(1)), (Q(-1), Q(0), Q(-2), Q(-2)),
             (Q(-5, 2), Q(-1, 2))),
            (13, (Q(3), Q(-4), Q(2), Q(1), Q(1)), (Q(3), Q(2, 3), Q(0), Q(-2, 3)),
             (Q(-13, 2), Q(3, 2)))):
        assert gaussian_period_quartic(p) == {"p": p, "delta": delta}
        tower = gaussian_period_tower(p)
        assert tower.theta_min_poly == mp and tower.sqrt_d_coords == sqrtp
        assert 4 * tower.delta == tower.base.elem(*delta)
        assert all(type(c) is Q for c in tower.theta_min_poly + tower.sqrt_d_coords + delta)


@pytest.mark.parametrize("p", (-3, 0, 1, 2, 3, 7, 9, 21, 25, 45))
def test_rejects_p_that_is_not_a_prime_one_mod_four(p):
    with pytest.raises(ValueError, match=rf"prime = 1 mod 4, got p = {p}$"):
        gaussian_period_quartic(p)


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
    u, v = gaussian_period_quartic(p)["delta"]
    diff = theta - images[2]
    assert diff * diff == u + v * sqrtp


def _normal_basis_oracle(p):
    """(min_poly, sqrt(p) coordinates) of eta_0 on the normal basis
    eta_0..eta_3: the powers of eta_0 in normal coordinates, one 4x4
    inverse to the power basis, and the Gauss sum
    sqrt(p) = eta_0 - eta_1 + eta_2 - eta_3.

    eta_j sums zeta^x over C_j = {g^(4k+j)}.  For x in C_0 and z in C_j,
    x z runs over C_j, so eta_0 eta_j = sum_{z in C_j} sum_{x in C_0}
    zeta^(x (1 + z)): eta_t for 1 + z in C_t, and (p-1)/4 copies of
    1 = -(eta_0 + ... + eta_3) for z = -1.  tau: eta_j -> eta_(j+1) gives
    eta_a eta_b = tau^a(eta_0 eta_(b-a))."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in factorize(p - 1)))
    cls = {pow(g, k, p): k % 4 for k in range(p - 1)}
    m = (p - 1) // 4
    eta0_eta = [[0] * 4 for _ in range(4)]
    for z, j in cls.items():
        if z == p - 1:
            eta0_eta[j] = [c - m for c in eta0_eta[j]]
        else:
            eta0_eta[j][cls[z + 1]] += 1

    def mul(u, v):
        out = [0] * 4
        for a in range(4):
            for b in range(4):
                for t in range(4):
                    out[(t + a) % 4] += u[a] * v[b] * eta0_eta[(b - a) % 4][t]
        return out

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

"""Gaussian-period data: pinned values, input checks and exact identities
inside the quartic field NumberField(min_poly)."""

from fractions import Fraction as Q

import pytest

from alk.git4 import regular_embedding
from alk.intarith import factorize
from alk.nfpoly import NumberField, gaussian_period_quartic
from alk.quartics import gaussian_period_tower

PRIMES = tuple(p for p in range(5, 1000, 4) if factorize(p) == {p: 1})


def test_period_data_is_pinned():
    # printed by the Z[zeta_p] construction this one replaced
    assert gaussian_period_quartic(5) == {
        "p": 5, "min_poly": (Q(1), Q(1), Q(1), Q(1), Q(1)),
        "sqrtp_coords": (Q(-1), Q(0), Q(-2), Q(-2)), "delta": (Q(-5, 2), Q(-1, 2))}
    assert gaussian_period_quartic(13) == {
        "p": 13, "min_poly": (Q(3), Q(-4), Q(2), Q(1), Q(1)),
        "sqrtp_coords": (Q(3), Q(2, 3), Q(0), Q(-2, 3)), "delta": (Q(-13, 2), Q(3, 2))}
    data = gaussian_period_quartic(13)
    assert all(type(c) is Q for k in ("min_poly", "sqrtp_coords", "delta")
               for c in data[k])


@pytest.mark.parametrize("p", (-3, 0, 1, 2, 3, 7, 9, 21, 25, 45))
def test_rejects_p_that_is_not_a_prime_one_mod_four(p):
    with pytest.raises(ValueError, match=rf"prime = 1 mod 4, got p = {p}$"):
        gaussian_period_quartic(p)


@pytest.mark.parametrize("p", PRIMES)
def test_period_data_satisfies_exact_field_identities(p):
    data = gaussian_period_quartic(p)
    assert data["p"] == p and data["min_poly"][4] == 1
    K = NumberField(data["min_poly"])
    # slot 2 of the root order alpha +- u, conj(alpha) +- v is eta_1 or eta_3
    tau = regular_embedding(gaussian_period_tower(p)).automorphisms[2]
    theta = K.gen
    images = [theta]
    for _ in range(4):
        images.append(tau(images[-1]))
    # tau has order 4: theta, tau theta, tau^2 theta are distinct, tau^4 = id
    assert images[1] != theta and images[2] != theta and images[4] == theta
    sqrtp = K.elem(data["sqrtp_coords"])
    assert sqrtp * sqrtp == p
    u, v = data["delta"]
    diff = theta - images[2]
    assert diff * diff == u + v * sqrtp

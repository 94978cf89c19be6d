"""Gaussian-period data: solver errors, input checks and exact identities
inside the quartic field NumberField(min_poly)."""

from fractions import Fraction

import pytest

from alk.nfpoly import Cyclotomic, NumberField, _solve_in_power_basis, gaussian_period_quartic

PRIMES = (13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


def test_solver_returns_exact_coordinates():
    cyc = Cyclotomic(13)
    one, z = cyc.monomial(0), cyc.monomial(1)
    target = cyc.add(cyc.scal(3, one), cyc.scal(-2, z))
    sol = _solve_in_power_basis(cyc, [one, z], target)
    assert sol == [3, -2] and all(type(c) is Fraction for c in sol)


def test_solver_rejects_a_rank_deficient_basis():
    cyc = Cyclotomic(13)
    z = cyc.monomial(1)
    basis = [cyc.monomial(0), z, cyc.scal(2, z)]
    with pytest.raises(ArithmeticError, match="power basis is degenerate"):
        _solve_in_power_basis(cyc, basis, z)


def test_solver_rejects_a_target_outside_the_span():
    cyc = Cyclotomic(13)
    with pytest.raises(ArithmeticError, match="target not in the span"):
        _solve_in_power_basis(cyc, [cyc.monomial(0), cyc.monomial(1)], cyc.monomial(2))


@pytest.mark.parametrize("p", (-3, 0, 1, 2, 3, 7, 9, 21, 25, 45))
def test_rejects_p_that_is_not_a_prime_one_mod_four(p):
    with pytest.raises(ValueError, match=rf"prime = 1 mod 4, got p = {p}$"):
        gaussian_period_quartic(p)


@pytest.mark.parametrize("p", PRIMES)
def test_period_data_satisfies_exact_field_identities(p):
    data = gaussian_period_quartic(p)
    assert data["p"] == p and data["min_poly"][4] == 1
    K = NumberField(data["min_poly"])
    theta, tau = K.gen, data["tau_poly"]
    images = [theta]
    for _ in range(4):
        images.append(images[-1].apply_conj(tau))
    # tau has order 4: theta, tau theta, tau^2 theta are distinct, tau^4 = id
    assert images[1] != theta and images[2] != theta and images[4] == theta
    sqrtp = K.elem(data["sqrtp_coords"])
    assert sqrtp * sqrtp == p
    u, v = data["delta"]
    diff = theta - images[2]
    assert diff * diff == u + v * sqrtp

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from alk import quartics
from alk.intarith import is_square_fraction
from alk.toralsets import classify_galois_type
from conftest import (
    PowerBasisField,
    power_basis_trace_disc,
    random_alpha_tower,
    random_tower,
    within_seconds,
)


def test_cyclotomic_tower_presentation():
    tower = quartics.zeta5_tower()
    assert tower.base.d == 5
    assert tower.theta_min_poly == (Fraction(5), Fraction(0), Fraction(5),
                                    Fraction(0), Fraction(1))
    assert tower.declared_DK == 125
    assert classify_galois_type(tower) == "cyclic"


def test_conductor_sixteen_tower():
    tower = quartics.sqrt2plus_tower()
    assert tower.base.d == 2
    assert tower.declared_DK == 2048
    assert classify_galois_type(tower) == "cyclic"


def test_biquadratic_tower_classification_and_disc():
    tower = quartics.biquadratic_tower(2, 3)
    assert classify_galois_type(tower) == "biquadratic"
    # power basis discriminant differs from the field one by a square
    ratio = Fraction(power_basis_trace_disc(tower), tower.declared_DK)
    assert ratio > 0 and is_square_fraction(ratio)


def test_dihedral_tower_classification():
    tower = quartics.dihedral_tower(2, 1, 1)
    assert classify_galois_type(tower) == "dihedral"
    assert tower.alpha == 0


def test_biquadratic_rejects_equal_radicands():
    with pytest.raises(ValueError):
        quartics.biquadratic_tower(2, 2)


def test_sqrt_d_coordinates_square_to_d():
    for tower in (quartics.zeta5_tower(), quartics.sqrt2plus_tower(),
                  quartics.biquadratic_tower(5, 3),
                  quartics.gaussian_period_tower(13)):
        K = PowerBasisField(tower.theta_min_poly)
        sd = K.elem(tower.sqrt_d_coords)
        assert sd * sd == Fraction(tower.base.d)


def test_gaussian_period_towers_are_cyclic_with_cube_discriminant():
    for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        tower = quartics.gaussian_period_tower(p)
        assert tower.base.d == p
        assert tower.declared_DK == p ** 3
        assert classify_galois_type(tower) == "cyclic"
        ratio = Fraction(power_basis_trace_disc(tower), p ** 3)
        assert ratio > 0 and is_square_fraction(ratio)


def test_closed_form_disc_equals_the_trace_form_of_the_power_basis():
    """16 Nr(delta) X^2 against det(Tr(theta^(i+k))) in the reference field
    of theta_min_poly, on the curated towers and on seeded towers of every
    Galois type, with alpha = 0, sqrt(d) or a fractional alpha."""
    towers = [quartics.zeta5_tower(), quartics.sqrt2plus_tower(),
              quartics.biquadratic_tower(2, 3), quartics.biquadratic_tower(-7, 2),
              quartics.dihedral_tower(2, 1, 1), quartics.dihedral_tower(3, Fraction(1, 2), 3)]
    towers += [quartics.gaussian_period_tower(p) for p in (13, 17, 29, 37, 41, 53)]
    rng = random.Random(2202)
    for make in (random_tower, random_alpha_tower):
        towers += [t for t in (make(rng) for _ in range(250)) if t is not None]
    types = {classify_galois_type(t) for t in towers}
    assert len(towers) >= 300 and types == {"biquadratic", "cyclic", "dihedral"}
    assert any(t.alpha.b != 0 and t.alpha.a.denominator != 1 for t in towers)
    for tower in towers:
        assert quartics.power_basis_disc(tower) == power_basis_trace_disc(tower), tower


def test_gaussian_tower_at_a_five_digit_prime_is_built_and_classified_fast():
    # delta is read in closed form from p = a^2 + b^2, so p = 10009 takes milliseconds
    tower = within_seconds(5, lambda: quartics.gaussian_period_tower(10009))
    assert within_seconds(5, lambda: classify_galois_type(tower)) == "cyclic"
    assert tower.base.d == 10009 and tower.declared_DK == 10009 ** 3


def test_conjugation_polynomials_generate_order_four():
    from alk.git4 import perm_compose, regular_embedding

    image = regular_embedding(quartics.gaussian_period_tower(13)).galois_image
    gen = image[2]  # the tau slot of the (id, tau^2, tau, tau^3) ordering
    g2 = perm_compose(gen, gen)
    g4 = perm_compose(g2, g2)
    assert g2 != (0, 1, 2, 3) and g4 == (0, 1, 2, 3)


NO_SYMPY_SCRIPT = """
import json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from alk.cli import tower_from_json
from alk.git4 import regular_embedding
from alk.toralsets import (classify_galois_type, cyclic_disc_check, make_descriptor,
                           nonarch_and_global_disc)

def outcome(fn, tower):
    try:
        return fn(tower)
    except ValueError as exc:
        return "ValueError: " + str(exc)

out = {}
for spec in sys.argv[1:]:
    tower = tower_from_json(spec)
    gtype = outcome(classify_galois_type, tower)
    disc = outcome(lambda t: nonarch_and_global_disc(make_descriptor(t))["disc_fin"], tower)
    closure = outcome(lambda t: regular_embedding(t).closure.degree, tower)
    rel = outcome(lambda t: cyclic_disc_check(t)["D_rel"], tower) if gtype == "cyclic" else None
    out[spec] = [gtype, disc, closure, rel]
assert sys.modules["sympy"] is None
assert not [m for m in sys.modules if m.startswith("sympy.")]
print(json.dumps(out))
"""

QUARTIC = "ValueError: quartic tower required"
# every kind the CLI accepts: Galois type, disc_fin, Galois closure degree, D_rel
NO_SYMPY_EXPECTED = {
    '{"kind": "zeta5"}': ["cyclic", 5, 4, 5],
    '{"kind": "sqrt2plus"}': ["cyclic", 32, 4, 32],
    '{"kind": "biquadratic", "d": 2, "e": 3}': ["biquadratic", 36, 4, None],
    '{"kind": "dihedral", "d": 2, "a": 1, "b": 1}':
        ["dihedral", "ValueError: quartic descriptor needs a certified maximal order",
         8, None],
    '{"kind": "gaussian", "p": 13}': ["cyclic", 13, 4, 13],
    '{"kind": "quadratic", "delta": 5}': [QUARTIC, 5, QUARTIC, None],
}


def test_towers_run_without_sympy():
    # the child imports alk from the same place as this process
    src = os.path.dirname(os.path.dirname(quartics.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, *NO_SYMPY_EXPECTED],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == NO_SYMPY_EXPECTED

import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alk import enumeration, quartics
from alk.arakelov import euclidean_lattice
from alk.cli import main
from alk.intarith import sqrt_fraction
from conftest import PowerBasisField, eta_closure, within_seconds


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    return code, out


def run_cli_err(capsys, argv):
    """Like run_cli, but returns stderr instead of stdout."""
    code = main(argv)
    return code, capsys.readouterr().err


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out) if out.strip() else None


def test_theta_on_a_gram_matrix(capsys):
    code, data = run_json(capsys, ["theta", "--gram", "[[1]]"])
    assert code == 0
    rep = data["report"]
    assert abs(rep["h0"] - rep["h1"] - rep["adeg"]) < 1e-9


def test_theta_canonical_bundle(capsys):
    code, data = run_json(capsys, ["theta", "--field", '{"d": 5}', "--canonical"])
    assert code == 0
    import math

    assert abs(data["report"]["adeg"] - math.log(5)) < 1e-9


def test_count_box_ok_and_violation_exit_codes(capsys):
    code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}',
                                   "--rinf", "[2]", "--c", "1/2"])
    assert code == 0 and data["count"] == 9
    code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}',
                                   "--rinf", "[1]", "--c", "10"])
    assert code == 2
    assert data["status"] == "hypothesis_violated"


def test_count_box_at_a_tiny_c_prints_null_beyond_the_float_range(capsys):
    # each exited 1: an infinite bound is not valid JSON, exp overflowed at
    # 1e-320, and float(c) = 0 has no log at 1e-400
    for c, nulls in (("1/2", set()), ("1e-305", {"bound"}), ("1e-320", {"C", "bound"}),
                     ("1e-400", {"C", "bound"})):
        code, data = run_json(capsys, ["count-box", "--field", '{"d": 5}',
                                       "--rinf", "[3, 3]", "--c", c])
        assert code == 0 and data["passed"] is True and data["count"] == 17, c
        assert {k for k in ("C", "bound") if data[k] is None} == nulls, c


def test_count_box_with_finite_radii(capsys):
    code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}',
                                   "--rinf", "[2]", "--rfin", '{"5": [5, 1]}'])
    assert code == 0 and data["count"] == 37


def test_count_box_at_a_large_split_prime_answers(capsys):
    # the root of omega's polynomial mod 10^9 + 9 was searched over range(p),
    # which ran for more than 20 s; exit 2 flags the hypothesis, and the
    # result is still printed
    code, data = within_seconds(5, lambda: run_json(capsys, [
        "count-box", "--field", '{"d": -1}', "--rinf", "1",
        "--rfin", '{"1000000009": [1, 1]}']))
    assert code == 2 and data["status"] == "hypothesis_violated" and data["count"] == 5


def test_count_box_at_the_24th_power_of_a_split_prime(capsys):
    # radius 7^-24 at the split place over 7 in Q(sqrt 2): the ideal P^24
    # (the CI call of the same box)
    code, data = within_seconds(5, lambda: run_json(capsys, [
        "count-box", "--field", '{"d": 2}', "--rinf", "[96889010407, 96889010407]",
        "--rfin", '{"7": ["1/191581231380566414401", 1]}']))
    assert code == 0 and data["status"] == "ok" and data["count"] == 67


def test_count_box_needs_one_finite_radius_per_place(capsys):
    # 3 is inert in Q(i) and 2 is one place of Q: a second radius was dropped;
    # 5 splits in Q(i), so a bare number leaves its second place unset
    for field, rinf, rfin in (('{"d": -1}', "[2]", '{"3": [9, 81]}'),
                              ("q", "[3]", '{"2": [2, 1024]}'),
                              ('{"d": -1}', "[2]", '{"5": 5}'),
                              ('{"d": -1}', "[2]", '{"5": [5]}')):
        code, err = run_cli_err(capsys, ["count-box", "--field", field, "--rinf", rinf,
                                         "--rfin", rfin])
        assert code == 1 and "place(s) over" in err, rfin
    code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}',
                                   "--rinf", "[2]", "--rfin", '{"3": [9]}'])
    assert code == 0 and data["norm"] == 18


def test_count_box_at_skewed_split_ideals(capsys):
    # x in P^12 over 5 in Q(i) with Nr(x) <= 5^12: 0 and the four unit
    # multiples of a generator.  x in P^16 over 2 in Q(sqrt 41) with
    # |sigma_1(x)| <= 2^16 and |sigma_2(x)| <= 1 (unequal radii): a nonzero
    # x has |Nr(x)| = 2^16, so sigma_2(x) = +-1 and x = +-1, not in P^16
    for field, rinf, rfin, want in (
            ('{"d": -1}', "[244140625]", '{"5": ["1/244140625", 1]}', 5),
            ('{"d": 41}', "[65536, 1]", '{"2": ["1/65536", 1]}', 1)):
        code, data = run_json(capsys, ["count-box", "--field", field, "--rinf", rinf,
                                       "--rfin", rfin])
        assert code == 2 and data["count"] == want, field


def test_local_two_by_two(capsys):
    code, data = run_json(capsys, ["local", "--d", "2", "--prime", "2",
                                   "--matrix", "[[1, 1], [0, 1]]"])
    assert code == 0
    assert data["psi"] == "-1/2"
    assert data["psi_bound"]["ok"]
    assert data["integrality"]["all"]


def test_local_four_by_four(capsys):
    ident = json.dumps([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    code, data = run_json(capsys, ["local", "--d", "5", "--prime", "5",
                                   "--matrix", ident])
    assert code == 0
    assert data["pattern_ok"] and data["A2_zero"]


@pytest.mark.parametrize("matrix", [
    "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]",
    "[[1,0,0,0],[0,1,0,0],[0,0,0,0],[0,0,0,0]]",
], ids=["zero", "rank2"])
def test_local_four_by_four_refuses_a_singular_matrix(capsys, matrix):
    # exited 0 and printed the block checks, while a singular 2x2 exits 1
    code, err = run_cli_err(capsys, ["local", "--d", "5", "--prime", "5", "--matrix", matrix])
    assert (code, err) == (1, "error: gamma must be invertible\n")
    code, err = run_cli_err(capsys, ["local", "--d", "5", "--prime", "5",
                                     "--matrix", "[[1, 1], [1, 1]]"])
    assert (code, err) == (1, "error: gamma must be invertible\n")


def test_invariants_identity(capsys):
    ident = json.dumps([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    code, data = run_json(capsys, ["invariants", "--tower", '{"kind": "zeta5"}',
                                   "--matrix", ident])
    assert code == 0
    assert data["galois_type"] == "cyclic"
    assert data["values"]["0123"] == 1
    assert data["values"]["1023"] == 0
    assert data["in_R"] and data["vanishing_on_special"]


def test_invariants_pins_non_rational_values(capsys):
    # a non-block matrix, so most Psi values lie outside Q and print as
    # coordinates on the Kummer basis of the closure
    code, data = run_json(capsys, ["invariants", "--tower", '{"kind": "zeta5"}',
                                   "--matrix", "[[1,1,0,0],[0,1,2,0],[0,0,1,0],[1,0,0,1]]"])
    assert code == 0
    assert data == {
        "basis": ["1", "sqrt(d)", "u", "sqrt(d)*u"],
        "d": 5,
        "galois_type": "cyclic",
        "in_R": False,
        "u^2": [-10, 2],
        "vanishing_on_special": False,
        "values": VALUES_ZETA5_NON_BLOCK,
    }
    # each value rebuilt from d, u^2 and the basis is the value pinned before
    old = PowerBasisField(quartics.zeta5_tower().theta_min_poly)
    for key, value in VALUES_ZETA5_NON_BLOCK.items():
        want = VALUES_ZETA5_THETA_BASIS[key]
        if isinstance(value, str):
            assert value == want
        else:
            assert _to_old_basis(quartics.zeta5_tower(), data, value, old.gen) == \
                old.elem([Fraction(x) for x in want])


VALUES_ZETA5_NON_BLOCK = {
    "0123": "3751/125",
    "0132": ["-246/125", "2/25", 0, 0],
    "0213": ["-5829/500", "-537/100", "-357/400", "-903/2000"],
    "0231": ["707/250", 0, 0, "-101/500"],
    "0312": ["-63/250", 0, 0, "9/500"],
    "0321": ["-5829/500", "537/100", "-273/400", "441/2000"],
    "1023": ["-246/125", "-2/25", 0, 0],
    "1032": "16/125",
    "1203": ["707/250", 0, "101/200", "101/1000"],
    "1230": ["-96/125", "-9/25", 0, 0],
    "1302": ["-96/125", "9/25", 0, 0],
    "1320": ["-63/250", 0, "9/200", "9/1000"],
    "2013": ["-63/250", 0, "-9/200", "-9/1000"],
    "2031": ["-96/125", "9/25", 0, 0],
    "2103": ["-5829/500", "537/100", "273/400", "-441/2000"],
    "2130": ["-63/250", 0, 0, "-9/500"],
    "2301": ["19341/2000", "-108/25", 0, 0],
    "2310": "-81/2000",
    "3012": ["-96/125", "-9/25", 0, 0],
    "3021": ["707/250", 0, "-101/200", "-101/1000"],
    "3102": ["707/250", 0, 0, "101/500"],
    "3120": ["-5829/500", "-537/100", "357/400", "903/2000"],
    "3201": "-10201/2000",
    "3210": ["19341/2000", "108/25", 0, 0],
}

# the same values as printed before the closure was held in Kummer
# coordinates: on the power basis of theta, a root of x^4 + 5x^2 + 5
VALUES_ZETA5_THETA_BASIS = {
    "0123": "3751/125",
    "0132": ["-196/125", 0, "4/25", 0],
    "0213": ["-9627/250", "-63/10", "-537/50", "-903/500"],
    "0231": ["707/250", "-101/50", 0, "-101/125"],
    "0312": ["-63/250", "9/50", 0, "9/125"],
    "0321": ["1899/125", "21/25", "537/50", "441/500"],
    "1023": ["-296/125", 0, "-4/25", 0],
    "1032": "16/125",
    "1203": ["707/250", "101/50", 0, "101/250"],
    "1230": ["-321/125", 0, "-18/25", 0],
    "1302": ["129/125", 0, "18/25", 0],
    "1320": ["-63/250", "9/50", 0, "9/250"],
    "2013": ["-63/250", "-9/50", 0, "-9/250"],
    "2031": ["129/125", 0, "18/25", 0],
    "2103": ["1899/125", "-21/25", "537/50", "-441/500"],
    "2130": ["-63/250", "-9/50", 0, "-9/125"],
    "2301": ["-23859/2000", 0, "-216/25", 0],
    "2310": "-81/2000",
    "3012": ["-321/125", 0, "-18/25", 0],
    "3021": ["707/250", "-101/50", 0, "-101/250"],
    "3102": ["707/250", "101/50", 0, "101/125"],
    "3120": ["-9627/250", "63/10", "-537/50", "903/500"],
    "3201": "-10201/2000",
    "3210": ["62541/2000", 0, "216/25", 0],
}


def _to_old_basis(tower, data, value, theta):
    """A printed value rebuilt from d, u^2 and the basis names in the field
    of theta, the root of theta_min_poly (abelian towers) or eta = u + 2v
    (dihedral ones) on whose power basis values were printed before:
    sqrt(d) is read from sqrt_d_coords or eta_closure, and u = c sqrt(delta),
    v = c sqrt(conj delta) with c^2 = u^2 / delta."""
    L = theta.field
    if len(data["basis"]) == 8:
        _, sqrt_d, u, v = eta_closure(tower)
    else:
        sqrt_d = L.elem(tower.sqrt_d_coords)
        u = theta - (sqrt_d * tower.alpha.b + tower.alpha.a)
        v = None
    u2 = [Fraction(x) for x in data["u^2"]]
    assert data["d"] == tower.base.d and u2[1] * tower.delta.a == u2[0] * tower.delta.b
    c = sqrt_fraction(u2[1] / tower.delta.b)
    gens = {"sqrt(d)": sqrt_d, "u": c * u, "v": None if v is None else c * v}
    total = L.elem(0)
    for name, x in zip(data["basis"], value):
        term = L.elem(Fraction(x))
        for g in name.split("*"):
            term = term * gens[g] if g != "1" else term
        total = total + term
    return total


def test_invariants_pins_the_dihedral_closure(capsys):
    # a dihedral tower's values lie in its degree-8 Galois closure and
    # print as coordinates on the basis {1, sqrt d} x {1, u, v, uv}
    code, data = run_json(capsys, ["invariants", "--tower",
                                   '{"kind": "dihedral", "d": 2, "a": 1, "b": 1}',
                                   "--matrix", "[[1,1,0,0],[0,1,2,0],[0,0,1,0],[1,0,0,1]]"])
    assert code == 0
    assert data["galois_type"] == "dihedral"
    assert (data["d"], data["u^2"]) == (2, [1, 1])
    assert data["basis"] == ["1", "sqrt(d)", "u", "sqrt(d)*u", "v", "sqrt(d)*v", "u*v",
                             "sqrt(d)*u*v"]
    assert not data["in_R"] and not data["vanishing_on_special"]
    values = data["values"]
    assert {k: v for k, v in values.items() if not isinstance(v, list)} == \
        {"0123": "7/4", "1032": "-1/64"}
    assert sum(isinstance(v, list) and len(v) == 8 for v in values.values()) == 22
    assert values["0132"] == ["-1/16", "-1/8", 0, 0, 0, 0, 0, 0]
    # before, on the power basis of eta, a root of
    # x^8 - 20x^6 + 146x^4 - 460x^2 + 1681
    tower = quartics.dihedral_tower(2, 1, 1)
    L = eta_closure(tower)[0]
    assert L.min_poly == (1681, 0, -460, 0, 146, 0, -20, 0, 1)
    assert _to_old_basis(tower, data, values["0132"], L.gen) == L.elem(
        [Fraction(x) for x in ["-167/1632", 0, "-37/1632", 0, "5/544", 0, "-1/1632", 0]])


def test_invariants_of_400_digit_dihedral_data_answer(capsys):
    # failed after about 6 s while printing, with Python's 4,300-digit
    # string-limit message
    argv = ["invariants", "--tower", '{"kind": "dihedral", "d": 2, "a": "1e-400", "b": "1e400"}',
            "--matrix", "[[1,1,0,0],[0,1,2,0],[0,0,1,0],[1,0,0,1]]"]
    code, data = within_seconds(10, lambda: run_json(capsys, argv))
    assert code == 0 and data["galois_type"] == "dihedral"
    assert data["u^2"] == [10 ** 400, 10 ** 1200]
    assert max(len(x) for v in data["values"].values() if isinstance(v, list)
               for x in v if isinstance(x, str)) > 4300
    assert sys.get_int_max_str_digits() == 4300  # restored after printing


def test_entropy_and_window(capsys):
    code, data = run_json(capsys, ["entropy", "--a", '["4","2","1/2","1/4"]',
                                   "--prime", "2"])
    assert code == 0 and data["in_A_prime"]

    code, win = run_json(capsys, ["tau-window", "--eta", str(12 * math.log(2)),
                                  "--hint", str(2 * math.log(2)),
                                  "--DK", str(2.0 ** 60), "--DF", "16"])
    assert code == 0
    assert abs(win["lo"] - 2.5) < 1e-9 and abs(win["hi"] - 12.0) < 1e-9


def test_entropy_a_prime_boundary_is_exact(capsys):
    # h_int = log 17 = h_haar / 3 exactly, so the strict test is false; a
    # float comparison rounded it to true at p = 17 and not at p = 19
    for p in ("17", "19"):
        code, data = run_json(capsys, ["entropy", "--a", '["1", "1", "1", "1/17"]',
                                       "--prime", p])
        assert code == 0 and data["in_A_prime"] is False, p
    code, data = run_json(capsys, ["entropy", "--a", '["1", "1", "1", "1/17"]', "--prime", "17"])
    assert data["h_int"] == math.log(17) and data["logs"][3] == math.log(17)


def test_disc_without_an_archimedean_generator_is_an_exact_integer(capsys):
    code, out = run_cli(capsys, ["disc", "--tower", '{"kind": "quadratic", "delta": 2}',
                                 "--conductors", '{"3": 3}'])
    data = json.loads(out)
    assert code == 0 and data["disc"] == data["disc_fin"] == 72
    assert '"disc": 72,' in out


def test_disc_classify_and_cyclic_check(capsys):
    code, data = run_json(capsys, ["disc", "--tower", '{"kind": "zeta5"}'])
    assert code == 0 and data["disc_fin"] == 5
    code, data = run_json(capsys, ["classify", "--tower",
                                   '{"kind": "biquadratic", "d": 2, "e": 3}'])
    assert code == 0 and data["type"] == "biquadratic"
    code, data = run_json(capsys, ["cyclic-check", "--tower",
                                   '{"kind": "sqrt2plus"}'])
    assert code == 0 and data["pass"]


def test_cyclic_check_pins_the_gaussian_tower_at_97(capsys):
    code, out = run_cli(capsys, ["cyclic-check", "--tower", '{"kind": "gaussian", "p": 97}'])
    assert code == 0
    assert out == CYCLIC_CHECK_GAUSSIAN_97


CYCLIC_CHECK_GAUSSIAN_97 = """{
  "D_F": 97,
  "D_K": 912673,
  "D_rel": 97,
  "decomposition": {
    "W": 1,
    "d": 97,
    "form": "W^2*d"
  },
  "pass": true
}
"""


def test_gaussian_tower_with_bad_p_exits_one(capsys):
    code, err = run_cli_err(capsys, ["cyclic-check", "--tower",
                                     '{"kind": "gaussian", "p": 21}'])
    assert code == 1
    assert err == "error: p must be a prime = 1 mod 4, got p = 21\n"


def test_biquadratic_tower_with_e_equal_to_d_exits_one(capsys):
    # sqrt(e) = sqrt(d) lies in F: rejected as a square, never built
    code, err = run_cli_err(capsys, ["classify", "--tower",
                                     '{"kind": "biquadratic", "d": 3, "e": 3}'])
    assert code == 1
    assert err == "error: delta must be a nonsquare in F\n"


def test_biquadratic_disc_with_e_not_squarefree(capsys):
    # Q(sqrt 5, sqrt 12) = Q(sqrt 5, sqrt 3): D_K = 5 * 12 * 60, and with
    # e = -12 the subfields Q(sqrt -3), Q(sqrt -15) give D_K = 5 * 3 * 15;
    # alk disc prints D_K / D_F^2
    from alk import enumeration, quartics

    for e, dk, disc_u in ((12, 3600, {"2": 16, "3": 9}), (-12, 225, {"3": 9})):
        code, data = run_json(capsys, ["disc", "--tower",
                                       f'{{"kind": "biquadratic", "d": 5, "e": {e}}}'])
        assert code == 0, e
        assert data["disc_fin"] * 5 ** 2 == dk and data["disc_u"] == disc_u, e
        assert quartics.biquadratic_tower(5, e).declared_DK == dk


def test_linnik_rhs_exit_codes(capsys):
    code, data = run_json(capsys, ["linnik-rhs", "--disc", "1e6", "--vol", "1e3",
                                   "--tau", "1.0", "--h", "2.302585092994046"])
    assert code == 0 and data["status"] == "ok"
    code, data = run_json(capsys, ["linnik-rhs", "--disc", "1e6", "--vol", "1e3",
                                   "--tau", "100", "--h", "2.302585092994046"])
    assert code == 2 and data["status"] == "out_of_hypothesis"
    code, data = run_json(capsys, ["linnik-rhs", "--special", "--disc", "1e6",
                                   "--DF", "5", "--tau", "1.0", "--h", "1.0"])
    assert code == 0 and "volume" in data["terms"]


def test_verify_all_battery(capsys):
    code, data = run_json(capsys, ["verify-all"])
    assert code == 0
    assert data["pass"] and all(c["pass"] for c in data["checks"])
    assert len(data["checks"]) >= 12
    dihedral = next(c for c in data["checks"] if c["id"] == "11_psi_dihedral_closure")
    assert dihedral["detail"] == {"closure_degree": 8, "psi_sum_is_one": True,
                                  "relations": True}


def test_csv_format_on_either_side_of_the_subcommand(capsys):
    code, out = run_cli(capsys, ["classify", "--tower", '{"kind": "zeta5"}',
                                 "--format", "csv"])
    assert code == 0 and out.strip() == "type,cyclic"
    code, out = run_cli(capsys, ["--format", "csv", "classify", "--tower",
                                 '{"kind": "zeta5"}'])
    assert code == 0 and out.strip() == "type,cyclic"


def test_csv_writes_booleans_and_null_as_json_words(capsys):
    # printed "empty,True"
    code, out = run_cli(capsys, ["--format", "csv", "tau-window", "--eta", "1", "--hint", "1",
                                 "--DK", "10", "--DF", "2"])
    assert code == 0 and "empty,true" in out.splitlines()
    assert not any(line.endswith((",True", ",False", ",None")) for line in out.splitlines())


def test_classify_large_coefficients_answers(capsys):
    # the resolvent cubic's divisor search did not finish within 60 s
    argv = ["classify", "--tower", '{"kind": "dihedral", "d": 2, "a": 10000000, "b": 3}']
    code, data = within_seconds(5, lambda: run_json(capsys, argv))
    assert code == 0 and data == {"type": "dihedral"}


def test_usage_and_runtime_errors_exit_one(capsys):
    code, _ = run_cli(capsys, ["no-such-command"])
    assert code == 1
    code, _ = run_cli(capsys, ["classify", "--tower", '{"kind": "nope"}'])
    assert code == 1
    code, _ = run_cli(capsys, ["theta", "--gram", "[[1, 2], [0, 1]]"])
    assert code == 1
    code, err = run_cli_err(capsys, ["theta", "--gram", "[]"])
    assert code == 1 and "rank-0" in err
    # not square: the first was read as the Gram [[1]] of Z
    for gram in ("[[1, 2]]", "[[2, 0], [0]]"):
        code, err = run_cli_err(capsys, ["theta", "--gram", gram])
        assert code == 1 and err.startswith("error: ") and "square" in err, gram


ZETA5 = '{"kind": "zeta5"}'


@pytest.mark.parametrize("argv", [
    ["classify", "--tower", "[]"],
    ["classify", "--tower", '{"kind": "gaussian", "p": [13]}'],
    ["count-box", "--field", "[1]", "--rinf", "[1]"],
    ["count-box", "--field", '{"d": null}', "--rinf", "[1]"],
    ["count-box", "--rinf", "[1]", "--rfin", "[1]"],
    ["count-box", "--rinf", "[1]", "--rfin", '{"2": {"a": 1}}'],
    ["theta", "--radii", "3"],
    ["theta", "--gram", "[1]"],
    ["theta", "--gram", "[[null]]"],
    ["disc", "--tower", ZETA5, "--conductors", "[1]"],
    ["disc", "--tower", ZETA5, "--conductors", '{"2": [1]}'],
    ["disc", "--tower", ZETA5, "--arch", "[1]"],
    ["entropy", "--a", "3"],
    ["local", "--matrix", "[[1]]", "--prime", "2", "--d", "3"],
    ["local", "--matrix", "[[1, 2], [3]]", "--prime", "2", "--d", "3"],
    ["invariants", "--tower", ZETA5, "--matrix", "[[1, 0], [0, 1]]"],
    # truncated to d = 2 and answered "biquadratic"
    ["classify", "--tower", '{"kind": "biquadratic", "d": 2.9, "e": 3}'],
    # JSON true read as 1: answered "dihedral", and a conductor 1 at 2
    ["classify", "--tower", '{"kind": "dihedral", "d": 2, "a": true, "b": 1}'],
    ["disc", "--tower", ZETA5, "--conductors", '{"2": true}'],
    # NaN and Infinity are no JSON numbers, nor is an exponent beyond a float's
    ["count-box", "--rinf", "[NaN]"],
    ["theta", "--gram", "[[Infinity]]"],
    ["count-box", "--rinf", "1e-999999999"],
], ids=" ".join)
def test_malformed_json_is_an_error_line(capsys, argv):
    # each raised TypeError, AttributeError, AssertionError or IndexError
    code, err = run_cli_err(capsys, argv)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    # each of the first four hung in valuation's loop at p = 1 or -1
    ["local", "--matrix", "[[1, 0], [0, 1]]", "--prime", "1", "--d", "-1"],
    ["local", "--matrix", "[[1, 0], [0, 1]]", "--prime", "-1", "--d", "-1"],
    ["entropy", "--a", "[1, 2, 3, 4]", "--prime", "1"],
    ["disc", "--tower", '{"kind": "quadratic", "delta": 2}', "--conductors", '{"1": 2}'],
    ["local", "--matrix", "[[1, 0], [0, 1]]", "--prime", "0", "--d", "-1"],
    # non-prime places printed a count, or base-4 entropies
    ["count-box", "--field", '{"d": -1}', "--rinf", "[2]", "--rfin", '{"4": 1}'],
    ["count-box", "--field", '{"d": -1}', "--rinf", "[2]", "--rfin", '{"-3": 1}'],
    ["count-box", "--rinf", "[3]", "--rfin", '{"4": 4}'],
    ["entropy", "--a", "[1, 2, 3, 4]", "--prime", "4"],
], ids=" ".join)
def test_bad_primes_and_needle_boxes_are_an_error_line(capsys, argv):
    code, err = within_seconds(5, lambda: run_cli_err(capsys, argv))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


def test_a_prime_given_twice_in_rfin_is_an_error(capsys):
    # "5" and "05" name the same prime; the count was taken at radius 1/25
    argv = ["count-box", "--field", '{"d": -1}', "--rinf", "40", "--rfin"]
    code, data = run_json(capsys, argv + ['{"5": ["1/5", 1]}'])
    assert code == 0 and data["count"] == 25
    code, err = run_cli_err(capsys, argv + ['{"5": ["1/5", 1], "05": ["1/5", 1]}'])
    assert code == 1 and err == "error: a radius at the split1 place over 5 is given twice\n", err


def test_needle_box_is_counted_on_its_own_reduced_basis(capsys):
    # radii 10^-10 and 10^10 over O_F: billions of mostly empty rows of the
    # trace-form ellipse were refused by the budget.  Only 0 is in the box,
    # and the norm 1 is below c * D_F = 5, a hypothesis flag
    argv = ["count-box", "--field", '{"d": 5}', "--rinf", '["1e-10", "1e10"]', "--rfin", "{}",
            "--c", "1"]
    code, data = within_seconds(5, lambda: run_json(capsys, argv))
    assert code == 2 and data["count"] == 1 and data["status"] == "hypothesis_violated"


def test_json_numbers_are_read_exactly(capsys):
    # read as a float and cut to a denominator of 10^12, the radius was 1
    # and the box held 5 Gaussian integers
    for rinf in ("0.9999999999999", '"9999999999999/10000000000000"'):
        code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}', "--rinf", rinf])
        assert data["count"] == 1, rinf


FLOAT_OPTIONS = {
    "tau-window": ["--eta", "1", "--hint", "1", "--DK", "10", "--DF", "2", "--kappa", "0",
                   "--eps", "0.1", "--beta", "1", "--mode", "refined"],
    "linnik-rhs": ["--disc", "10", "--vol", "1", "--tau", "1", "--h", "1", "--DF", "1"],
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, argv in FLOAT_OPTIONS.items()
    for option in argv[::2] if option != "--mode"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_options_are_refused(capsys, command, option, value):
    # --eta inf printed a window with exit 0; a NaN failed only on output
    argv = FLOAT_OPTIONS[command]
    assert main([command] + argv) in (0, 2)
    capsys.readouterr()
    i = argv.index(option)
    code, err = run_cli_err(capsys, [command] + argv[:i] + argv[i + 2:] + [f"{option}={value}"])
    assert code == 1 and err == f"error: {option} must be finite, not {value}\n", err


@pytest.mark.parametrize("argv, want", [
    (["tau-window", "--eta", "1", "--hint", "1", "--DK", "10", "--DF", "2", "--c", "0"],
     "c must be positive"),
    (["count-box", "--rinf", "1", "--c", "-2"], "c must be positive"),
    (["linnik-rhs", "--disc", "10", "--tau", "1", "--h", "1", "--c", "0"],
     "c must be positive"),
    (["linnik-rhs", "--disc", "10", "--tau", "1", "--h", "1", "--DF", "0"],
     "D_F must be positive"),
], ids=["tau-window c", "count-box c", "linnik-rhs c", "linnik-rhs DF"])
def test_nonpositive_constants_are_named(capsys, argv, want):
    # each printed "error: math domain error"
    code, err = run_cli_err(capsys, argv)
    assert code == 1 and err == f"error: {want}\n", err


def test_integral_floats_and_strings_are_integers(capsys):
    code, data = run_json(capsys, ["classify", "--tower",
                                   '{"kind": "biquadratic", "d": 2.0, "e": "3"}'])
    assert code == 0 and data == {"type": "biquadratic"}


@pytest.mark.parametrize("argv", [
    # printed "lo": NaN, Infinity, and a csv nan, each with exit 0
    ["tau-window", "--eta", "nan", "--hint", "1", "--DK", "10", "--DF", "2"],
    ["linnik-rhs", "--disc", "inf", "--tau", "1", "--h", "1"],
    ["--format", "csv", "tau-window", "--eta", "nan", "--hint", "1", "--DK", "10", "--DF", "2"],
], ids=" ".join)
def test_non_finite_results_are_an_error_line(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_missing_tower_field_is_named(capsys):
    # printed the bare KeyError "error: 'a'"
    for tower, want in (('{"kind": "dihedral", "d": 2}', "dihedral tower needs the field 'a'"),
                        ('{"d": 2}', "a tower needs the field 'kind'")):
        code, err = run_cli_err(capsys, ["classify", "--tower", tower])
        assert code == 1 and err == f"error: {want}\n", err


def test_unknown_tower_kind_is_named_by_its_json_value(capsys):
    # a non-string kind printed as a Python repr, "Fraction(3, 2)"
    for kind, want in (('1.5', '"3/2"'), ('"nope"', '"nope"'), ('[1, null]', '[1, null]'),
                       ('true', 'true')):
        code, err = run_cli_err(capsys, ["classify", "--tower", f'{{"kind": {kind}}}'])
        assert code == 1 and err == f"error: unknown tower kind {want}\n", err


def test_inputs_beyond_trial_division_are_an_error_line(capsys):
    # 10^18 + 3 has no prime factor below 10^6; dividing up to its square
    # root did not finish in 10 s
    argv = ["count-box", "--field", '{"d": 1000000000000000003}', "--rinf", "[2, 2]"]
    code, err = within_seconds(5, lambda: run_cli_err(capsys, argv))
    assert code == 1 and err.startswith("error: cannot factor 1000000000000000003"), err


def test_count_box_over_q_validates_its_radii(capsys):
    # a negative radius, and one radius too many for Q's one infinite place
    for rinf in ("[-1]", "[1, 2]"):
        code, _ = run_cli(capsys, ["count-box", "--rinf", rinf, "--rfin", '{"2": 2}'])
        assert code == 1, rinf
    code, data = run_json(capsys, ["count-box", "--rinf", "[3]", "--rfin", '{"2": 2}'])
    assert code == 0 and data["count"] == 13


def test_every_readme_command_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("alk ")]
    assert len(lines) >= 12
    for line in lines:
        code, _ = run_cli(capsys, shlex.split(line)[1:])
        assert code in (0, 2), line


def test_budget_below_one_is_a_usage_error(capsys):
    for budget in ("0", "-5", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--gram", "[[1]]", "--budget", budget])
        assert exc.value.code == 1, budget
        assert "argument --budget: must be an integer >= 1" in capsys.readouterr().err


def test_exceeded_budget_is_an_error_line(capsys):
    # [[1e-300, 0], [0, 1e300]] has det 1 and is needle-thin on both sides;
    # the bundle's Gram has entries near 1e-200.  Their runs of x[0] end
    # near 10^150 and 10^100, past 2^53, where float(x) repeats
    for argv in (["theta", "--gram", "[[1]]", "--budget", "2"],
                 ["theta", "--gram", "[[1e-300, 0], [0, 1e300]]"],
                 ["theta", "--field", '{"d": 5}', "--radii", '["1e100", "1e100"]'],
                 # a norm of 10^600 is beyond the float range of the bound
                 # C * norm / sqrt(D_F); its count is beyond the budget first
                 ["count-box", "--field", '{"d": 5}', "--rinf", '["1e300", "1e300"]']):
        code, err = within_seconds(10, lambda: run_cli_err(capsys, argv))
        assert code == 1, argv
        assert err.startswith("error: enumeration budget"), err


@pytest.mark.parametrize("gram, h0, h1", [
    ("[[1e300]]", 0, 150), ("[[1e-30]]", 15, 0), ("[[1000000000000]]", 0, 6),
    ("[[1e200, 0], [0, 1e200]]", 0, 200), ("[[1e-200, 0], [0, 1e-200]]", 200, 0)])
def test_theta_of_a_scaled_integer_lattice_is_closed_form(capsys, gram, h0, h1):
    """On L = 10^(e/2) Z^n the sparser side's theta is 1 to double precision,
    so h0 and h1 are 0 and n*|e|/2 * log 10, in either order.  The dense side
    (~10^150 points for [[1e300]]) is beyond any budget, and float(det)
    overflows or underflows at the 1e200 and 1e-200 Grams."""
    code, data = within_seconds(10, lambda: run_json(capsys, ["theta", "--gram", gram]))
    assert code == 0
    rep = data["report"]
    assert abs(rep["h0"] - h0 * math.log(10)) <= 1e-12
    assert abs(rep["h1"] - h1 * math.log(10)) <= 1e-12
    assert abs(rep["adeg"] - (h0 - h1) * math.log(10)) <= 1e-12


@pytest.mark.parametrize("gram, summed, value, adeg", [
    ("[[1e320]]", "h0", 0.0, -160), ("[[1e-320]]", "h1", 0.0, 160),
    ("[[1e-320, 0], [0, 1]]", "h1", 0.0829015200310546, 160)])
def test_theta_of_a_gram_beyond_the_float_range_answers(capsys, gram, summed, value, adeg):
    # the summed side has an entry 10^320, beyond the float range, and was
    # refused with exit 1; its theta is 1, or theta_Z(1), and the other side
    # is derived from it by Poisson summation
    code, data = within_seconds(10, lambda: run_json(capsys, ["theta", "--gram", gram]))
    assert code == 0
    rep = data["report"]
    assert abs(rep[summed] - value) <= 1e-15
    assert abs(rep["adeg"] - adeg * math.log(10)) <= 1e-12
    assert abs(rep["h0"] - rep["h1"] - rep["adeg"]) <= 1e-12


@pytest.mark.parametrize("gram, reduced", [
    ("[[1e14, 1e7], [1e7, 1.00000000000001]]", [[1, -1e-7], [-1e-7, 1 + 1e-14]]),
    ("[[1e12, 1e6], [1e6, 1.000000000001]]", [[1, -1e-6], [-1e-6, 1 + 1e-12]])])
def test_theta_of_a_sheared_gram_answers_at_once(capsys, gram, reduced):
    # det 1, so L is summed, on the basis e_2, e_1 - 10^7 e_2 (10^6 e_2),
    # whose Gram is well conditioned; the unreduced sum ran for minutes
    code, data = within_seconds(5, lambda: run_json(capsys, ["theta", "--gram", gram]))
    assert code == 0
    want = enumeration.theta_log_sum(euclidean_lattice(reduced))[0]
    assert abs(data["report"]["h0"] - want) <= 1e-14
    assert data["report"]["h1"] == data["report"]["h0"]


def test_theta_of_a_rank_3_sheared_gram_exits_on_the_budget(capsys):
    # the sheared block is not reduced at rank 3; its outer level walked
    # ~3*10^7 values for minutes, and the node budget now stops it
    argv = ["theta", "--gram", "[[1e14, 1e7, 0], [1e7, 1.00000000000001, 0], [0, 0, 1]]"]
    code, err = within_seconds(20, lambda: run_cli_err(capsys, argv))
    assert code == 1 and err.startswith("error: enumeration budget"), err


@pytest.mark.parametrize("rho", ["1000", "10000"])
def test_theta_of_a_bundle_at_unequal_radii_answers(capsys, rho):
    # "duality routes disagree" at 1000, "not positive definite" at 10000
    argv = ["theta", "--field", '{"d": 5}', "--radii", f'["1/{rho}", {rho}]']
    code, data = within_seconds(10, lambda: run_json(capsys, argv))
    assert code == 0
    rep = data["report"]
    assert abs(rep["h1"] - rep["h0"] - 0.5 * math.log(5)) <= 1e-12


def test_closed_stdout_pipe_exits_quietly():
    """A reader that has gone before alk writes (`alk verify-all | true`)
    ends the command with its own exit code and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "alk.cli", "verify-all"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# fuzzed --tower input: every outcome is an answer, a hypothesis violation or
# one error line


_FUZZ_SCALARS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.none(),
    st.text(max_size=6),
)
_FUZZ_VALUES = st.recursive(_FUZZ_SCALARS, lambda inner: st.lists(inner, max_size=3),
                            max_leaves=5)
# p stays at most 2,000, so that draws often hit a prime = 1 mod 4; towers at
# primes up to 10^12 + 61 are built in tests/test_gaussian_periods.py
_FUZZ_P = st.one_of(st.integers(-10 ** 6, 2000), st.integers(0, 2000),
                    st.floats(max_value=2000),
                    st.sampled_from([float("nan"), float("inf")]), st.none(),
                    st.text(max_size=3), st.lists(st.integers(0, 2000), max_size=2))
_TOWER_FIELDS = {"zeta5": (), "sqrt2plus": (), "biquadratic": ("d", "e"),
                 "dihedral": ("d", "a", "b"), "gaussian": ("p",), "quadratic": ("delta",)}
_ALL_FIELDS = ("d", "e", "a", "b", "delta")


@st.composite
def _fuzz_towers(draw):
    known = st.sampled_from(sorted(_TOWER_FIELDS))
    kind = draw(st.one_of(known, known, st.text(max_size=8), _FUZZ_VALUES))
    data = {"kind": kind}
    keys = _TOWER_FIELDS.get(kind, _ALL_FIELDS) if isinstance(kind, str) else _ALL_FIELDS
    for key in keys:
        if draw(st.integers(0, 7)):  # a field is left out now and then
            data[key] = draw(_FUZZ_P if key == "p" else
                             st.one_of(st.integers(-30, 30), _FUZZ_VALUES))
    return json.dumps(data)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is no JSON value")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", ["classify", "disc", "invariants", "cyclic-check"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tower=_fuzz_towers())
@example(tower='{"kind": "dihedral", "d": 2, "a": "1e999999", "b": 1}')
@example(tower='{"kind": "quadratic", "delta": "1e-999999"}')
@example(tower='{"kind": "dihedral", "d": 2, "a": "1/3", "b": "abc"}')
def test_fuzzed_towers_end_in_an_answer_or_one_error_line(capsys, command, tower):
    capsys.readouterr()
    argv = [command, "--tower", tower]
    if command == "invariants":
        argv += ["--matrix", "[[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [5, 0, 0, 1]]"]
    code = within_seconds(20, lambda: main(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and err.count("error:") <= 1, err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    if out:
        _strict_json(out)


# ---------------------------------------------------------------------------
# fuzzed options of the subcommands that read no --tower: every outcome is
# an answer, a hypothesis violation, a usage error or one error line


_FUZZ_SMALL = st.one_of(st.integers(-5, 5), st.integers(-5, 5), _FUZZ_SCALARS)


def _square(elements, sizes=(0, 1, 2, 3, 4)):
    return st.sampled_from(sizes).flatmap(lambda n: st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))


def _json_text(values):
    """Option text: mostly a JSON value, now and then text that need not be
    JSON."""
    return st.one_of(values.map(json.dumps), values.map(json.dumps), values.map(json.dumps),
                     st.text(max_size=8))


def _number_text(numbers):
    """Text for an option that argparse reads as an int or a float: mostly
    one of numbers, now and then any float or any text."""
    return st.one_of(*[numbers.map(str)] * 6,
                     st.floats(allow_nan=True, allow_infinity=True,
                               allow_subnormal=True).map(repr),
                     st.text(max_size=6))


def _matrix(sizes):
    return _json_text(st.one_of(_square(st.integers(-5, 5), sizes),
                                _square(st.integers(-5, 5), sizes), _square(_FUZZ_SMALL),
                                _FUZZ_VALUES))


_FIELD = st.one_of(st.sampled_from(["q", "null"]),
                   _json_text(st.fixed_dictionaries({"d": st.one_of(st.integers(-30, 30),
                                                                    _FUZZ_SCALARS)})),
                   _json_text(_FUZZ_VALUES))
_RADII = _json_text(st.one_of(*[st.lists(st.integers(1, 5), min_size=1, max_size=2)] * 2,
                              st.lists(_FUZZ_SMALL, max_size=3), _FUZZ_VALUES))
_RFIN = _json_text(st.dictionaries(st.one_of(st.integers(-3, 30).map(str), st.text(max_size=3)),
                                   st.one_of(_FUZZ_SMALL, st.lists(_FUZZ_SMALL, max_size=3)),
                                   max_size=2))
_FLOAT = _number_text(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 100),
                                st.floats(1e-3, 1e30)))
_PRIME = _number_text(st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 1999]),
                                st.integers(-5, 2000)))
# (option, text strategy, required); a flag's strategy is None
_OPTIONS = {
    "theta": [("--gram", _matrix((1, 2, 3)), False), ("--field", _FIELD, False),
              ("--radii", _RADII, False), ("--canonical", None, False)],
    "count-box": [("--field", _FIELD, False), ("--rinf", _RADII, True),
                  ("--rfin", _RFIN, False), ("--c", _json_text(_FUZZ_SMALL), False)],
    "local": [("--matrix", _matrix((2, 4)), True), ("--prime", _PRIME, True),
              ("--conductor", _number_text(st.integers(-3, 40)), False),
              ("--d", _number_text(st.integers(-50, 50)), True)],
    "invariants": [("--tower", st.just('{"kind": "zeta5"}'), True),
                   ("--matrix", _matrix((4,)), True)],
    "entropy": [("--a", _json_text(st.one_of(st.lists(_FUZZ_SMALL, min_size=4, max_size=4),
                                             _FUZZ_VALUES)), True),
                ("--prime", _PRIME, False)],
    "tau-window": [("--eta", _FLOAT, True), ("--hint", _FLOAT, True), ("--DK", _FLOAT, True),
                   ("--DF", _FLOAT, True), ("--c", _json_text(_FUZZ_SMALL), False),
                   ("--kappa", _FLOAT, False),
                   ("--mode", st.sampled_from(["main", "refined", "other"]), False),
                   ("--eps", _FLOAT, False), ("--beta", _FLOAT, False)],
    "linnik-rhs": [("--disc", _FLOAT, True), ("--vol", _FLOAT, False), ("--tau", _FLOAT, True),
                   ("--h", _FLOAT, True), ("--eps", _FLOAT, False),
                   ("--c", _json_text(_FUZZ_SMALL), False), ("--DF", _FLOAT, False),
                   ("--special", None, False)],
}


@st.composite
def _fuzz_argv(draw, command):
    argv = [command, "--budget", "10000"]
    for option, text, required in _OPTIONS[command]:
        # a required option is left out now and then, an optional one half the time
        if draw(st.sampled_from([True] * 7 + [False] if required else [True, False])):
            argv += [option] if text is None else [option, draw(text)]
    return argv


def _run_fuzzed(capsys, argv):
    capsys.readouterr()

    def call():
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    code = within_seconds(20, call)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and err.count("error:") <= 1, err
    if out:
        _strict_json(out)


@pytest.mark.parametrize("command", sorted(_OPTIONS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_options_end_in_an_answer_or_one_error_line(capsys, command, data):
    _run_fuzzed(capsys, data.draw(_fuzz_argv(command)))

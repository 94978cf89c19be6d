import json
import shlex
from pathlib import Path

import pytest

from alk.cli import main
from conftest import within_seconds


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


def test_count_box_with_finite_radii(capsys):
    code, data = run_json(capsys, ["count-box", "--field", '{"d": -1}',
                                   "--rinf", "[2]", "--rfin", '{"5": [5, 1]}'])
    assert code == 0 and data["count"] == 37


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
    # power-basis coordinates
    code, data = run_json(capsys, ["invariants", "--tower", '{"kind": "zeta5"}',
                                   "--matrix", "[[1,1,0,0],[0,1,2,0],[0,0,1,0],[1,0,0,1]]"])
    assert code == 0
    assert data == {
        "galois_type": "cyclic",
        "in_R": False,
        "min_poly": [5, 0, 5, 0, 1],
        "vanishing_on_special": False,
        "values": VALUES_ZETA5_NON_BLOCK,
    }


VALUES_ZETA5_NON_BLOCK = {
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


def test_invariants_pins_the_dihedral_closure(capsys):
    # a dihedral tower's values lie in its degree-8 Galois closure and
    # print as coordinates in the power basis of a root of min_poly
    code, data = run_json(capsys, ["invariants", "--tower",
                                   '{"kind": "dihedral", "d": 2, "a": 1, "b": 1}',
                                   "--matrix", "[[1,1,0,0],[0,1,2,0],[0,0,1,0],[1,0,0,1]]"])
    assert code == 0
    assert data["galois_type"] == "dihedral"
    assert data["min_poly"] == [1681, 0, -460, 0, 146, 0, -20, 0, 1]
    assert not data["in_R"] and not data["vanishing_on_special"]
    values = data["values"]
    assert {k: v for k, v in values.items() if not isinstance(v, list)} == \
        {"0123": "7/4", "1032": "-1/64"}
    assert sum(isinstance(v, list) and len(v) == 8 for v in values.values()) == 22
    assert values["0132"] == ["-167/1632", 0, "-37/1632", 0, "5/544", 0, "-1/1632", 0]


def test_entropy_and_window(capsys):
    code, data = run_json(capsys, ["entropy", "--a", '["4","2","1/2","1/4"]',
                                   "--prime", "2"])
    assert code == 0 and data["in_A_prime"]
    import math

    code, win = run_json(capsys, ["tau-window", "--eta", str(12 * math.log(2)),
                                  "--hint", str(2 * math.log(2)),
                                  "--DK", str(2.0 ** 60), "--DF", "16"])
    assert code == 0
    assert abs(win["lo"] - 2.5) < 1e-9 and abs(win["hi"] - 12.0) < 1e-9


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
    from alk import quartics

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
    # radii 10^-10 and 10^10: billions of mostly empty rows
    ["count-box", "--field", '{"d": 5}', "--rinf", "[1e-10, 1e10]"],
], ids=" ".join)
def test_bad_primes_and_needle_boxes_are_an_error_line(capsys, argv):
    code, err = within_seconds(5, lambda: run_cli_err(capsys, argv))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


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
    # [[1e300]] has the dual [[1e-300]], whose ball holds ~10^150 points
    # [[1e-30]], cut to a denominator of 10^12, was refused as not positive
    # definite
    for argv in (["theta", "--gram", "[[1]]", "--budget", "2"],
                 ["theta", "--gram", "[[1e300]]"], ["theta", "--gram", "[[1e-30]]"]):
        code, err = within_seconds(10, lambda: run_cli_err(capsys, argv))
        assert code == 1, argv
        assert err.startswith("error: enumeration budget"), err

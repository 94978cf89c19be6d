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
from alk.arakelov import euclidean_lattice, theta_invariants_euclidean
from alk.cli import main
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


CASES_FILE = Path(__file__).parent / "cli_cases.json"
CASES = json.loads(CASES_FILE.read_text())
NEEDED_KEYS = {"argv", "exit", "seconds", "why"}


def _case_problems(cases):
    """The rows with a missing or unknown key, and the argvs given twice."""
    seen, problems = set(), []
    for case in cases:
        if not NEEDED_KEYS <= set(case) <= NEEDED_KEYS | {"out", "err"}:
            problems.append(f"keys {sorted(case)}")
        elif tuple(case["argv"]) in seen:
            problems.append(f"argv {case['argv']} given twice")
        else:
            seen.add(tuple(case["argv"]))
    return problems


def test_cli_cases_have_known_keys_and_distinct_argvs():
    assert _case_problems(CASES) == []
    assert _case_problems([{"argv": ["verify-all"], "exit": 0, "seconds": 10, "why": "",
                            "stdin": ""}]) == ["keys ['argv', 'exit', 'seconds', 'stdin', 'why']"]
    assert _case_problems([CASES[0], CASES[0]]) == [f"argv {CASES[0]['argv']} given twice"]
    # one row per line, between the lines of the brackets
    assert len(CASES_FILE.read_text().splitlines()) == len(CASES) + 2


def _same(got, want) -> bool:
    """Floats within one relative and absolute tolerance of 1e-15; every
    other value equal and of the same type (72 is not 72.0)."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-15)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    return type(got) is type(want) and got == want


def _dotted(data, key):
    for part in key.split("."):
        data = data[int(part)] if isinstance(data, list) else data[part]
    return data


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_case(capsys, case):
    """Each row of cli_cases.json: its exit code within its seconds, its
    pinned output keys, and on exit 1 one error line that holds its err."""
    def call():
        try:
            return main(case["argv"])
        except SystemExit as exc:  # a usage error, after argparse's usage lines
            return exc.code

    code = within_seconds(case["seconds"], call)
    out, err = capsys.readouterr()
    assert code == case["exit"], err
    if code == 1:
        *usage, line = err.splitlines()
        assert out == "" and err.count("error: ") == 1 and case.get("err", "") in line, err
        assert usage[0].startswith("usage: ") if usage else line.startswith("error: "), err
        return
    assert err == ""
    if "out" in case:
        data = json.loads(out)
        for key, want in case["out"].items():
            assert _same(_dotted(data, key), want), (key, _dotted(data, key))


def run_case(capsys, argv):
    """Run the row of cli_cases.json with this argv under its own seconds,
    for the tests below that check its output against a closed form."""
    case = next(case for case in CASES if case["argv"] == argv)
    return within_seconds(case["seconds"], lambda: run_json(capsys, argv))


def test_verify_all_battery(capsys):
    code, data = run_case(capsys, ["verify-all"])
    assert code == 0
    assert data["pass"] and all(c["pass"] for c in data["checks"])
    assert len(data["checks"]) >= 12


def test_theta_on_a_gram_matrix(capsys):
    code, data = run_case(capsys, ["theta", "--gram", "[[1]]"])
    assert code == 0
    rep = data["report"]
    assert abs(rep["h0"] - rep["h1"] - rep["adeg"]) < 1e-9


def test_theta_canonical_bundle(capsys):
    code, data = run_case(capsys, ["theta", "--field", '{"d": 5}', "--canonical"])
    assert code == 0
    assert abs(data["report"]["adeg"] - math.log(5)) < 1e-9


@pytest.mark.parametrize("gram, h0, h1", [
    ("[[1e300]]", 0, 150), ("[[1e-30]]", 15, 0), ("[[1000000000000]]", 0, 6),
    ("[[1e200, 0], [0, 1e200]]", 0, 200), ("[[1e-200, 0], [0, 1e-200]]", 200, 0)])
def test_theta_of_a_scaled_integer_lattice_is_closed_form(capsys, gram, h0, h1):
    """On L = 10^(e/2) Z^n the sparser side's theta is 1 to double precision,
    so h0 and h1 are 0 and n*|e|/2 * log 10, in either order."""
    code, data = run_case(capsys, ["theta", "--gram", gram])
    assert code == 0
    rep = data["report"]
    assert abs(rep["h0"] - h0 * math.log(10)) <= 1e-12
    assert abs(rep["h1"] - h1 * math.log(10)) <= 1e-12
    assert abs(rep["adeg"] - (h0 - h1) * math.log(10)) <= 1e-12


@pytest.mark.parametrize("gram, summed, value, adeg", [
    ("[[1e320]]", "h0", 0.0, -160), ("[[1e-320]]", "h1", 0.0, 160),
    ("[[1e-320, 0], [0, 1]]", "h1", 0.0829015200310546, 160)])
def test_theta_of_a_gram_beyond_the_float_range_answers(capsys, gram, summed, value, adeg):
    # the summed side's theta is 1, or theta_Z(1); the other side is
    # derived from it by Poisson summation
    code, data = run_case(capsys, ["theta", "--gram", gram])
    assert code == 0
    rep = data["report"]
    assert abs(rep[summed] - value) <= 1e-15
    assert abs(rep["adeg"] - adeg * math.log(10)) <= 1e-12
    assert abs(rep["h0"] - rep["h1"] - rep["adeg"]) <= 1e-12


@pytest.mark.parametrize("rho", ["1000", "10000"])
def test_theta_of_a_bundle_at_unequal_radii_answers(capsys, rho):
    code, data = run_case(capsys, ["theta", "--field", '{"d": 5}', "--radii", f'["1/{rho}", {rho}]'])
    assert code == 0
    rep = data["report"]
    assert abs(rep["h1"] - rep["h0"] - 0.5 * math.log(5)) <= 2 * math.ulp(rep["h1"])


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
    c2 = u2[1] / tower.delta.b
    c = Fraction(math.isqrt(c2.numerator), math.isqrt(c2.denominator))
    assert c * c == c2
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


def test_every_readme_command_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("alk ")]
    assert len(lines) >= 12
    for line in lines:
        code, _ = run_cli(capsys, shlex.split(line)[1:])
        assert code == 0, line


def test_budget_below_one_is_a_usage_error(capsys):
    for budget in ("0", "-5", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--gram", "[[1]]", "--budget", budget])
        assert exc.value.code == 1, budget
        assert "argument --budget: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("gram, reduced", [
    ("[[1e14, 1e7], [1e7, 1.00000000000001]]", [[1, -1e-7], [-1e-7, 1 + 1e-14]]),
    ("[[1e12, 1e6], [1e6, 1.000000000001]]", [[1, -1e-6], [-1e-6, 1 + 1e-12]])])
def test_theta_of_a_sheared_gram_answers_at_once(gram, reduced):
    # det 1, so L is summed, on the basis e_2, e_1 - 10^7 e_2 (10^6 e_2),
    # whose Gram is well conditioned; the unreduced sum ran for minutes.
    # The Gram is read exactly, as `alk theta --gram` reads it
    lat = euclidean_lattice(json.loads(gram, parse_float=Fraction))
    rep = within_seconds(5, lambda: theta_invariants_euclidean(lat))
    want = enumeration.theta_log_sum(euclidean_lattice(reduced))[0]
    assert abs(rep.h0 - want) <= 1e-14
    assert rep.h1 == rep.h0


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

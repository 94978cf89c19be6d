"""Command-line interface: every operation behind a subcommand, JSON out.

Exit codes: 0 success, 2 hypothesis violation (the result is still
emitted), 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import arakelov, boxcount, enumeration, git4, localgeom, quartics, toralsets
from .numfield import FracIdeal, finite_places, make_quad_field, make_tower

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


@dataclass(frozen=True)
class RunConfig:
    budget: int = enumeration.DEFAULT_BUDGET
    seed: int = 0
    fmt: str = "json"


# ---------------------------------------------------------------------------
# parsing helpers


def _json_number(text: str) -> Fraction:
    """A JSON number with a fraction or an exponent, or a decimal string,
    read exactly as the decimal it is.  NaN, Infinity, exponents beyond a
    float's (|e| > 400, whose exact value would be costly to build) and
    text that is no decimal raise ValueError."""
    try:
        x = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    if not x.is_finite() or x and not -400 <= x.adjusted() <= 400:
        raise ValueError(f"not a finite number in a float's range: {text}")
    return Fraction(x)


def _json(text: str, what: str):
    """The JSON value of the option what with every number exact: integers
    as int, other numbers as Fraction; ValueError naming what on no JSON."""
    try:
        return json.loads(text, parse_float=_json_number, parse_constant=_json_number)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _fraction(x) -> Fraction:
    """A number given as a JSON number or a string, "p/q" or a decimal read
    as _json_number reads one; JSON true and false, which Python reads as
    1 and 0, raise ValueError."""
    if isinstance(x, str):
        return Fraction(x) if "/" in x else _json_number(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"not a number: {json.dumps(_jsonable(x))}")


def _int(x) -> int:
    """An integer given as a JSON integer, an integral number such as 2.0 or
    a decimal string such as "2"; anything else, true and false included,
    raises ValueError."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"not an integer: {json.dumps(_jsonable(x))}")


def _budget(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return int(text)


def _load(text, kind, what):
    """The JSON value of text, which must be an array (kind list) or an
    object (kind dict)."""
    data = _json(text, what) if isinstance(text, str) else text
    if not isinstance(data, kind):
        raise ValueError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return data


def _int_keys(text, what) -> list[tuple[int, object]]:
    """The (key, value) pairs of the JSON object what, each key read by `_int`."""
    data = _load(text, dict, what)
    try:
        return [(_int(key), value) for key, value in data.items()]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _parse_field(text):
    if text is None or text.lower() in ("q", "null"):
        return None
    data = _json(text, "--field")
    if data is None:
        return None
    return make_quad_field(_int(_load(data, dict, "--field")["d"]))


def _matrix_rows(text, what, sizes=None) -> list[list]:
    """The rows of a square JSON matrix, of a size in sizes when given."""
    rows = _load(text, list, what)
    if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ValueError(f"{what} must be a square matrix")
    if sizes and len(rows) not in sizes:
        raise ValueError(f"{what} must be " + " or ".join(f"{n}x{n}" for n in sizes))
    return rows


def _parse_matrix(text, what, sizes=None):
    rows = _matrix_rows(text, what, sizes)
    try:
        return [[_fraction(x) for x in row] for row in rows]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def tower_from_json(data) -> object:
    data = _load(_json(data, "--tower") if isinstance(data, str) else data, dict, "a tower")

    def field(key):
        if key in data:
            return data[key]
        raise ValueError(f"{data.get('kind', 'a')} tower needs the field {key!r}")

    kind = field("kind")
    if kind == "zeta5":
        return quartics.zeta5_tower()
    if kind == "sqrt2plus":
        return quartics.sqrt2plus_tower()
    if kind == "biquadratic":
        return quartics.biquadratic_tower(_int(field("d")), _int(field("e")))
    if kind == "dihedral":
        return quartics.dihedral_tower(_int(field("d")), _fraction(field("a")),
                                       _fraction(field("b")))
    if kind == "gaussian":
        return quartics.gaussian_period_tower(_int(field("p")))
    if kind == "quadratic":
        return make_tower(None, _fraction(field("delta")))
    raise ValueError(f"unknown tower kind {json.dumps(_jsonable(kind))}")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {_key(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if hasattr(x, "to_dict"):
        return _jsonable(x.to_dict())
    if hasattr(x, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(x).items()}
    return repr(x)


def _key(k):
    if isinstance(k, tuple):
        return "".join(str(i) for i in k)
    return str(k)


def _render(report: dict, fmt: str) -> list[str]:
    """The output lines of a report; a NaN or infinity in it raises
    ValueError in either format, as it has no JSON value.  Python's bound
    on the digits of an int converted to text guards the parsing of input;
    exact results from bounded input may pass it, so it is lifted here."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        data = _jsonable(report)
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
        if fmt == "csv":
            # true, false and null as in JSON; strings and numbers as they are
            return [f"{k},{json.dumps(v) if v is None or isinstance(v, bool) else v}"
                    for k, v in _flatten(data)]
        return [text]
    finally:
        sys.set_int_max_str_digits(limit)


def _flatten(data, prefix=""):
    out = []
    if isinstance(data, dict):
        for k in sorted(data):
            out.extend(_flatten(data[k], f"{prefix}{k}."))
    elif isinstance(data, list):
        for i, v in enumerate(data):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix[:-1], data))
    return out


def _radius_family(field, rinf, rfin_text):
    finite = []
    for p, r in _int_keys(rfin_text, "--rfin") if rfin_text is not None else ():
        radii = r if isinstance(r, list) else [r]
        places = finite_places(field, p)
        if len(radii) != len(places):
            raise ValueError(f"--rfin at {p}: {len(radii)} radii for "
                             f"{len(places)} place(s) over {p}")
        finite.extend((place, _fraction(ru)) for place, ru in zip(places, radii))
    return boxcount.make_radius_family(field, finite, [_fraction(r) for r in rinf])


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (report dict, exit code))


def _cmd_theta(args, cfg: RunConfig):
    if args.gram is not None:
        given = [name for name, value in (("--field", args.field), ("--radii", args.radii),
                                          ("--canonical", args.canonical or None))
                 if value is not None]
        if given:
            raise ValueError(f"--gram cannot be combined with {', '.join(given)}")
        gram = _parse_matrix(args.gram, "--gram")
        lat = arakelov.euclidean_lattice(gram)
        rep = arakelov.theta_invariants_euclidean(lat, budget=cfg.budget)
        return {"report": rep.to_dict(), "kind": "euclidean"}, EXIT_OK
    field = _parse_field(args.field)
    bundle = (arakelov.canonical_bundle if args.canonical else arakelov.trivial_bundle)(field)
    if args.radii is not None:
        radii = tuple(_fraction(r) for r in _load(args.radii, list, "--radii"))
        bundle = arakelov.make_bundle(field, bundle.ideal, radii)
    rep, h0ar = arakelov.bundle_theta_and_h0ar(bundle, budget=cfg.budget)
    return {"report": rep.to_dict(), "h0_ar": h0ar, "kind": "bundle"}, EXIT_OK


def _cmd_count_box(args, cfg: RunConfig):
    field = _parse_field(args.field)
    rinf = _json(args.rinf, "--rinf")
    if not isinstance(rinf, list):
        rinf = [rinf]
    fam = _radius_family(field, rinf, args.rfin)
    res = boxcount.counting_bound_check(field, fam, _fraction(args.c), cfg.budget)
    code = EXIT_OK if res["hypothesis_ok"] else EXIT_HYPOTHESIS
    return res, code


def _cmd_local(args, cfg: RunConfig):
    gamma = _parse_matrix(args.matrix, "--matrix", (2, 4))
    if len(gamma) == 4:
        F = make_quad_field(args.d)
        res = localgeom.block_integrality(F, gamma, args.prime, args.conductor)
        return res, EXIT_OK
    ext = localgeom.different_and_orders(args.d, args.prime, args.conductor)
    checks = localgeom.integrality_checks(ext, gamma)
    psi = localgeom.psi_invariant(ext.torus, gamma)
    bound = localgeom.psi_bound_finite(ext, gamma)
    return {
        "ext": {"p": ext.p, "type": ext.ext_type, "conductor": ext.conductor,
                "disc_u": ext.disc_u},
        "psi": psi,
        "psi_bound": {"abs": bound["abs"], "disc_u": bound["disc_u"],
                      "ok": bound["ok"]},
        "integrality": {k: v for k, v in checks.items() if k != "coords"},
    }, EXIT_OK


def _cmd_invariants(args, cfg: RunConfig):
    tower = tower_from_json(args.tower)
    emb = git4.regular_embedding(tower)
    gtype = toralsets.classify_galois_type(tower)
    gamma = _parse_matrix(args.matrix, "--matrix", (4,))
    profile = git4.psi_invariants(emb, gamma, gtype)
    block = git4.block_membership_test(emb, gamma, gtype)
    values = {}
    for s, v in profile.values:
        values[_key(s)] = v if not hasattr(v, "coeffs") else list(v.coeffs)
    # coordinates on the Kummer basis of the Galois closure: products of
    # sqrt(d), u and v, with u^2 = a + b sqrt(d) and v^2 = a - b sqrt(d)
    return {
        "galois_type": gtype,
        "d": tower.base.d,
        "u^2": list(emb.closure.squares[1]),
        "basis": ["*".join(g for b, g in enumerate(("sqrt(d)", "u", "v")) if i >> b & 1)
                  or "1" for i in range(emb.closure.degree)],
        "values": values,
        "in_R": block["in_R"],
        "vanishing_on_special": block["vanishing"],
    }, EXIT_OK


def _cmd_entropy(args, cfg: RunConfig):
    a = [_fraction(x) for x in _load(args.a, list, "--a")]
    data = git4.entropy_quantities(a, args.prime)
    return {
        "logs": list(data.logs),
        "eta": {k: v for k, v in data.eta.items()},
        "h_haar": data.h_haar,
        "h_int": data.h_int,
        "in_A_prime": data.in_A_prime,
    }, EXIT_OK


def _cmd_tau_window(args, cfg: RunConfig):
    res = git4.tau_window(args.eta, args.hint, args.DK, args.DF,
                          c=_fraction(args.c), kappa=args.kappa,
                          mode=args.mode, eps=args.eps, beta=args.beta)
    return res, EXIT_OK


def _cmd_disc(args, cfg: RunConfig):
    tower = tower_from_json(args.tower)
    text = args.conductors if args.conductors is not None else "{}"
    conductors = {p: _int(f) for p, f in _int_keys(text, "--conductors")}
    arch = _parse_matrix(args.arch, "--arch") if args.arch is not None else None
    desc = toralsets.make_descriptor(tower, conductors, arch)
    return toralsets.nonarch_and_global_disc(desc), EXIT_OK


def _cmd_classify(args, cfg: RunConfig):
    tower = tower_from_json(args.tower)
    return {"type": toralsets.classify_galois_type(tower)}, EXIT_OK


def _cmd_cyclic_check(args, cfg: RunConfig):
    tower = tower_from_json(args.tower)
    res = toralsets.cyclic_disc_check(tower)
    return res, EXIT_OK if res["pass"] else EXIT_HYPOTHESIS


def _cmd_linnik_rhs(args, cfg: RunConfig):
    if args.special:
        res = toralsets.linnik_rhs_special(args.disc, args.DF, args.tau,
                                           args.h, args.eps)
        return res, EXIT_OK
    res = toralsets.linnik_rhs(args.disc, args.vol, args.tau, args.h,
                               args.eps, c=float(_fraction(args.c)), D_F=args.DF)
    code = EXIT_OK if res["in_hypothesis"] else EXIT_HYPOTHESIS
    return res, code


def _cmd_verify_all(args, cfg: RunConfig):
    checks = sorted(_verification_battery(cfg), key=lambda c: c["id"])
    ok = all(c["pass"] for c in checks)
    return {"checks": checks, "pass": ok}, EXIT_OK if ok else EXIT_ERROR


def _verification_battery(cfg: RunConfig) -> list[dict]:
    rng = random.Random(cfg.seed)
    out = []

    def record(check_id, passed, detail):
        out.append({"id": check_id, "pass": bool(passed), "detail": detail})

    # Poisson-Riemann-Roch on random small lattices: the report derives one
    # side from the other, so both are held against direct sums of L and L*
    worst = 0.0
    for _ in range(5):
        n = rng.randint(1, 3)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        gram = [[sum(m[i][k] * m[j][k] for k in range(n)) + (4 if i == j else 0)
                 for j in range(n)] for i in range(n)]
        lat = arakelov.euclidean_lattice(gram)
        rep = arakelov.theta_invariants_euclidean(lat, budget=cfg.budget)
        h0, _, _ = enumeration.theta_log_sum(lat, budget=cfg.budget)
        h1, _, _ = enumeration.theta_log_sum(lat.dual(), budget=cfg.budget)
        worst = max(worst, abs(rep.h0 - h0), abs(rep.h1 - h1))
    record("01_poisson_riemann_roch", worst < 1e-9, {"worst": worst})

    # canonical bundle degree equals log of the field discriminant
    worst = 0.0
    for d in (-1, 2, 5, -3):
        F = make_quad_field(d)
        got = arakelov.adeg(arakelov.canonical_bundle(F))
        worst = max(worst, abs(got - math.log(F.disc)))
    record("02_canonical_degree", worst < 1e-9, {"worst": worst})

    # a bundle's one-sum h1 (derived or summed on L*) against h0 of the
    # Serre twist, summed on its own lattice
    worst = 0.0
    for d in (-1, 2, 5, -3):
        F = make_quad_field(d)
        gen = F.elem(rng.randint(1, 3), rng.randint(-2, 2))
        radii = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(2)]
        bundle = arakelov.make_bundle(F, FracIdeal.from_gens(F, [gen]),
                                      radii if F.is_real else radii[:1] * 2)
        rep, _ = arakelov.bundle_theta_and_h0ar(bundle, budget=cfg.budget)
        worst = max(worst, abs(rep.h1 - arakelov.h1_via_duality(bundle, budget=cfg.budget)))
    record("02_serre_duality_h1", worst < 1e-9, {"worst": worst})

    # box count worked example
    F = make_quad_field(-1)
    fam = boxcount.make_radius_family(F, [], [2])
    count = boxcount.count_box(F, fam, cfg.budget)
    record("03_box_count_gaussian", count == 9, {"count": count})

    # psi invariant worked example
    torus = localgeom.standard_torus(2)
    psi = localgeom.psi_invariant(torus, [[1, 1], [0, 1]])
    record("04_psi_unipotent", psi == Fraction(-1, 2), {"psi": str(psi)})

    # orbital measure example
    val = localgeom.orbital_measure_split(8, "split_nonarch", q=2)
    oracle = localgeom.orbital_measure_split_oracle(8, 2)
    record("05_orbital_measure", val == 4.0 and oracle == 4,
           {"formula": val, "oracle": oracle})

    # identity profile
    emb = git4.regular_embedding(quartics.zeta5_tower())
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    prof = git4.psi_invariants(emb, ident)
    delta_ok = all(
        (v == 1) == (s == git4.IDENTITY) and (s == git4.IDENTITY or v == 0)
        for s, v in prof.values
    )
    record("06_psi_identity", delta_ok, {})

    # entropy worked example
    p = 2
    ent = git4.entropy_quantities([4, 2, Fraction(1, 2), Fraction(1, 4)], p)
    lp = math.log(p)
    ent_ok = (abs(ent.eta["cyclic"] - 12 * lp) < 1e-12
              and abs(ent.h_int - 2 * lp) < 1e-12
              and abs(ent.h_haar - 14 * lp) < 1e-12 and ent.in_A_prime)
    record("07_entropy_example", ent_ok, {"h_haar": ent.h_haar})

    win = git4.tau_window(12 * lp, 2 * lp, 2 ** 60, 2 ** 4, c=1, kappa=0.0)
    win_ok = abs(win["lo"] - 2.5) < 1e-9 and abs(win["hi"] - 12.0) < 1e-9
    record("08_tau_window", win_ok, win)

    for name, tower in (("zeta5", quartics.zeta5_tower()),
                        ("sqrt2plus", quartics.sqrt2plus_tower())):
        res = toralsets.cyclic_disc_check(tower)
        record(f"09_cyclic_disc_{name}", res["pass"],
               {"D_rel": res["D_rel"], "D_F": res["D_F"]})

    rhs = toralsets.linnik_rhs(1e6, 1e3, 1.0, math.log(10.0), 0.0)
    record("10_linnik_rhs", abs(rhs["value"] - (1e-3 + 1e-2)) < 1e-12,
           {"value": rhs["value"]})

    # Leibniz sum and Galois relations in the degree-8 dihedral closure
    emb = git4.regular_embedding(quartics.dihedral_tower(2, 1, 1))
    gamma = [[1, Fraction(1, 2), 0, 0], [0, 1, 2, 0], [0, 0, Fraction(1, 3), 0],
             [1, 0, 0, 1]]
    sum_ok = git4.psi_sum_check(emb, gamma) == 1
    rel_ok = git4.pattern_and_relation_check(emb, gamma, "dihedral")["pass"]
    record("11_psi_dihedral_closure", sum_ok and rel_ok,
           {"closure_degree": emb.closure.degree, "psi_sum_is_one": sum_ok,
            "relations": rel_ok})
    return out


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps subparser defaults from clobbering values given before
    # the subcommand
    common.add_argument("--format", default=argparse.SUPPRESS,
                        choices=["json", "csv"])
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=_budget, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(prog="alk", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("theta")
    p.add_argument("--gram")
    p.add_argument("--field")
    p.add_argument("--radii")
    p.add_argument("--canonical", action="store_true")
    p.set_defaults(handler=_cmd_theta)

    p = add_parser("count-box")
    p.add_argument("--field")
    p.add_argument("--rinf", required=True)
    p.add_argument("--rfin")
    p.add_argument("--c", default="1")
    p.set_defaults(handler=_cmd_count_box)

    p = add_parser("local")
    p.add_argument("--matrix", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--conductor", type=int, default=1)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_local)

    p = add_parser("invariants")
    p.add_argument("--tower", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_invariants)

    p = add_parser("entropy")
    p.add_argument("--a", required=True)
    p.add_argument("--prime", type=int)
    p.set_defaults(handler=_cmd_entropy)

    p = add_parser("tau-window")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--hint", type=float, required=True)
    p.add_argument("--DK", type=float, required=True)
    p.add_argument("--DF", type=float, required=True)
    p.add_argument("--c", default="1")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--mode", default="main", choices=["main", "refined"])
    p.add_argument("--eps", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(handler=_cmd_tau_window)

    p = add_parser("disc")
    p.add_argument("--tower", required=True)
    p.add_argument("--conductors")
    p.add_argument("--arch")
    p.set_defaults(handler=_cmd_disc)

    p = add_parser("classify")
    p.add_argument("--tower", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = add_parser("cyclic-check")
    p.add_argument("--tower", required=True)
    p.set_defaults(handler=_cmd_cyclic_check)

    p = add_parser("linnik-rhs")
    p.add_argument("--disc", type=float, required=True)
    p.add_argument("--vol", type=float, default=1.0)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--c", default="1")
    p.add_argument("--DF", type=float, default=1.0)
    p.add_argument("--special", action="store_true")
    p.set_defaults(handler=_cmd_linnik_rhs)

    p = add_parser("verify-all")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def _check_finite(args) -> None:
    """Refuse NaN and infinities in the float options before any work."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, not {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # reserve exit code 2 for hypothesis violations; usage errors are 1
        raise SystemExit(EXIT_ERROR if exc.code not in (0, None) else 0)
    cfg = RunConfig(budget=getattr(args, "budget", enumeration.DEFAULT_BUDGET),
                    seed=getattr(args, "seed", 0),
                    fmt=getattr(args, "format", "json"))
    try:
        _check_finite(args)
        report, code = args.handler(args, cfg)
        lines = _render(report, cfg.fmt)
    except (ValueError, ArithmeticError, KeyError, json.JSONDecodeError,
            enumeration.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is left to devnull so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

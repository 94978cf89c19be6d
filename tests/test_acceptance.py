"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line (visible even under pytest's
capture) and asserts the same condition, so the summary is readable from
the raw test log.
"""

import math
import random
import time
from fractions import Fraction

from alk import arakelov, boxcount, enumeration, git4, localgeom, quartics, toralsets
from alk.numfield import content, finite_places, make_quad_field, make_tower
from alk.ratlinalg import mat_det
from conftest import (
    random_gl2_zp,
    random_invertible,
    random_nonzero_elem,
    random_posdef_gram,
    random_principal_bundle,
)

QUAD_FIELDS = [make_quad_field(d) for d in (-1, 2, 5, -3)]


def _report(capsys, num, desc, ok):
    line = f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_theta_duality(capsys):
    rng = random.Random(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        n = rng.randint(1, 3)
        lat = arakelov.euclidean_lattice(random_posdef_gram(rng, n))
        # the report derives one side from the other by Poisson summation;
        # both are held against the kernel's direct sums of L and L*
        rep = arakelov.theta_invariants_euclidean(lat)
        h0, _, _ = enumeration.theta_log_sum(lat)
        h1, _, _ = enumeration.theta_log_sum(lat.dual())
        worst = max(worst, abs(rep.h0 - h0), abs(rep.h1 - h1))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(capsys, 1,
            f"theta duality residual {worst:.2e} against direct sums of L and "
            f"L* on 20 random lattices of rank <= 3 in {elapsed:.2f}s (< 1e-9, < 10s)", ok)


def test_criterion_02_canonical_degree_and_h1_route(capsys):
    worst_deg = 0.0
    for F in QUAD_FIELDS:
        got = arakelov.adeg(arakelov.canonical_bundle(F))
        worst_deg = max(worst_deg, abs(got - math.log(F.disc)))
    rng = random.Random(102)
    worst_h1 = 0.0
    for i in range(20):
        F = QUAD_FIELDS[i % 4]
        bundle = random_principal_bundle(rng, F)
        lat = arakelov.direct_image(bundle)
        h1_direct, _, _ = enumeration.theta_log_sum(lat.dual())
        h1_dual = arakelov.h1_via_duality(bundle)
        worst_h1 = max(worst_h1, abs(h1_direct - h1_dual))
    ok = worst_deg < 1e-9 and worst_h1 < 1e-9
    _report(capsys, 2,
            f"canonical degree residual {worst_deg:.2e} on 4 fields and "
            f"duality-route gap {worst_h1:.2e} on 20 bundles (< 1e-9)", ok)


def test_criterion_03_box_count_versus_theta(capsys):
    rng = random.Random(103)
    ok = True
    worst = -1e9
    for i in range(50):
        F = QUAD_FIELDS[i % 4]
        bundle = random_principal_bundle(rng, F)
        report, h0_ar = arakelov.bundle_theta_and_h0ar(bundle)
        slack = report.h0 + 2 * math.pi - h0_ar
        worst = max(worst, -slack)
        if h0_ar > report.h0 + 2 * math.pi + 1e-9:
            ok = False
    _report(capsys, 3,
            f"unit-box section count below theta + pi*n on 50 bundles "
            f"(worst excess {worst:.2e})", ok)


def test_criterion_04_counting_bound_sweep(capsys):
    rng = random.Random(104)
    ok = True
    fields = [None] + QUAD_FIELDS
    cases = 0
    while cases < 200:
        F = fields[cases % 5]
        finite = []
        if F is None:
            for p in (2, 3):
                if rng.random() < 0.4:
                    from alk.numfield import Place

                    e = rng.choice([-1, 1])
                    finite.append((Place(None, "finite", p, "ramified"),
                                   Fraction(p) ** e))
            inf = [Fraction(rng.randint(1, 9), rng.randint(1, 2))]
            fam = boxcount.make_radius_family(None, finite, inf)
            disc = 1
        else:
            for p in (2, 3, 5):
                if rng.random() < 0.4:
                    place = finite_places(F, p)[0]
                    e = rng.choice([-1, 1])
                    finite.append((place, Fraction(place.residue_size) ** e))
            if F.is_real:
                inf = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))]
            else:
                inf = [Fraction(rng.randint(1, 8))]
            fam = boxcount.make_radius_family(F, finite, inf)
            disc = F.disc
        norm = boxcount.norm_of_family(fam)
        c = min(Fraction(1), Fraction(norm) / disc)
        res = boxcount.counting_bound_check(F, fam, c)
        naive = boxcount.count_box_naive(F, fam)
        if not (res["hypothesis_ok"] and res["passed"]
                and res["count"] == naive):
            ok = False
        cases += 1
    _report(capsys, 4,
            "200-case sweep: count below the uniform bound and equal to the "
            "naive enumeration", ok)


def test_criterion_05_product_formula(capsys):
    rng = random.Random(105)
    worst = 0.0
    for F in QUAD_FIELDS:
        for _ in range(100):
            x = F.elem(Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
            if x.is_zero():
                continue
            worst = max(worst, abs(content(F, x) - 1.0))
    ok = worst < 1e-10
    _report(capsys, 5,
            f"product formula residual {worst:.2e} on 100 elements per field "
            f"(< 1e-10)", ok)


def test_criterion_06_torus_coordinates(capsys):
    rng = random.Random(106)
    ok = True
    # exact reconstruction and the determinant identity
    for D, f in ((2, 1), (5, 1), (-1, 1), (5, 3)):
        torus = localgeom.order_torus(D, f)
        for _ in range(25):
            gamma = random_invertible(rng, 2)
            lc = localgeom.local_coords(torus, gamma)
            back = localgeom.reconstruct(torus, lc)
            if any(back[i][j] != gamma[i][j]
                   for i in range(2) for j in range(2)):
                ok = False
            det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
            if lc.b1.norm() - lc.b2.norm() != det:
                ok = False
    # worked invariant value
    torus = localgeom.standard_torus(2)
    unipotent = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    if localgeom.psi_invariant(torus, unipotent) != Fraction(-1, 2):
        ok = False
    # invariant bounded by the local discriminant on integral matrices
    for D, p, f in ((2, 2, 1), (-1, 2, 1), (5, 5, 1), (5, 2, 1)):
        ext = localgeom.different_and_orders(D, p, f)
        for _ in range(100):
            if not localgeom.psi_bound_finite(ext, random_gl2_zp(rng, p))["ok"]:
                ok = False
    _report(capsys, 6,
            "exact reconstruction, determinant identity, unipotent value "
            "-1/2, and |psi| <= disc_u on 100 integral matrices per config", ok)


def test_criterion_07_orbital_measures(capsys):
    rng = random.Random(107)
    ok = localgeom.orbital_measure_split(Fraction(8), "split_nonarch", q=2) == 4.0
    checked = 0
    while checked < 100:
        q = rng.choice([2, 3, 5])
        psi = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if psi == 0 or psi == -1:
            continue
        got = localgeom.orbital_measure_split(psi, "split_nonarch", q=q)
        if got != localgeom.orbital_measure_split_oracle(psi, q):
            ok = False
        checked += 1
    _report(capsys, 7,
            "split orbital measure equals the range-count oracle on 100 "
            "inputs, including the value 4 at |psi| = p^-3", ok)


def test_criterion_08_invariant_relations(capsys):
    rng = random.Random(108)
    ok = True
    cases = ((quartics.zeta5_tower(), "cyclic"),
             (quartics.biquadratic_tower(2, 3), "biquadratic"),
             (quartics.dihedral_tower(2, 1, 1), "dihedral"))
    for tower, gtype in cases:
        emb = git4.regular_embedding(tower)
        for _ in range(100):
            gamma = random_invertible(rng, 4)
            res = git4.pattern_and_relation_check(emb, gamma, gtype)
            if not res["pass"]:
                ok = False
        # block membership: both in-block and generic samples
        for _ in range(10):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
            gamma = emb.regular_matrix(coeffs)
            if mat_det([row[:] for row in gamma]) == 0:
                continue
            if not git4.block_membership_test(emb, gamma, gtype)["routes_agree"]:
                ok = False
            other = git4.block_membership_test(emb, random_invertible(rng, 4),
                                               gtype)
            if not other["routes_agree"]:
                ok = False
        # identity profile is the delta at the identity permutation
        ident = [[Fraction(1 if i == j else 0) for j in range(4)]
                 for i in range(4)]
        prof = git4.psi_invariants(emb, ident)
        for s, v in prof.values:
            if v != (1 if s == git4.IDENTITY else 0):
                ok = False
    _report(capsys, 8,
            "Galois relations and entry patterns on 100 matrices per type, "
            "block membership routes agree, identity profile is a delta", ok)


def test_criterion_09_entropy_and_bowen(capsys):
    p = 2
    lp = math.log(p)
    ent = git4.entropy_quantities([Fraction(4), Fraction(2), Fraction(1, 2),
                                   Fraction(1, 4)], p)
    win = git4.tau_window(12 * lp, 2 * lp, 2 ** 60, 2 ** 4)
    ok = (abs(ent.eta["cyclic"] - 12 * lp) < 1e-12
          and abs(ent.h_int - 2 * lp) < 1e-12
          and abs(ent.h_haar - 14 * lp) < 1e-12
          and ent.in_A_prime
          and abs(win["lo"] - 2.5) < 1e-9 and abs(win["hi"] - 12.0) < 1e-9)
    rng = random.Random(109)
    for _ in range(200):
        q = rng.choice([2, 3, 5])
        n = rng.choice([2, 3])
        ball = git4.BowenBall(
            q, tuple(Fraction(q) ** rng.randint(-2, 2) for _ in range(n)),
            rng.randint(0, 3))
        x = [[Fraction(rng.randint(-8, 8)) * Fraction(q) ** rng.randint(-1, 2)
              for _ in range(n)] for _ in range(n)]
        if git4.bowen_membership(x, ball) != git4.bowen_membership_loop(x, ball):
            ok = False
    _report(capsys, 9,
            "entropy worked example (eta 12logp, h_int 2logp, h_haar 14logp, "
            "window (2.5, 12]) and Bowen closed form equals the loop on 200 "
            "triples", ok)


def test_criterion_10_cyclic_discriminant_inequality(capsys):
    towers = [quartics.zeta5_tower(), quartics.sqrt2plus_tower()]
    towers += [quartics.gaussian_period_tower(p)
               for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97)]
    ok = True
    for tower in towers:
        res = toralsets.cyclic_disc_check(tower)
        if not (res["pass"] and 4 * res["D_rel"] >= res["D_F"]):
            ok = False
    _report(capsys, 10,
            "relative discriminant at least D_F/4 on 12 cyclic quartic "
            "towers", ok)


def test_criterion_11_basic_lemma_rhs(capsys):
    ok = True
    # the special maximal-type shape: decaying term equals the generic one
    # at volume sqrt(disc) * D_F, leading term is disc^(-1/2+eps)
    disc, df, tau, h, eps = 1e8, 5.0, 1.5, math.log(3.0), 0.02
    special = toralsets.linnik_rhs_special(disc, df, tau, h, eps)
    generic = toralsets.linnik_rhs(disc, math.sqrt(disc) * df, tau, h, eps,
                                   D_F=df)
    if abs(special["terms"]["disc"] - generic["terms"]["disc"]) \
            > 1e-12 * special["terms"]["disc"]:
        ok = False
    if abs(special["terms"]["volume"] - disc ** (-0.5 + eps)) > 1e-18:
        ok = False
    # three direct numeric evaluations
    cases = [
        (1e6, 1e3, 1.0, math.log(10.0), 0.0),
        (1e4, 50.0, 0.5, math.log(2.0), 0.1),
        (2.5e9, 4.0e4, 2.0, 1.0, 0.01),
    ]
    for d, vol, t, hh, e in cases:
        res = toralsets.linnik_rhs(d, vol, t, hh, e)
        want = 1.0 / vol + d ** (1.0 + e) / vol ** 2 * math.exp(-2.0 * t * hh)
        if abs(res["value"] - want) > 1e-15 * want:
            ok = False
    # boundary flagging
    base = toralsets.linnik_rhs(1e6, 1e3, 1.0, math.log(10.0), 0.0)
    beyond = toralsets.linnik_rhs(1e6, 1e3, base["tau_max"] + 1e-6,
                                  math.log(10.0), 0.0)
    if base["status"] != "ok" or beyond["status"] != "out_of_hypothesis":
        ok = False
    _report(capsys, 11,
            "closed-form right-hand side: special shape, three numeric "
            "evaluations, and hypothesis-boundary flagging", ok)

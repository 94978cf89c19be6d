"""The three benchmark workloads: seeded inputs, operations and oracles.

Every workload is a closed loop of rounds.  A round is a fixed mix of
operation kinds in a seeded order with seeded inputs, so the mix (and so
which kind sits at the median and at p90) is the same for every seed
while the data differ.  The mixes are sized so that the median and p90
fall inside one kind's latency cluster, not on the edge between two.  An operation is one call, or one short chain of
calls, into alk; its check compares the result with an oracle from
`oracles.py` that does not use the route being timed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles as orc

# alk modules are imported in `setup`, because importing them is part of
# the measured set-up time.
alk = git4 = quartics = localgeom = toralsets = arakelov = boxcount = numfield = None


def _import_alk():
    global alk, git4, quartics, localgeom, toralsets, arakelov, boxcount, numfield
    import alk as _alk
    from alk import arakelov as _ar, boxcount as _bc, git4 as _g4, localgeom as _lg
    from alk import numfield as _nf, quartics as _qu, toralsets as _ts
    alk, git4, quartics, localgeom = _alk, _g4, _qu, _lg
    toralsets, arakelov, boxcount, numfield = _ts, _ar, _bc, _nf


@dataclass
class Op:
    kind: str
    label: str  # the input, for failure reports
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when correct, else why not
    route: str = ""  # git4 route tag (exact, float53, float128)
    expect: Optional[type] = None  # exception the call must raise


def judge(op: Op, result, error) -> tuple[str, str]:
    """('ok' | 'raised' | 'wrong', reason)."""
    if error is not None:
        if op.expect is not None and isinstance(error, op.expect):
            return "ok", ""
        return "raised", f"{type(error).__name__}: {error}"
    if op.expect is not None:
        return "wrong", f"returned instead of raising {op.expect.__name__}"
    try:
        why = op.check(result)
    except Exception as exc:  # an oracle that cannot read the result
        why = f"oracle failed on the result: {type(exc).__name__}: {exc}"
    return ("ok", "") if why is None else ("wrong", why)


def _random_invertible(rng, n, span=3):
    while True:
        m = [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]
        if orc.det_fraction(m) != 0:
            return m


def _expect(cond: bool, why: str) -> Optional[str]:
    return None if cond else why


# ---------------------------------------------------------------------------
# torus_invariants: GL4 invariants on quartic towers, GL2 torus coordinates


GL2_CONFIGS = ((2, 2), (5, 5), (-1, 2), (-7, 7), (13, 13), (-3, 3))


class TorusInvariants:
    name = "torus_invariants"
    trace_rounds = 5

    def setup(self):
        _import_alk()
        towers = {
            "zeta5": (quartics.zeta5_tower(), "cyclic"),
            "gauss13": (quartics.gaussian_period_tower(13), "cyclic"),
            "biquadratic": (quartics.biquadratic_tower(2, 3), "biquadratic"),
            "dihedral": (quartics.dihedral_tower(2, 1, 1), "dihedral"),
        }
        self.embeddings = []  # (name, route, embedding, Galois type, tower)
        for name in ("zeta5", "gauss13", "biquadratic"):
            tower, gtype = towers[name]
            self.embeddings.append((name, "exact", git4.regular_embedding(tower),
                                    gtype, tower))
        tower, gtype = towers["dihedral"]
        for bits in (53, 128):
            saved = os.environ.get("ALK_PRECISION")
            os.environ["ALK_PRECISION"] = str(bits)
            try:
                emb = git4.regular_embedding(tower)
            finally:
                if saved is None:
                    del os.environ["ALK_PRECISION"]
                else:
                    os.environ["ALK_PRECISION"] = saved
            self.embeddings.append(("dihedral", f"float{bits}", emb, gtype, tower))
        self.gl2 = []
        for D, p in GL2_CONFIGS:
            ext = localgeom.different_and_orders(D, p, 1)
            alpha = orc.omega(D)
            self.gl2.append((D, p, ext, localgeom.QuadTorus(ext.K, ext.alpha), alpha))

    def warmup_ops(self):
        rng = random.Random(0)
        ops = [op for op in self._gl4_ops(rng, self.embeddings[3]) if op.kind == "pattern"]
        ops += [op for op in self._gl4_ops(rng, self.embeddings[4]) if op.kind == "pattern"]
        ops += self._gl2_ops(rng, self.gl2[0])
        return ops

    def round(self, rng):
        # 35 operations: 6 exact pattern checks (70-170 ms) hold p90,
        # 9 other exact ones (15-50 ms), and 20 float-route and GL2 ones
        # (1-3 ms) hold the median
        ops = []
        for entry in self.embeddings:
            ops += self._gl4_ops(rng, entry)
            if entry[1] == "exact":
                ops += [op for op in self._gl4_ops(rng, entry) if op.kind == "pattern"]
        for cfg in self.gl2:
            ops += self._gl2_ops(rng, cfg)
        rng.shuffle(ops)
        return ops

    def _gl4_ops(self, rng, entry):
        name, route, emb, gtype, tower = entry
        exact = route == "exact"
        mp = [Fraction(c) for c in tower.theta_min_poly]
        sqrt_d = orc.mult_rows(mp, tower.sqrt_d_coords)
        tag = f"{name}/{route}"

        g1 = _random_invertible(rng, 4)

        def check_pattern(res):
            return _expect(res["pass"], f"relation checks failed: {res}")

        while True:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            g2 = orc.mult_rows(mp, coeffs)
            if orc.det_fraction(g2) != 0:
                break

        def check_block_in(res):
            return _expect(res["in_R"] and res["vanishing"] and res["routes_agree"],
                           f"in-block matrix not recognised: in_R={res['in_R']} "
                           f"vanishing={res['vanishing']}")

        g3 = _random_invertible(rng, 4)
        in_r3 = orc.mat_mul(sqrt_d, g3) == orc.mat_mul(g3, sqrt_d)

        def check_block_rand(res):
            return _expect(res["in_R"] == in_r3 and res["routes_agree"],
                           f"block routes: in_R={res['in_R']} (oracle {in_r3}), "
                           f"vanishing={res['vanishing']}")

        g4m = _random_invertible(rng, 4)

        def check_psi(res):
            total = [0j if not exact else Fraction(0)] * 4
            for _, v in res.values:
                coeffs = v.coeffs if hasattr(v, "coeffs") else (v, 0, 0, 0)
                total = [t + (c if exact else complex(c)) for t, c in zip(total, coeffs)]
            if exact:
                return _expect(total == [1, 0, 0, 0], f"Leibniz sum {total} != 1")
            err = abs(total[0] - 1)
            return _expect(err < 1e-6, f"Leibniz sum off by {err:.3g}")

        return [
            Op("pattern", f"{tag} {g1}", lambda: git4.pattern_and_relation_check(
                emb, g1, gtype), check_pattern, route),
            Op("block_in", f"{tag} regular {coeffs}", lambda: git4.block_membership_test(
                emb, g2, gtype), check_block_in, route),
            Op("block_rand", f"{tag} {g3}", lambda: git4.block_membership_test(
                emb, g3, gtype), check_block_rand, route),
            Op("psi", f"{tag} {g4m}", lambda: git4.psi_invariants(emb, g4m, gtype),
               check_psi, route),
        ]

    def _gl2_ops(self, rng, cfg):
        D, p, ext, torus, alpha = cfg
        while True:
            gamma = [[Fraction(rng.randint(-p * p, p * p)) for _ in range(2)]
                     for _ in range(2)]
            det = gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]
            if det != 0 and orc.vp(det, p) == 0:
                break
        m = orc.torus_coords(D, alpha, gamma)
        b1, b2 = m[0][0], m[0][1]
        psi = orc.qnorm(b2, D) / det
        disc_u = Fraction(p) ** orc.vp(orc.quad_disc(D), p)
        abs_psi = Fraction(0) if psi == 0 else Fraction(p) ** -orc.vp(psi, p)

        def check_coords(lc):
            got1, got2 = (lc.b1.a, lc.b1.b), (lc.b2.a, lc.b2.b)
            if (got1, got2) != (b1, b2):
                return f"coordinates {got1}, {got2} != oracle {b1}, {b2}"
            return _expect(orc.qnorm(b1, D) - orc.qnorm(b2, D) == det,
                           "determinant identity fails")

        def check_bound(res):
            return _expect(res["psi"] == psi and res["disc_u"] == disc_u
                           and res["ok"] and abs_psi <= disc_u,
                           f"psi {res['psi']} (oracle {psi}), disc_u {res['disc_u']} "
                           f"(oracle {disc_u}), ok={res['ok']}")

        label = f"D={D} p={p} {gamma}"
        return [
            Op("gl2_coords", label, lambda: localgeom.local_coords(torus, gamma),
               check_coords),
            Op("gl2_psi_bound", label, lambda: localgeom.psi_bound_finite(ext, gamma),
               check_bound),
        ]


# ---------------------------------------------------------------------------
# adelic_counts: theta invariants and exact box counts


BUNDLE_FIELDS = (-1, 2, 5, -3, -7, 13)
# class number one, so every prime ideal is principal and the box-count
# oracle can divide out its generator
BOX_FIELDS = (-1, -2, -3, -7, -11, 2, 3, 5, 13)
BOX_PRIMES = (2, 3, 5, 7, 11, 13)
# The defect probe: badly conditioned ideals P^e at split primes, which
# the float Cholesky route of count_box does not count correctly.  These
# are not timed; their outcomes are reported as boxcount.raised/wrong.
PROBE = tuple((d, p, e) for d, p in ((-1, 5), (-1, 13), (-2, 3), (-3, 7),
                                     (-3, 13), (-7, 2), (2, 7), (3, 13))
              for e in (-24, -16, -8, 8, 16, 24))
PROBE_BUDGET = 100_000


class AdelicCounts:
    name = "adelic_counts"
    trace_rounds = 12

    def setup(self):
        _import_alk()
        self.places = {}  # (d, p) -> (kind, first place)
        for d, p in [(d, p) for d in BOX_FIELDS for p in BOX_PRIMES] + \
                [(d, p) for d, p, _ in PROBE]:
            F = numfield.make_quad_field(d)
            self.places[(d, p)] = (numfield.splitting_type(F, p),
                                   numfield.finite_places(F, p)[0])
        self.by_kind = {}
        for d in BOX_FIELDS:
            for p in BOX_PRIMES:
                sign = "imag" if d < 0 else "real"
                self.by_kind.setdefault((sign, self.places[(d, p)][0]), []).append((d, p))

    def warmup_ops(self):
        rng = random.Random(0)
        return [self._theta_op(rng, 2), self._bundle_op(rng, 2),
                self._box_op(rng, ("real", "inert"))]

    def round(self, rng):
        # 24 operations: 12 theta invariants (rank 4 mostly), 6 bundles
        # and one box count per (real/imaginary, split/inert/ramified)
        ops = [self._theta_op(rng, n) for n in (2, 3, 3) + (4,) * 9]
        ops += [self._bundle_op(rng, d) for d in BUNDLE_FIELDS]
        for sign in ("real", "imag"):
            for kind in ("split", "inert", "ramified"):
                ops.append(self._box_op(rng, (sign, kind)))
        rng.shuffle(ops)
        return ops

    def probe_ops(self):
        return [self._box_family(d, p, e, (1, 1), budget=PROBE_BUDGET)
                for d, p, e in PROBE]

    def _theta_op(self, rng, n):
        # A^T A + I, or half of it below rank 4: minima near 1 or 1/2, so
        # that the certified radius reaches hundreds of points; entries of
        # A stay in [-1, 1] at rank 4 to keep each point list small
        span = 1 if n == 4 else 2
        a = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        scale = Fraction(1, 1 if n == 4 else rng.choice((1, 2)))
        gram = [[(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)) * scale
                 for j in range(n)] for i in range(n)]

        def call():
            return arakelov.theta_invariants_euclidean(arakelov.euclidean_lattice(gram))

        def check(rep):
            res = rep.h0 - rep.h1 - rep.adeg
            want_adeg = -0.5 * math.log(float(orc.det_fraction(gram)))
            if abs(rep.adeg - want_adeg) > 1e-9:
                return f"adeg {rep.adeg} != -log covolume {want_adeg}"
            return _expect(abs(res) < 1e-9, f"residual h0 - h1 - adeg = {res:.3g}")

        return Op("theta", f"gram {gram}", call, check)

    def _bundle_op(self, rng, d):
        F = numfield.make_quad_field(d)
        # a small generator and radii in [1/2, 4] bound the largest point
        # list of any one bundle, and with it the peak memory
        while True:
            gen = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            if gen != (0, 0):
                break
        r1 = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        r2 = r1 if d < 0 else Fraction(rng.randint(1, 4), rng.randint(1, 2))
        want = orc.count_principal_box(d, gen, (r1, r2))
        log_df = math.log(orc.quad_disc(d))
        # unequal real radii take alk's float Gram route, whose stated
        # tolerance (the duality check in bundle_theta_and_h0ar) is 1e-6
        tol = 1e-6 if d > 0 and r1 != r2 else 1e-9

        def call():
            ideal = numfield.FracIdeal.from_gens(F, [F.elem(*gen)])
            return arakelov.bundle_theta_and_h0ar(arakelov.make_bundle(F, ideal, (r1, r2)))

        def check(out):
            rep, h0_ar = out
            rr = rep.h0 - rep.h1 - (rep.adeg - 0.5 * log_df)
            if abs(rr) > tol:
                return f"Riemann-Roch residual {rr:.3g} above {tol:g}"
            if abs(h0_ar - math.log(want)) > 1e-12:
                return f"h0_ar {h0_ar} != log of {want} box sections"
            return _expect(h0_ar <= rep.h0 + 2 * math.pi + 1e-9, "h0_ar above h0 + pi*n")

        return Op("bundle", f"d={d} gen={gen} radii=({r1}, {r2})", call, check)

    def _box_op(self, rng, sign_kind):
        d, p = rng.choice(self.by_kind[sign_kind])
        kind = sign_kind[1]
        e = rng.randint(-2, 2) if kind == "split" else rng.randint(-24, 24)
        if d < 0:
            norm = (Fraction(rng.randint(1, 40)),)
        else:
            norm = (Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6)))
        return self._box_family(d, p, e, norm)

    def _box_family(self, d, p, e, norm, budget=None):
        """Counting-bound check of {x : |x|_v <= q^e at the first place over
        p} with Archimedean radii balanced so that the family norm is
        prod(norm)."""
        kind, place = self.places[(d, p)]
        q = place.residue_size
        F = place.field
        if d < 0:
            radii = (norm[0] / Fraction(q) ** e,)
        elif kind == "inert":
            radii = (norm[0] / Fraction(p) ** e, norm[1] / Fraction(p) ** e)
        else:
            radii = (norm[0] / Fraction(p) ** -((-e) // 2),
                     norm[1] / Fraction(p) ** (e // 2))
        family_norm = math.prod(norm)
        c = min(Fraction(1), Fraction(family_norm) / orc.quad_disc(d))
        want = orc.count_box(d, p, kind, e, radii)
        kwargs = {} if budget is None else {"budget": budget}

        def call():
            fam = boxcount.make_radius_family(F, [(place, Fraction(q) ** e)], list(radii))
            return boxcount.counting_bound_check(F, fam, c, **kwargs)

        def check(res):
            if res["count"] != want:
                return f"count {res['count']} != oracle {want}"
            return _expect(res["hypothesis_ok"] and res["passed"] is True,
                           f"counting bound: {res}")

        label = (f"d={d} p={p} ({kind}) e={e} rinf={[str(r) for r in radii]} "
                 f"norm={family_norm}")
        return Op("box", label, call, check)


# ---------------------------------------------------------------------------
# tower_build: field construction, classification and discriminants


GAUSS_PRIMES = (13, 17, 29, 37, 41, 53, 61, 73, 89, 97)
# the towers whose square-subsystem search is long (0.3-2.5 s each)
SLOW_GAUSS = (41, 73, 89, 97)
SMALL_D = (2, 3, 5, 6, 7, 10, 11, 13, -1, -2, -3, -5, -6, -7)
# squarefree d = b^2 + c^2, for which d + b sqrt(d) has norm d c^2
CYCLIC_D = ((2, 1), (5, 1), (5, 2), (13, 2), (13, 3), (17, 1), (17, 4))


class TowerBuild:
    name = "tower_build"
    trace_rounds = 1

    def setup(self):
        _import_alk()

    def warmup_ops(self):
        rng = random.Random(0)
        return [self._gaussian_op(13), self._dihedral_op(rng),
                self._biquadratic_op(rng)]

    def round(self, rng):
        # 22 operations: the 4 slow Gaussian towers hold p90, the other 6
        # are built twice and hold the median, and 6 make_tower data
        # (2 dihedral, 2 cyclic, 1 biquadratic, 1 invalid) sit below
        ops = [self._gaussian_op(p) for p in GAUSS_PRIMES]
        ops += [self._gaussian_op(p) for p in GAUSS_PRIMES if p not in SLOW_GAUSS]
        ops += [self._dihedral_op(rng) for _ in range(2)]
        ops += [self._cyclic_op(rng) for _ in range(2)]
        ops += [self._biquadratic_op(rng), self._invalid_op(rng, rng.randrange(3))]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _discriminants(tower):
        """Both discriminant calls, each as ('ok', value) or ('ValueError', msg)."""
        out = []
        for fn in (toralsets.cyclic_disc_check,
                   lambda t: toralsets.nonarch_and_global_disc(toralsets.make_descriptor(t))):
            try:
                out.append(("ok", fn(tower)))
            except ValueError as exc:
                out.append(("ValueError", str(exc)))
        return out

    def _gaussian_op(self, p):
        eta = orc.gaussian_period(p)

        def call():
            tower = quartics.gaussian_period_tower(p)
            return tower, toralsets.classify_galois_type(tower), self._discriminants(tower)

        def check(out):
            tower, gtype, (cyc, disc) = out
            resid = orc.poly_residual(tower.theta_min_poly, eta)
            if resid > 1e-9:
                return f"min poly does not vanish at the Gaussian period ({resid:.3g})"
            own = orc.tower_type(p, (tower.delta.a, tower.delta.b))
            if gtype != own or own != "cyclic":
                return f"type {gtype}, square-class oracle {own}"
            if cyc[0] != "ok" or disc[0] != "ok":
                return f"discriminant calls raised: {cyc}, {disc}"
            # D_K = p^3 (conductor p) and D_F = p, so D_rel = p
            rel = cyc[1]
            return _expect(rel["D_rel"] == p and rel["D_F"] == p and rel["pass"]
                           and 4 * rel["D_rel"] >= rel["D_F"] and disc[1]["disc_fin"] == p,
                           f"D_rel {cyc[1]['D_rel']}, disc_fin {disc[1]['disc_fin']} != {p}")

        return Op("gaussian", f"p={p}", call, check)

    def _make_tower_op(self, kind, d, delta):
        def call():
            F = numfield.make_quad_field(d)
            tower = numfield.make_tower(F, F.elem(*delta), galois_hint=kind)
            return tower, toralsets.classify_galois_type(tower), self._discriminants(tower)

        def check(out):
            _, gtype, (cyc, disc) = out
            own = orc.tower_type(d, delta)
            if gtype != own:
                return f"type {gtype}, square-class oracle {own}"
            if own != "cyclic" and cyc[0] != "ValueError":
                return f"cyclic_disc_check accepted a {own} tower"
            if cyc[0] == "ok" and not (cyc[1]["pass"] and 4 * cyc[1]["D_rel"] >= cyc[1]["D_F"]):
                return f"D_rel < D_F/4: {cyc[1]}"
            if disc[0] == "ok" and not (isinstance(disc[1]["disc_fin"], int)
                                        and disc[1]["disc_fin"] >= 1):
                return f"disc_fin {disc[1]['disc_fin']} is not a positive integer"
            return None

        return Op(f"make_tower_{kind}", f"d={d} delta={delta}", call, check)

    def _dihedral_op(self, rng):
        while True:
            d = rng.choice(SMALL_D)
            delta = (Fraction(rng.randint(-6, 6)), Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
            if orc.tower_type(d, delta) == "dihedral":
                return self._make_tower_op("dihedral", d, delta)

    def _cyclic_op(self, rng):
        d, b = rng.choice(CYCLIC_D)
        s = Fraction(rng.randint(1, 2), rng.randint(1, 2))
        sign = rng.choice((-1, 1))
        return self._make_tower_op("cyclic", d, (d * s * s, sign * b * s * s))

    def _biquadratic_op(self, rng):
        while True:
            d, e = rng.choice(SMALL_D), rng.choice(SMALL_D)
            if d != e:
                break
        dk = orc.quad_disc(d) * orc.quad_disc(e) * orc.quad_disc(orc.squarefree_part(d * e))
        want = dk // orc.quad_disc(d) ** 2

        def call():
            tower = quartics.biquadratic_tower(d, e)
            return tower, toralsets.classify_galois_type(tower), self._discriminants(tower)

        def check(out):
            _, gtype, (cyc, disc) = out
            if gtype != "biquadratic":
                return f"type {gtype} for Q(sqrt {d}, sqrt {e})"
            if cyc[0] != "ValueError":
                return "cyclic_disc_check accepted a biquadratic tower"
            return _expect(disc[0] == "ok" and disc[1]["disc_fin"] == want,
                           f"disc_fin {disc[1]} != D_K / D_F^2 = {want}")

        return Op("biquadratic", f"d={d} e={e}", call, check)

    def _invalid_op(self, rng, k):
        """Data make_tower must reject with ValueError."""
        if k == 0:  # delta a square in F
            d = rng.choice(SMALL_D)
            u, v = rng.randint(1, 4), rng.choice((-2, -1, 1, 2))
            delta, label = (Fraction(u * u + d * v * v), Fraction(2 * u * v)), "square delta"
        elif k == 1:  # d not squarefree
            d = rng.choice((4, 8, 12, 18, 20, -4, -8, -12))
            delta, label = (Fraction(1), Fraction(1)), "non-squarefree d"
        else:  # the biquadratic datum e = d
            d = rng.choice(SMALL_D)
            delta, label = (Fraction(d), Fraction(0)), "e = d"

        def call():
            F = numfield.make_quad_field(d)
            return numfield.make_tower(F, F.elem(*delta))

        return Op("invalid", f"{label}: d={d} delta={delta}", call, lambda _: None,
                  expect=ValueError)


WORKLOADS = {w.name: w for w in (TorusInvariants, AdelicCounts, TowerBuild)}

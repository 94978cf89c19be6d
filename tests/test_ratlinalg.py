import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alk import arakelov, boxcount, git4, localgeom, quartics, toralsets
from alk.arakelov import euclidean_lattice
from alk.numfield import FieldTower, QuadField, finite_places, make_tower
from alk.intarith import is_square_fraction, valuation
from alk.ratlinalg import (NotRational, bareiss, in_gl_zp, integer_matrix, mat_det, mat_inv,
                           mat_mul)
from conftest import gauss_jordan


def test_int_matrices_give_exact_fractions():
    inv = mat_inv([[2, 0], [0, 3]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert all(type(x) is Fraction for row in inv for x in row)
    det = mat_det([[2, 1], [1, 3]])
    assert det == 5 and type(det) is Fraction


def test_singular_int_matrix_has_fraction_zero_determinant():
    det = mat_det([[0, 1], [0, 2]])
    assert det == 0 and type(det) is Fraction


def test_non_rational_entries_raise_type_error():
    sqrt2 = QuadField(2).elem(0, 1)
    for x in (2.0, 2 + 0j, sqrt2, "1/2"):
        m = [[1, 0], [0, x]]
        for fn in (mat_inv, mat_det, integer_matrix):
            with pytest.raises(TypeError, match="int or Fraction"):
                fn(m)
    # products stay generic
    assert mat_mul([[sqrt2]], [[sqrt2]]) == [[QuadField(2).elem(2)]]


_Q2 = QuadField(2)
_ONE_PLUS_SQRT2 = _Q2.elem(1, 1)
_BALL = git4.BowenBall(2, (1, 4), 1)

# every entry point that reads an exact rational from its caller, each
# through ratlinalg.rational or integer_matrix
EXACT_ENTRY_POINTS = {
    "integer_matrix": lambda x: integer_matrix([[1, x]]),
    "NumberField.elem": lambda x: _Q2.nf.elem([0, x]),
    "QuadField.elem": lambda x: _Q2.elem(x),
    "QuadField.elem b": lambda x: _Q2.elem(0, x),
    "NFElem +": lambda x: _ONE_PLUS_SQRT2 + x,
    "NFElem - reflected": lambda x: x - _ONE_PLUS_SQRT2,
    "NFElem *": lambda x: _ONE_PLUS_SQRT2 * x,
    "NFElem * reflected": lambda x: x * _ONE_PLUS_SQRT2,
    "NFElem /": lambda x: _ONE_PLUS_SQRT2 / x,
    "valuation": lambda x: valuation(x, 2),
    "is_square_fraction": is_square_fraction,
    "FieldTower over Q": lambda x: FieldTower(None, x),
    "make_tower over Q": lambda x: make_tower(None, x),
    "make_tower over F": lambda x: make_tower(_Q2, x),
    "dihedral_tower": lambda x: quartics.dihedral_tower(2, x, 1),
    "biquadratic_tower": lambda x: quartics.biquadratic_tower(2, x),
    "quad_field_of_square": toralsets.quad_field_of_square,
    "make_radius_family finite radius":
        lambda x: boxcount.make_radius_family(None, [(finite_places(None, 2)[0], x)], [1]),
    "counting_bound_check c":
        lambda x: boxcount.counting_bound_check(None, boxcount.make_radius_family(None, [], [1]), x),
    "make_bundle over Q": lambda x: arakelov.make_bundle(None, x, (1,)),
    "entropy_quantities at a prime": lambda x: git4.entropy_quantities([x, 1, 2, 4], 2),
    "root_log_values at a prime": lambda x: git4.root_log_values([x], 2),
    "regular_matrix": lambda x: git4.regular_embedding(quartics.zeta5_tower()).regular_matrix((x,)),
    "BowenBall": lambda x: git4.BowenBall(2, (x, 1), 1),
    "bowen_membership": lambda x: git4.bowen_membership([[x, 0], [0, 1]], _BALL),
    "bowen_membership_loop": lambda x: git4.bowen_membership_loop([[x, 0], [0, 1]], _BALL),
    "psi_invariant": lambda x: localgeom.psi_invariant(localgeom.standard_torus(2), [[x, 1], [0, 1]]),
    "orbital_measure_split": lambda x: localgeom.orbital_measure_split(x, "split_nonarch", q=2),
    "orbital_measure_split_oracle": lambda x: localgeom.orbital_measure_split_oracle(x, 2),
}

# every entry point that reads an Archimedean input through ratlinalg.real,
# with the value it read
REAL_ENTRY_POINTS = {
    "make_bundle radius": lambda x: arakelov.make_bundle(None, 1, (x,)).radii[0],
    "make_radius_family infinite radius":
        lambda x: boxcount.make_radius_family(None, [], [x]).infinite[0],
    "euclidean_lattice float route": lambda x: euclidean_lattice([[x]]).gram[0][0],
    "entropy_quantities at the real place":
        lambda x: math.exp(git4.entropy_quantities([x, 1, 2, 4]).logs[0]),
    "root_log_values at the real place": lambda x: math.exp(git4.root_log_values([x])[0]),
}


@pytest.mark.parametrize("name", sorted(EXACT_ENTRY_POINTS))
@pytest.mark.parametrize("x", [0.1, "1/2", 1j], ids=["float", "str", "complex"])
def test_exact_entry_points_refuse_what_is_not_rational(name, x):
    with pytest.raises(NotRational, match="rational.*int or Fraction"):
        EXACT_ENTRY_POINTS[name](x)


@pytest.mark.parametrize("name", sorted(REAL_ENTRY_POINTS))
def test_real_entry_points_read_a_float_exactly(name):
    read = REAL_ENTRY_POINTS[name]
    got = read(0.5)
    assert got == Fraction(1, 2)
    if "radius" in name or "lattice" in name:
        assert type(got) is Fraction
    for x in ("0.5", 1j):
        with pytest.raises(NotRational, match="finite numbers"):
            read(x)


def test_field_and_place_constructors_take_integers():
    with pytest.raises(TypeError):
        QuadField(5.0)
    tower = make_tower(None, Fraction(2))
    for conductors in ({3.0: 3}, {3: 3.0}):
        with pytest.raises(TypeError):
            toralsets.make_descriptor(tower, conductors)


def _in_gl_zp_by_valuations(x, p):
    """x in GL_n(Z_p) entry by entry and by det's valuation: the test git4
    wrote out before `in_gl_zp`, kept as its oracle."""
    for row in x:
        for v in row:
            if v != 0 and valuation(Fraction(v), p) < 0:
                return False
    det = mat_det([[Fraction(v) for v in row] for row in x])
    return det != 0 and valuation(det, p) == 0


def test_in_gl_zp_matches_the_valuations():
    """On a seeded sweep of 1x1 to 4x4 matrices, with p dividing the common
    denominator, singular matrices and unit determinants all met."""
    rng = random.Random(41)
    seen = set()
    for _ in range(600):
        n, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        a = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 5))) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.2:
            a[-1] = list(a[0])  # singular for n > 1
        _, den = integer_matrix(a)
        det = mat_det(a)
        seen.add((den % p == 0, det == 0, det != 0 and valuation(det, p) == 0))
        assert in_gl_zp(a, p) is _in_gl_zp_by_valuations(a, p), (a, p)
    assert {(True, False, False), (False, True, False), (False, False, True),
            (False, False, False)} <= seen
    with pytest.raises(TypeError, match="int or Fraction"):
        in_gl_zp([[0.5]], 2)


# ---------------------------------------------------------------------------
# fraction-free (Bareiss) elimination against plain Gauss-Jordan


def _random_matrix(rng, n, kind):
    def entry():
        x = rng.randint(-4, 4)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return x
        return Fraction(x, rng.randint(1, 6))

    return [[entry() for _ in range(n)] for _ in range(n)]


SWAP_AND_SINGULAR = [
    [[0, 1], [1, 0]],  # needs a row swap at the first pivot
    [[1, 2, 3], [2, 4, 7], [1, 0, 1]],  # zero pivot at step 2: swap
    [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],  # singular
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],  # singular after a swap
    [[0, 0], [0, 0]],
    [[0, 1, 2, 3], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[Fraction(0)]],
]


def test_bareiss_det_and_inverse_match_gauss_jordan():
    rng = random.Random(23)
    cases = list(SWAP_AND_SINGULAR)
    for n in (1, 2, 3, 4):
        for kind in ("int", "frac", "mixed"):
            for _ in range(60):
                m = _random_matrix(rng, n, kind)
                if n > 1 and rng.random() < 0.15:  # a dependent row
                    m[-1] = [2 * x for x in m[0]]
                cases.append(m)
    singular = 0
    for m in cases:
        det, inv = gauss_jordan(m)
        got = mat_det(m)
        assert got == det and type(got) is Fraction, m
        if inv is None:
            singular += 1
            try:
                mat_inv(m)
            except ZeroDivisionError:
                continue
            raise AssertionError(f"mat_inv did not raise on singular {m}")
        got_inv = mat_inv(m)
        assert got_inv == inv, m
        assert all(type(x) is Fraction for row in got_inv for x in row)
    assert singular > 40


def test_bareiss_pivots_are_the_leading_minors():
    m, den = integer_matrix([[2, 1, 0], [1, Fraction(1, 2), 3], [0, 3, 1]])
    pivots, swaps = bareiss(m)
    # the second minor is 0, so the second pivot takes a row swap
    assert den == 2 and Fraction(pivots[0], den) == 2 and swaps == 1
    g = [[4, 2, 1], [2, 3, Fraction(1, 2)], [1, Fraction(1, 2), 5]]
    want = [gauss_jordan([row[:k] for row in g[:k]])[0] for k in (1, 2, 3)]
    m, den = integer_matrix(g)
    pivots, swaps = bareiss(m)
    assert swaps == 0 and [Fraction(p, den ** k) for k, p in enumerate(pivots, 1)] == want
    assert type(euclidean_lattice(g).det()) is Fraction


GRAMS_REJECTED = [
    [[0]],
    [[-1]],
    [[1, 1], [1, 1]],  # semidefinite
    [[1, 2], [2, 1]],  # indefinite at minor 2
    [[2, 1, 1], [1, 2, 1], [1, 1, Fraction(2, 3)]],  # semidefinite, minor 3 is 0
    [[2, 1, 0], [1, 1, 2], [0, 2, 1]],  # indefinite at minor 3
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, Fraction(1, 2)]],  # at minor 4
    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 3]],  # semidefinite at 4
    [[1, 0], [0, 0]],
    [[0, 1], [1, 0]],  # a row swap at the first pivot
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # a zero second minor, then a swap
]
GRAMS_ACCEPTED = [
    [[Fraction(1, 3)]],
    [[2, 1], [1, 1]],
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, Fraction(31, 10)]],
]


def by_blocks(g):
    """Sylvester's criterion from n separate leading-block determinants."""
    return all(gauss_jordan([row[:k] for row in g[:k]])[0] > 0 for k in range(1, len(g) + 1))


def test_euclidean_lattice_accepts_exactly_the_positive_definite_grams():
    """Sylvester's criterion from one Bareiss pass decides as n separate
    leading-block determinants do, for exact and float Grams."""
    rng = random.Random(29)
    grams = [(g, False) for g in GRAMS_REJECTED] + [(g, True) for g in GRAMS_ACCEPTED]
    for _ in range(200):
        n = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        shift = rng.choice((-2, -1, 0, 0, 1))
        g = [[sum(a[k][i] * a[k][j] for k in range(n)) + shift * (i == j)
              for j in range(n)] for i in range(n)]
        grams.append((g, None))
    seen = {True: 0, False: 0}
    for g, want in grams:
        ok = by_blocks(g)
        assert want is None or ok == want, g
        seen[ok] += 1
        for gram in (g, [[float(x) for x in row] for row in g]):
            if ok:
                euclidean_lattice(gram)
            else:
                with pytest.raises(ValueError, match="not positive definite"):
                    euclidean_lattice(gram)
    assert min(seen.values()) > 30


@st.composite
def symmetric_grams(draw):
    """A symmetric Gram of rank 1-4, of int, Fraction or float entries.  The
    float Grams are D G D for an integer G and a diagonal D of scales, which
    keeps G's definiteness while the entries span 1e-300 to 1e300."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("int", "fraction", "float")))
    scales = [draw(st.sampled_from((1.0, 0.1, 1e-150, 1e150))) for _ in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(st.integers(0, 16) if i == j else st.integers(-3, 3))
            if kind == "fraction":
                x = Fraction(x, draw(st.integers(1, 12)))
            elif kind == "float":
                x = x * scales[i] * scales[j]
            g[i][j] = g[j][i] = x
    return g


@settings(max_examples=300, deadline=None)
@given(symmetric_grams())
@example([[0, 1], [1, 0]])
@example([[1, 1], [1, 1]])
@example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
@example([[1e300, 0], [0, 1e-300]])
def test_lattice_matches_the_rational_oracles(gram):
    exact = [[Fraction(x) for x in row] for row in gram]
    if not by_blocks(exact):
        with pytest.raises(ValueError, match="not positive definite"):
            euclidean_lattice(gram)
        return
    lat = euclidean_lattice(gram)
    assert lat.gram == tuple(map(tuple, exact))
    assert lat.det() == mat_det(exact) and type(lat.det()) is Fraction
    dual = lat.dual()
    assert dual.gram == tuple(map(tuple, mat_inv(exact)))
    assert dual.det() == 1 / lat.det()
    # num / den in lowest terms, so the dual of the dual is the lattice
    for x in (lat, dual):
        assert math.gcd(x.den, *(y for row in x.num for y in row)) == 1
    assert dual.dual() == lat


def test_mat_mul_rejects_mismatched_shapes():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[3, 4]])

import random
from fractions import Fraction

import pytest

from alk.arakelov import euclidean_lattice
from alk.nfpoly import NumberField
from alk.ratlinalg import leading_minors, mat_det, mat_inv, mat_mul
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
    K = NumberField((Fraction(-2), Fraction(0), Fraction(1)))
    for x in (2.0, 2 + 0j, K.gen):
        m = [[1, 0], [0, x]]
        for fn in (mat_inv, mat_det, leading_minors):
            with pytest.raises(TypeError, match="int or Fraction"):
                fn(m)
    # products stay generic
    assert mat_mul([[K.gen]], [[K.gen]]) == [[K.elem(2)]]


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


def test_leading_minors_exact():
    m = [[2, 1, 0], [1, Fraction(1, 2), 3], [0, 3, 1]]
    # the second minor is 0: the list stops there
    assert leading_minors(m) == [2, 0]
    g = [[4, 2, 1], [2, 3, Fraction(1, 2)], [1, Fraction(1, 2), 5]]
    want = [gauss_jordan([row[:k] for row in g[:k]])[0] for k in (1, 2, 3)]
    assert leading_minors(g) == want
    assert all(type(x) is Fraction for x in leading_minors(g))


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
]
GRAMS_ACCEPTED = [
    [[Fraction(1, 3)]],
    [[2, 1], [1, 1]],
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, Fraction(31, 10)]],
]


def test_euclidean_lattice_accepts_exactly_the_positive_definite_grams():
    """Sylvester's criterion from one Bareiss pass decides as n separate
    leading-block determinants do, for exact and float Grams."""

    def by_blocks(g):
        return all(gauss_jordan([row[:k] for row in g[:k]])[0] > 0
                   for k in range(1, len(g) + 1))

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


def test_mat_mul_rejects_mismatched_shapes():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[3, 4]])

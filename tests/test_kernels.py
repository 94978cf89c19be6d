import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alk import _fpenum_py, enumeration
from alk.arakelov import euclidean_lattice
from alk.ratlinalg import adjugate
from conftest import PI_100, random_posdef_gram, within_seconds


def enumerate_vectors(num, den, bound, budget=5_000_000):
    """All integer x with x^T num x <= bound * den, the reference point list
    of `gauss_sum`, by an exact box listing: (list of tuples, list of the
    integer norms x^T num x), lexicographic from the last coordinate down.
    On x^T num x <= B, x_i^2 <= B (num^-1)_ii = B adj_ii / det, so the box
    |x_i| <= isqrt(B adj_ii // det) holds every point; no factorization of
    num is made.  More than `budget` points raise BudgetExceeded."""
    n = len(num)
    bn, bd = Fraction(bound).as_integer_ratio()
    if bn < 0:
        return [], []
    adj, det = adjugate(num)
    widths = [math.isqrt(bn * den * adj[i][i] // (bd * det)) for i in range(n)]
    coords, norms = [], []
    for rev in itertools.product(*(range(-w, w + 1) for w in reversed(widths))):
        x = rev[::-1]
        q = sum(num[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if bd * q <= bn * den:
            coords.append(x)
            norms.append(q)
    if len(coords) > budget:
        raise _fpenum_py.BudgetExceeded(budget, budget, "lattice points")
    return coords, norms


def _lattice(gram):
    lat = euclidean_lattice(gram)
    return [list(row) for row in lat.num], lat.den


def _skewed_gram(rng, n):
    """(A^T D A, D): a unimodular shear A of a diagonal form D, whose outer
    levels are long and thin.  x -> Ax maps the points of the one onto those
    of the other, so the box of D lists the points of A^T D A."""
    a = [[1 if i == j else (rng.randint(-6, 6) if j > i else 0) for j in range(n)]
         for i in range(n)]
    diag = [rng.choice((Fraction(1, 20), Fraction(3, 10), 1, Fraction(5, 2))) for _ in range(n)]
    return ([[sum(a[k][i] * diag[k] * a[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)],
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _assert_same(gram, bound, listed=None):
    """gauss_sum on gram against the box listing of gram, or of listed, a
    Gram of the same lattice on another basis."""
    num, den = _lattice(gram)
    total, count = _fpenum_py.gauss_sum(num, den, bound)
    _, norms = enumerate_vectors(*_lattice(listed or gram), bound)
    assert count == len(norms), (gram, bound)
    want = math.fsum(math.exp(-math.pi * (q / den)) for q in norms)
    assert abs(total - want) <= 1e-12 * want, (gram, bound)


def test_gauss_sum_matches_the_point_list():
    rng = random.Random(1)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            gram = random_posdef_gram(rng, n, shift=1)
            # non-dyadic entries: the Gram over a denominator 3 * 7
            scale = Fraction(rng.choice((1, 3, 7)), rng.choice((1, 3, 7)))
            for g in (gram, [[x * scale for x in row] for row in gram]):
                for bound in (0.0, 0.5, 3.0, 9.0, 20.0, Fraction(10, 3)):
                    _assert_same(g, bound)


def test_gauss_sum_matches_the_point_list_on_skewed_grams():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            gram, diag = _skewed_gram(rng, n)
            for bound in (0.2, 1.0, 4.0, 10.0):
                _assert_same(gram, bound, diag)


@pytest.mark.parametrize("gram", [
    [[1e300]],
    [[1.0, 1e-300], [1e-300, 2.0]],
    [[1e300, 0.0], [0.0, 0.5]],
    [[1e300, 1e150], [1e150, 1e300]],
    [[Fraction(10 ** 300, 3), 0, 1], [0, Fraction(1, 3), 0], [1, 0, 2]],
    [[1.0, 0.0, 0.0, 1e-300], [0.0, 3.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0],
     [1e-300, 0.0, 0.0, Fraction(4, 3)]],
])
def test_gauss_sum_matches_the_point_list_at_extreme_entries(gram):
    # entries near 10^+-300 are beyond the float range once multiplied out
    # or divided; the kernel decides every point in integers
    for bound in (0.5, 3.0, 10.0):
        _assert_same(gram, bound)


def test_gauss_sum_on_lattice_shells():
    # bounds that fall exactly on the shells of Z^2, Z^3 and a scaled A2
    for gram, shells in (([[1, 0], [0, 1]], (1, 2, 4, 5, 25)),
                         ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 3, 9)),
                         ([[2, 1], [1, 2]], (2, 6, 8, 14)),
                         ([[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
                          (Fraction(2, 3), 2, Fraction(8, 3)))):
        for bound in shells:
            _assert_same(gram, bound)
    # #{x in Z^2 : |x|^2 <= r}: 1, 5, 9, 13, 21
    assert [_fpenum_py.gauss_sum([[1, 0], [0, 1]], 1, b)[1] for b in (0.0, 1.0, 2.0, 4.0, 5.0)] == \
        [1, 5, 9, 13, 21]
    # a hair below a shell drops it: 5 is the norm of (1, 2)
    assert _fpenum_py.gauss_sum([[1, 0], [0, 1]], 1, math.nextafter(5.0, 0.0))[1] == 13


def test_gauss_sum_below_zero_is_empty():
    assert _fpenum_py.gauss_sum([[1]], 1, -1.0) == (0.0, 0)


def test_gauss_sum_leaves_the_gram_as_it_is():
    num = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    _fpenum_py.gauss_sum(num, 1, 4.0)
    assert num == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_gauss_sum_refuses_an_indefinite_gram():
    with pytest.raises(ValueError, match="not positive definite"):
        _fpenum_py.gauss_sum([[1, 2], [2, 1]], 1, 1.0)


def test_gauss_sum_budget_is_the_point_list_budget():
    rng = random.Random(3)
    grams = [[[1]], [[1, 0], [0, 1]], [[0.3, 0.1], [0.1, 0.7]]]
    grams += [random_posdef_gram(rng, 3, shift=1)]
    for gram in grams:
        num, den = _lattice(gram)
        count = _fpenum_py.gauss_sum(num, den, 6.0)[1]
        for budget in range(count + 2):
            try:
                enumerate_vectors(num, den, 6.0, budget)
                old = None
            except _fpenum_py.BudgetExceeded as exc:
                old = (exc.budget, exc.found)
            try:
                _fpenum_py.gauss_sum(num, den, 6.0, budget)
                new = None
            except _fpenum_py.BudgetExceeded as exc:
                new = (exc.budget, exc.found)
            assert new == old, (gram, budget)
            assert (new is None) == (budget >= count)


def test_gauss_sum_budget_stops_a_long_row():
    # one row of about 2 * 10^6 points is refused without a walk
    num, den = _lattice([[1e-12]])
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        _fpenum_py.gauss_sum(num, den, 1.0, budget=1000)
    assert (exc.value.budget, exc.value.found) == (1000, 1000)
    assert str(exc.value) == "enumeration budget 1000 exceeded: more than 1000 lattice points"


def test_gauss_sum_budget_bounds_the_outer_levels():
    # Z^2 on a sheared basis: the outer level has ~3*10^7 values of x[1],
    # almost all with an empty run of x[0]; it ran for minutes
    num, den = _lattice([[1e14, 1e7], [1e7, 1.00000000000001]])
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        within_seconds(5, lambda: _fpenum_py.gauss_sum(num, den, 10.0))
    assert (exc.value.budget, exc.value.found) == (5_000_000, 5_000_000)
    assert str(exc.value).endswith("more than 5000000 outer-level values")
    # U^T U for U = [[100, 1], [0, 0.1]]: 25 values of x[1] >= 0 at bound 6,
    # and 5 points, so a budget of 10 holds the points and not the values
    num, den = _lattice([[1e4, 100.0], [100.0, 1.01]])
    assert enumerate_vectors(num, den, 6.0, 10)[0] == [(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]
    assert _fpenum_py.gauss_sum(num, den, 6.0, 25)[1] == 5
    with pytest.raises(_fpenum_py.BudgetExceeded):
        _fpenum_py.gauss_sum(num, den, 6.0, 24)


@pytest.mark.parametrize("gram", [[[1e-200, 0.0], [0.0, 1e-200]],
                                  [[1e-300, 0.0], [0.0, 1e300]]])
def test_gauss_sum_refuses_a_run_past_two_to_the_53(gram):
    # the run of x[0] ends near 10^100 or 10^150: the budget refuses it at
    # once, whatever the bound, the theta radius among them
    num, den = _lattice(gram)
    radius = enumeration.truncation_radius(2, 1e-12)[0]
    for bound in (1.0, 10.0, radius * radius, 20.0):
        with pytest.raises(_fpenum_py.BudgetExceeded):
            within_seconds(10, lambda: _fpenum_py.gauss_sum(num, den, bound))


def test_fallback_enumeration_is_symmetric():
    vecs, norms = enumerate_vectors([[1, 0], [0, 1]], 1, 4.0)
    s = set(vecs)
    assert all(tuple(-c for c in v) in s for v in vecs)
    assert (0, 0) in s


def test_budget_exceeded_reports_progress():
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        enumerate_vectors(*_lattice([[0.01]]), 1.0, budget=3)
    assert exc.value.budget == 3


@st.composite
def _grams_and_bounds(draw):
    """A^T A + diag over a denominator, at ranks 1-4, and a float bound up to
    the theta radius squared at rank 4."""
    n = draw(st.integers(1, 4))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.integers(1, 4)) for _ in range(n)]
    den = draw(st.integers(1, 6))
    num = [[sum(a[k][i] * a[k][j] for k in range(n)) + (diag[i] if i == j else 0)
            for j in range(n)] for i in range(n)]
    bound = draw(st.floats(0, 12, allow_nan=False))
    return num, den, bound


@settings(max_examples=80, deadline=None)
@given(case=_grams_and_bounds())
def test_gauss_sum_rounding_is_within_its_stated_bound(case):
    # the same points summed in 50-digit decimals: the kernel's sum may be
    # off by (count / 2 + 3 pi bound + 3) * 2^-53 relative, its docstring's
    # bound, taken here with one more 2^-53 for the terms of second order
    num, den, bound = case
    total, count = _fpenum_py.gauss_sum(num, den, bound)
    _, norms = enumerate_vectors(num, den, bound)
    assert count == len(norms)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = sum((-PI_100 * q / den).exp() for q in norms)
        err = abs(Decimal(total) - exact) / exact
    assert err <= (count / 2 + 3 * math.pi * bound + 4) * 2.0 ** -53, (case, err)

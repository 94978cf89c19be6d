import math
import random

import pytest

from alk import _fpenum_py, enumeration
from conftest import random_posdef_gram, within_seconds


def enumerate_vectors(gram, bound, budget=5_000_000):
    """All integer x with Q(x) <= bound, the reference point list of
    `gauss_sum`: (list of tuples, list of float norms), lexicographic from
    the last coordinate down, with the kernel's Cholesky factor, slack and
    budget."""
    n = len(gram)
    u = _fpenum_py._cholesky_upper(gram)
    coords: list[tuple[int, ...]] = []
    norms: list[float] = []
    x = [0] * n
    eps = 1e-9 * (1.0 + abs(bound))

    def rec(i, used):
        # used = sum of squared terms from levels > i
        rem = bound + eps - used
        if rem < 0:
            return
        s = sum(u[i][j] * x[j] for j in range(i + 1, n))
        half = math.sqrt(rem)
        lo = math.ceil((-s - half) / u[i][i] - 1e-12)
        hi = math.floor((-s + half) / u[i][i] + 1e-12)
        for xi in range(lo, hi + 1):
            x[i] = xi
            t = (u[i][i] * xi + s) ** 2
            if used + t > bound + eps:
                continue
            if i == 0:
                if len(coords) >= budget:
                    raise _fpenum_py.BudgetExceeded(budget, len(coords), "lattice points")
                coords.append(tuple(x))
                norms.append(used + t)
            else:
                rec(i - 1, used + t)
        x[i] = 0

    rec(n - 1, 0.0)
    return coords, norms


def reference_gauss_sum(gram, bound):
    """The full point list of `enumerate_vectors`, summed with math.exp."""
    _, norms = enumerate_vectors(gram, bound)
    return sum(math.exp(-math.pi * q) for q in norms), len(norms)


def _skewed_gram(rng, n):
    # a unimodular shear of a diagonal form: long, thin Cholesky levels
    a = [[1 if i == j else (rng.randint(-6, 6) if j > i else 0) for j in range(n)]
         for i in range(n)]
    diag = [rng.choice((0.05, 0.3, 1.0, 2.5)) for _ in range(n)]
    return [[sum(a[k][i] * diag[k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _assert_same(gram, bound):
    total, count = _fpenum_py.gauss_sum(gram, bound)
    want_total, want_count = reference_gauss_sum(gram, bound)
    assert count == want_count, (gram, bound)
    assert abs(total - want_total) <= 1e-12 * want_total, (gram, bound)


def test_gauss_sum_matches_the_point_list():
    rng = random.Random(1)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            gram = [[float(x) for x in row] for row in random_posdef_gram(rng, n, shift=1)]
            for bound in (0.0, 0.5, 3.0, 9.0, 20.0):
                _assert_same(gram, bound)


def test_gauss_sum_matches_the_point_list_on_skewed_grams():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            gram = _skewed_gram(rng, n)
            for bound in (0.2, 1.0, 4.0, 10.0):
                _assert_same(gram, bound)


def test_gauss_sum_on_lattice_shells():
    # bounds that fall exactly on the shells of Z^2, Z^3 and a scaled A2
    for gram, shells in (([[1.0, 0.0], [0.0, 1.0]], (1.0, 2.0, 4.0, 5.0, 25.0)),
                         ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (1.0, 3.0, 9.0)),
                         ([[2.0, 1.0], [1.0, 2.0]], (2.0, 6.0, 8.0, 14.0))):
        for bound in shells:
            _assert_same(gram, bound)
    # #{x in Z^2 : |x|^2 <= r}: 1, 5, 9, 13, 21
    z2 = [[1.0, 0.0], [0.0, 1.0]]
    assert [_fpenum_py.gauss_sum(z2, b)[1] for b in (0.0, 1.0, 2.0, 4.0, 5.0)] == \
        [1, 5, 9, 13, 21]


def test_gauss_sum_below_zero_is_empty():
    assert _fpenum_py.gauss_sum([[1.0]], -1.0) == (0.0, 0)


def test_gauss_sum_budget_is_the_point_list_budget():
    rng = random.Random(3)
    grams = [[[1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.3, 0.1], [0.1, 0.7]]]
    grams += [[[float(x) for x in row] for row in random_posdef_gram(rng, 3, shift=1)]]
    for gram in grams:
        count = _fpenum_py.gauss_sum(gram, 6.0)[1]
        for budget in range(count + 2):
            try:
                enumerate_vectors(gram, 6.0, budget)
                old = None
            except _fpenum_py.BudgetExceeded as exc:
                old = (exc.budget, exc.found)
            try:
                _fpenum_py.gauss_sum(gram, 6.0, budget)
                new = None
            except _fpenum_py.BudgetExceeded as exc:
                new = (exc.budget, exc.found)
            assert new == old, (gram, budget)
            assert (new is None) == (budget >= count)


def test_gauss_sum_budget_stops_a_long_row():
    # one Cholesky row of about 2 * 10^6 points is refused without a walk
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        _fpenum_py.gauss_sum([[1e-12]], 1.0, budget=1000)
    assert (exc.value.budget, exc.value.found) == (1000, 1000)
    assert str(exc.value) == "enumeration budget 1000 exceeded: more than 1000 lattice points"


def test_gauss_sum_budget_bounds_the_outer_levels():
    # Z^2 on a sheared basis: the outer level has ~3*10^7 values of x[1],
    # almost all with an empty run of x[0]; it ran for minutes
    gram = [[1e14, 1e7], [1e7, 1.00000000000001]]
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        within_seconds(5, lambda: _fpenum_py.gauss_sum(gram, 10.0))
    assert (exc.value.budget, exc.value.found) == (5_000_000, 5_000_000)
    assert str(exc.value).endswith("more than 5000000 outer-level values")
    # U^T U for U = [[100, 1], [0, 0.1]]: 25 values of x[1] >= 0 at bound 6,
    # and 5 points, so a budget of 10 holds the points and not the values
    gram = [[1e4, 100.0], [100.0, 1.01]]
    assert enumerate_vectors(gram, 6.0, 10)[0] == [(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]
    assert _fpenum_py.gauss_sum(gram, 6.0, 25)[1] == 5
    with pytest.raises(_fpenum_py.BudgetExceeded):
        _fpenum_py.gauss_sum(gram, 6.0, 24)


def _just_below(q):
    """The largest bound whose slack bound + 1e-9 * (1 + bound) is below q."""
    b = (q - 1e-9) / (1 + 1e-9)
    while b + 1e-9 * (1.0 + abs(b)) >= q:
        b = math.nextafter(b, -math.inf)
    while (c := math.nextafter(b, math.inf)) + 1e-9 * (1.0 + abs(c)) < q:
        b = c
    return b


def test_gauss_sum_trims_the_ends_of_a_run(monkeypatch):
    # at a bound a hair below the norm q of a point, the ends of a run,
    # widened by the 1e-12 slack in x, hold points of norm q that the
    # kernel must drop, as the reference does
    trims = []
    first_false = _fpenum_py._first_false
    monkeypatch.setattr(_fpenum_py, "_first_false",
                        lambda *args: trims.append(args) or first_false(*args))
    rng = random.Random(4)
    grams = [[[1.0]], [[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]]
    grams += [_skewed_gram(rng, n) for n in (2, 3, 4) for _ in range(3)]
    for gram in grams:
        n = len(gram)
        for _ in range(6):
            x = [rng.randint(-2, 2) for _ in range(n)]
            q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            if 0 < q <= 12:
                _assert_same(gram, _just_below(q))
    assert trims


@pytest.mark.parametrize("gram", [[[1e-200, 0.0], [0.0, 1e-200]],
                                  [[1e-300, 0.0], [0.0, 1e300]]])
def test_gauss_sum_refuses_a_run_past_two_to_the_53(gram):
    # the run of x[0] ends near 10^100 or 10^150, where float(x) repeats
    # over many integers and a trim by single steps would not end; whether
    # an end needs trimming depends on the bound, the theta radius among them
    radius = enumeration.truncation_radius(2, 1e-12)[0]
    for bound in (1.0, 10.0, radius * radius, 20.0):
        with pytest.raises(_fpenum_py.BudgetExceeded):
            within_seconds(10, lambda: _fpenum_py.gauss_sum(gram, bound))


def test_fallback_enumeration_is_symmetric():
    vecs, norms = enumerate_vectors([[1.0, 0.0], [0.0, 1.0]], 4.0)
    s = set(vecs)
    assert all(tuple(-c for c in v) in s for v in vecs)
    assert (0, 0) in s


def test_budget_exceeded_reports_progress():
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        enumerate_vectors([[0.01]], 1.0, budget=3)
    assert exc.value.budget == 3

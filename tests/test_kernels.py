import os
import random
import subprocess
import sys

import pytest

from alk import _fpenum_py, enumeration
from conftest import random_posdef_gram


def test_fallback_kernel_matches_the_active_one():
    rng = random.Random(1)
    kernel = enumeration.active_kernel()
    for _ in range(5):
        n = rng.randint(1, 4)
        gram = [[float(x) for x in row] for row in random_posdef_gram(rng, n)]
        t1, c1 = kernel.gauss_sum(gram, 20.0)
        t2, c2 = _fpenum_py.gauss_sum(gram, 20.0)
        assert c1 == c2
        assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))
        v1, n1 = kernel.enumerate_vectors(gram, 9.0)
        v2, n2 = _fpenum_py.enumerate_vectors(gram, 9.0)
        assert sorted(v1) == sorted(v2)


def test_force_py_selects_the_fallback():
    # the child imports alk from the same place as this process
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    env = dict(os.environ, ALK_FORCE_PY="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import alk; print(alk.KERNEL_NAME)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "python"


def test_fallback_enumeration_is_symmetric():
    vecs, norms = _fpenum_py.enumerate_vectors([[1.0, 0.0], [0.0, 1.0]], 4.0)
    s = set(vecs)
    assert all(tuple(-c for c in v) in s for v in vecs)
    assert (0, 0) in s


def test_budget_exceeded_reports_progress():
    with pytest.raises(_fpenum_py.BudgetExceeded) as exc:
        _fpenum_py.enumerate_vectors([[0.01]], 1.0, budget=3)
    assert exc.value.budget == 3

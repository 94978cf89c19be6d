from fractions import Fraction

from alk.ratlinalg import mat_det, mat_inv, solve


def test_int_matrices_give_exact_fractions():
    inv = mat_inv([[2, 0], [0, 3]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert all(type(x) is Fraction for row in inv for x in row)
    det = mat_det([[2, 1], [1, 3]])
    assert det == 5 and type(det) is Fraction
    x = solve([[2, 1], [1, 3]], [1, 2])
    assert x == [Fraction(1, 5), Fraction(3, 5)]
    assert all(type(c) is Fraction for c in x)


def test_singular_int_matrix_has_fraction_zero_determinant():
    det = mat_det([[0, 1], [0, 2]])
    assert det == 0 and type(det) is Fraction


def test_float_matrices_stay_float():
    assert type(mat_det([[1.0, 2.0], [3.0, 4.0]])) is float
    assert mat_inv([[2.0, 0.0], [0.0, 4.0]]) == [[0.5, 0.0], [0.0, 0.25]]

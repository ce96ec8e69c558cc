
import pytest

from folindex import exact
from folindex.errors import DimensionMismatch


def test_vector_ops():
    assert exact.vec_add((1, 2), (3, 4)) == (4, 6)
    assert exact.vec_sub((1, 2), (3, 4)) == (-2, -2)
    assert exact.vec_scale(3, (1, -2)) == (3, -6)
    assert exact.dot((1, 2, 3), (4, 5, 6)) == 32
    with pytest.raises(DimensionMismatch):
        exact.dot((1, 2), (1, 2, 3))


def test_matrix_ops():
    m = ((1, 2), (3, 4))
    assert exact.transpose(m) == ((1, 3), (2, 4))
    assert exact.matvec(m, (1, 1)) == (3, 7)
    assert exact.matmul(m, exact.identity(2)) == m
    assert exact.mat_neg(m) == ((-1, -2), (-3, -4))
    assert exact.is_symmetric(((1, 5), (5, 2)))
    assert not exact.is_symmetric(m)


def test_det_bareiss_is_exact():
    assert exact.det(((2, 0), (0, 3))) == 6
    assert exact.det(((1, 2), (2, 4))) == 0
    m = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
    assert exact.det(m) == -90


def test_unit_lower_inverse_integer():
    l = ((1, 0, 0), (-1, 1, 0), (-1, -1, 1))
    inv = exact.unit_lower_inverse(l)
    assert inv == ((1, 0, 0), (1, 1, 0), (2, 1, 1))
    assert exact.matmul(l, inv) == exact.identity(3)
    # inverse of a unit lower-triangular integer matrix stays integral
    assert all(isinstance(e, int) for row in inv for e in row)

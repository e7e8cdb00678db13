import random
from fractions import Fraction

import numpy as np
import pytest

from anosovgraph.exactmat import RationalMatrix, coerce_matrix


def random_matrix(rng, n, lo=-4, hi=4):
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestRationalMatrix:
    def test_exact_entries(self):
        m = RationalMatrix([[Fraction(1, 3), 2], [0, 1]])
        assert m[0, 0] == Fraction(1, 3)
        assert not m.is_integer
        assert RationalMatrix([[1, 2], [3, 4]]).is_integer

    def test_mul_and_identity(self):
        m = RationalMatrix([[2, 1], [1, 1]])
        assert m * RationalMatrix.identity(2) == m
        assert (m * m)[0, 0] == 5

    def test_det_matches_numpy(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, -3, 3)
            numeric = np.linalg.det(np.array([[float(x) for x in row] for row in m.rows]))
            assert m.det() == round(numeric)

    def test_kernel_vector(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        vec = m.kernel_vector()
        assert vec is not None
        assert [sum(a * x for a, x in zip(row, vec)) for row in m.rows] == [0, 0]
        assert RationalMatrix([[1, 0], [0, 1]]).kernel_vector() is None

    def test_int_rows_guard(self):
        with pytest.raises(ValueError):
            RationalMatrix([[Fraction(1, 2)]]).int_rows()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix([[0.5]])

    def test_immutability(self):
        m = RationalMatrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = ()

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]).det()
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) * RationalMatrix([[1, 2]])

    def test_coerce(self):
        m = coerce_matrix([[1, 2], [3, 4]])
        assert isinstance(m, RationalMatrix)
        assert coerce_matrix(m) is m

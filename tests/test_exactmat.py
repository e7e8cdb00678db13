import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovgraph.exactmat import RationalMatrix, coerce_matrix


def random_matrix(rng, n, lo=-4, hi=4):
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def fraction_det(rows):
    """The Gaussian elimination over Fractions that `RationalMatrix.det` used to run."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 7))
    tenths = draw(st.sampled_from([2, 5, 10]))  # share of nonzero entries, in tenths
    bound = 2 ** draw(st.sampled_from([2, 30]))
    denominators = st.integers(1, draw(st.sampled_from([1, 12])))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(0, 9)) < tenths:
                row.append(Fraction(draw(st.integers(-bound, bound)), draw(denominators)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


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

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_det_matches_fraction_elimination(self, rows):
        assert RationalMatrix(rows).det() == fraction_det(rows)

    def test_det_zero_leading_entries_and_rescaled_rows(self):
        # a zero pivot needs a row swap; rows with a zero in the pivot column still get rescaled
        m = [[0, 2, 1, 0], [3, 0, 0, 1], [0, 0, 5, 2], [1, 4, 0, 0]]
        assert RationalMatrix(m).det() == fraction_det([[Fraction(x) for x in r] for r in m]) == -14
        # row 3 is zero in column 0, then becomes the pivot row of step 1 by a swap with row 1
        m = [[3, 0, 0, 2], [-1, 0, 3, 0], [3, 0, 0, 0], [0, 1, 0, 0]]
        assert RationalMatrix(m).det() == fraction_det([[Fraction(x) for x in r] for r in m]) == -18
        half = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
        assert half.det() == Fraction(1, 2) - Fraction(1, 15)
        assert RationalMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).det() == 0

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

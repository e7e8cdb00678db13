"""Immutable exact-rational matrices.

A thin exact linear algebra kernel for rational input: Fraction entries,
products, and determinants by fraction-free Bareiss elimination on integers
(a rational matrix is scaled by the lcm of its denominators first). No
floating point. This is the only module that builds Fractions; the witness
and certification paths work on integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class RationalMatrix:
    """Dense matrix with exact rational entries, immutable after construction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        packed = tuple(tuple(self._coerce(x) for x in row) for row in rows)
        if not packed or not packed[0]:
            raise ValueError("matrix must be non-empty")
        width = len(packed[0])
        if any(len(r) != width for r in packed):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", packed)
        object.__setattr__(self, "nrows", len(packed))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @staticmethod
    def _coerce(x) -> Fraction:
        if isinstance(x, float):
            raise TypeError("floating-point entries are not allowed; use Fraction or int")
        return Fraction(x)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return RationalMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        return RationalMatrix([[x * other for x in row] for row in self.rows])

    __rmul__ = __mul__

    def det(self) -> Fraction:
        """Determinant, by fraction-free Bareiss elimination on integers.

        The matrix is first scaled by the lcm L of its denominators, so
        det(M) = det(L M) / L^n with L M integral. Step k, with pivot p_k and
        p_-1 = 1, takes each entry right of the pivot column in a lower row r
        to (a_rc p_k - a_rk a_kc) / p_(k-1). By Sylvester's identity every new
        entry is a minor of L M, so each division is exact; a remainder
        raises AssertionError. A zero pivot is swapped with the first lower
        row that has a nonzero entry there, flipping the sign; if there is
        none the determinant is 0.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        scale = lcm(*{x.denominator for row in self.rows for x in row})
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in self.rows]
        sign, divisor = 1, 1
        for k in range(n - 1):
            pivot_row = next((r for r in range(k, n) if m[r][k]), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            pivot, top = m[k][k], m[k][k + 1 :]
            for row in m[k + 1 :]:
                f = row[k]
                row[k + 1 :] = _divide_exact(
                    [x * pivot - f * y for x, y in zip(row[k + 1 :], top)], divisor
                )
            divisor = pivot
        return Fraction(sign * m[n - 1][n - 1], scale**n)

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_integer:
            raise ValueError("matrix has non-integer entries")
        return tuple(tuple(int(x) for x in row) for row in self.rows)


def _divide_exact(values: list[int], d: int) -> list[int]:
    if d == 1:
        return values
    if any(v % d for v in values):
        raise AssertionError("inexact division in Bareiss elimination")
    return [v // d for v in values]


def coerce_matrix(m) -> RationalMatrix:
    """Accept a RationalMatrix or any sequence-of-sequences of exact numbers."""
    if isinstance(m, RationalMatrix):
        return m
    return RationalMatrix(m)

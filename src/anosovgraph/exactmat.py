"""Immutable exact-rational matrices.

A thin exact linear algebra kernel: Fraction entries, kernel vectors by
Gauss-Jordan elimination, and determinants by fraction-free Bareiss
elimination on integers (a rational matrix is scaled by the lcm of its
denominators first). No floating point.
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

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

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
        raises AssertionError. A row with a_rk = 0 is only rescaled by
        p_k / p_(k-1). Those rescales are deferred: when the row is next
        needed, at step j after last changing at step i, it is multiplied by
        their product p_(j-1) / p_(i-1) at once. A zero pivot is swapped with
        the first lower row that has a nonzero entry there, flipping the
        sign; if there is none the determinant is 0.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        scale = lcm(*{x.denominator for row in self.rows for x in row})
        if scale == 1:
            m = [[x.numerator for x in row] for row in self.rows]
        else:
            m = [[x.numerator * (scale // x.denominator) for x in row] for row in self.rows]
        divisors = [1]  # divisors[k] = p_(k-1), the divisor of step k
        step = [0] * n  # m[r] holds row r as of the start of step step[r]

        def catch_up(r: int, k: int) -> None:
            num, den = divisors[k], divisors[step[r]]
            if num != den:
                m[r][k:] = _divide_exact([x * num for x in m[r][k:]], den)
            step[r] = k

        sign = 1
        for k in range(n - 1):
            nonzero = [r for r in range(k, n) if m[r][k]]
            if not nonzero:
                return Fraction(0)
            pivot_row, *below = nonzero  # the row swapped down is zero in column k
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                step[k], step[pivot_row] = step[pivot_row], step[k]
                sign = -sign
            catch_up(k, k)
            pivot, top = m[k][k], m[k][k + 1 :]
            for r in below:
                catch_up(r, k)
                row, f = m[r], m[r][k]
                row[k + 1 :] = _divide_exact(
                    [x * pivot - f * y for x, y in zip(row[k + 1 :], top)], divisors[k]
                )
                step[r] = k + 1
            divisors.append(pivot)
        catch_up(n - 1, n - 1)
        return Fraction(sign * m[n - 1][n - 1], scale**n)

    def kernel_vector(self):
        """A nonzero rational kernel vector, or None if the matrix has full column rank."""
        m = [list(row) for row in self.rows]
        n = self.ncols
        pivots: list[int] = []
        row = 0
        for col in range(n):
            pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            inv = 1 / m[row][col]
            m[row] = [x * inv for x in m[row]]
            for r in range(len(m)):
                if r != row and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[row])]
            pivots.append(col)
            row += 1
            if row == len(m):
                break
        free = [c for c in range(n) if c not in pivots]
        if not free:
            return None
        col = free[0]
        vec = [Fraction(0)] * n
        vec[col] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -m[r][col]
        return tuple(vec)

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_integer:
            raise ValueError("matrix has non-integer entries")
        return tuple(tuple(int(x) for x in row) for row in self.rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.rows]


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

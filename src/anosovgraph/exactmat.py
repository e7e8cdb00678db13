"""Immutable exact-rational matrices.

A thin exact linear algebra kernel: Fraction entries, kernel vectors by
Gauss-Jordan elimination, and determinants by Gaussian elimination over the
rationals (rows with a zero entry below the pivot are skipped). No floating
point.
"""

from __future__ import annotations

from fractions import Fraction


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
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self.rows]
        n = self.nrows
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


def coerce_matrix(m) -> RationalMatrix:
    """Accept a RationalMatrix or any sequence-of-sequences of exact numbers."""
    if isinstance(m, RationalMatrix):
        return m
    return RationalMatrix(m)

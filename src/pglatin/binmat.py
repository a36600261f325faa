"""Immutable 0/1 matrices with permutation operations and `.inc` text io."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class FormatError(ValueError):
    """A text payload does not match the file format it claims to follow."""


@dataclass(frozen=True, repr=False)
class BinaryMatrix:
    """A rectangular matrix over {0, 1} stored row-major in a flat tuple.

    Instances are immutable after construction and safe to share freely.
    """

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"matrix must have positive dimensions, got {self.rows}x{self.cols}"
            )
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                f"flat data holds {len(self.data)} entries, expected {self.rows * self.cols}"
            )
        for value in self.data:
            if value != 0 and value != 1:
                raise ValueError(f"entries must be 0 or 1, found {value!r}")

    # construction helpers

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> BinaryMatrix:
        grid = [tuple(row) for row in rows]
        if not grid:
            raise ValueError("need at least one row")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("all rows must have the same length")
        return cls(len(grid), width, tuple(x for row in grid for x in row))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def ones(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls(rows, cols, (1,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> BinaryMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    # access

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"cell ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return self.data[j :: self.cols]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(self.row(i)) for i in range(self.rows))

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(self.col(j)) for j in range(self.cols))

    def transpose(self) -> BinaryMatrix:
        data = tuple(self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return BinaryMatrix(self.cols, self.rows, data)

    def to_grid(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1; index i is sent to position images[i]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"images {self.images!r} are not a bijection on 0..{len(self.images) - 1}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(image == i for i, image in enumerate(self.images))

    def to_matrix(self) -> BinaryMatrix:
        """The matrix with a single 1 in row i at column images[i]."""
        n = self.size
        data = [0] * (n * n)
        for i, image in enumerate(self.images):
            data[i * n + image] = 1
        return BinaryMatrix(n, n, tuple(data))


def permute(m: BinaryMatrix, row_perm: Permutation, col_perm: Permutation) -> BinaryMatrix:
    """Reposition entries so input cell (i, j) lands at (row_perm(i), col_perm(j))."""
    if row_perm.size != m.rows or col_perm.size != m.cols:
        raise ValueError(
            f"permutation sizes {row_perm.size}/{col_perm.size} do not match matrix {m.rows}x{m.cols}"
        )
    out = [0] * (m.rows * m.cols)
    for i in range(m.rows):
        src = i * m.cols
        dst = row_perm(i) * m.cols
        for j in range(m.cols):
            out[dst + col_perm(j)] = m.data[src + j]
    return BinaryMatrix(m.rows, m.cols, tuple(out))


def is_permutation_matrix(m: BinaryMatrix) -> bool:
    """True when m is square with exactly one 1 in every row and column."""
    if m.rows != m.cols:
        return False
    return all(s == 1 for s in m.row_sums()) and all(s == 1 for s in m.col_sums())


# plain text serialization: a header line "rows cols" followed by one line of
# space-separated 0/1 digits per row

_INC_CHARS = frozenset("0123456789 \n")


def to_inc_text(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def from_inc_text(text: str) -> BinaryMatrix:
    bad = set(text) - _INC_CHARS
    if bad:
        raise FormatError(f"illegal character {sorted(bad)[0]!r} in matrix text")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be exactly 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise FormatError("dimensions must be positive")
    if len(lines) - 1 != rows:
        raise FormatError(f"expected {rows} data lines, found {len(lines) - 1}")
    data: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"line {lineno}: expected {cols} entries, found {len(tokens)}")
        for tok in tokens:
            if tok not in ("0", "1"):
                raise FormatError(f"line {lineno}: entry must be 0 or 1, found {tok!r}")
            data.append(1 if tok == "1" else 0)
    return BinaryMatrix(rows, cols, tuple(data))

"""Immutable 0/1 matrices with permutation operations and `.inc` text io."""

from __future__ import annotations

from struct import unpack
from typing import Iterable, Sequence


class FormatError(ValueError):
    """A text payload does not match the file format it claims to follow."""


def ones(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _pair_scan(width: int, lines: Iterable[tuple[int, Iterable[int]]]) -> tuple:
    """joined[i], the bits sharing a line (a mask below 2**width, its bits in increasing order) with bit i, and the
    first clash (line, i, j): that mask and an earlier one both hold bits i < j, i lowest, then j; it stops there."""
    joined = [0] * width
    for line, (mask, bits) in enumerate(lines):
        for i in bits:
            twice = joined[i] & mask
            if twice:
                return joined, (line, i, (twice & -twice).bit_length() - 1)
            joined[i] |= mask ^ 1 << i
    return joined, None


def _decimals(tokens: Iterable[str]) -> list[int]:
    """Digit strings as ints; one longer than the interpreter's int-digit limit is a FormatError."""
    try:
        return [int(token) for token in tokens]
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _record(cls: type) -> type:
    """cls as dataclass(frozen=True) makes it, from plain closures: no generated code, no dataclasses import.

    The fields are cls's own annotations, in order. __init__ takes them by position or keyword and
    calls __post_init__ when cls has one; __repr__ is Name(field=value, ...); __eq__ needs the same
    class and equal fields; __hash__ hashes the field tuple. A method cls defines itself is kept, as
    dataclass keeps it. Assigning or deleting any attribute raises AttributeError.
    """
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"{cls.__name__} has no annotated fields")
    post_init = hasattr(cls, "__post_init__")

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs) -> None:
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)}), each once")
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join([f'{name}={getattr(self, name)!r}' for name in names])})"

    def __eq__(self, other: object) -> bool:
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


class _once:
    """cached_property without its lock: the first read computes the value and stores it in the instance's
    __dict__, where later reads find it first."""

    def __init__(self, func) -> None:
        self.func = func

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


# cell bytes 0/1 <-> ASCII digits, for packing and unpacking rows at C speed
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@_record
class BinaryMatrix:
    """A rectangular matrix over {0, 1}, one int per row.

    Bit j of masks[i] is cell (i, j); `bits[i]` lists row i's set columns,
    lowest first. The constructor takes the cells row-major in a flat
    sequence; `data` gives them back that way.
    Instances are immutable after construction and safe to share freely.
    """

    rows: int
    cols: int
    masks: tuple[int, ...]

    def __init__(self, rows: int, cols: int, data: Sequence[int]) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix must have positive dimensions, got {rows}x{cols}")
        if len(data) != rows * cols:
            raise ValueError(f"flat data holds {len(data)} entries, expected {rows * cols}")
        try:
            cells = bytearray(data)
        except (TypeError, ValueError):
            cells = None
        if cells is None or cells.translate(None, b"\x00\x01"):
            for value in data:
                if value != 0 and value != 1:
                    raise ValueError(f"entries must be 0 or 1, found {value!r}")
            cells = bytearray(value == 1 for value in data)
        # reversed, each row's digits read in binary put cell (i, 0) lowest; rows come last first
        digits = cells.translate(_TO_DIGITS)
        digits.reverse()
        self._fill(cols, tuple([int(row, 2) for row in reversed(unpack(f"{cols}s" * rows, digits))]))

    # construction helpers

    @classmethod
    def from_masks(cls, cols: int, masks: Iterable[int]) -> BinaryMatrix:
        m = object.__new__(cls)
        m._fill(cols, tuple(masks))
        return m

    def _fill(self, cols: int, masks: tuple[int, ...]) -> None:
        if not masks or cols < 1:
            raise ValueError(f"matrix must have positive dimensions, got {len(masks)}x{cols}")
        if min(masks) < 0 or max(masks) >> cols:
            raise ValueError(f"row masks must be nonnegative and below 2**{cols}")
        object.__setattr__(self, "rows", len(masks))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "masks", masks)

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
        return cls.from_masks(cols, (0,) * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> BinaryMatrix:
        return cls.from_masks(cols, ((1 << cols) - 1,) * rows)

    @classmethod
    def identity(cls, n: int) -> BinaryMatrix:
        return cls.from_masks(n, [1 << i for i in range(n)])

    # access

    def _cells(self, mask: int) -> bytes:
        return format(mask, f"0{self.cols}b")[::-1].encode().translate(_FROM_DIGITS)

    @_once
    def data(self) -> tuple[int, ...]:
        return tuple(b"".join(map(self._cells, self.masks)))

    @_once
    def bits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, map(ones, self.masks)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"cell ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.masks[i] >> j & 1

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return tuple(self._cells(self.masks[i]))

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return tuple(mask >> j & 1 for mask in self.masks)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)

    def col_sums(self) -> tuple[int, ...]:
        return self.transpose().row_sums()

    def transpose(self) -> BinaryMatrix:
        out = [0] * self.cols
        for i, row in enumerate(self.bits):
            for j in row:
                out[j] |= 1 << i
        return BinaryMatrix.from_masks(self.rows, out)

    def to_grid(self) -> list[list[int]]:
        return [list(self._cells(mask)) for mask in self.masks]

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


@_record
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
        return BinaryMatrix.from_masks(self.size, [1 << image for image in self.images])


def permute(m: BinaryMatrix, row_perm: Permutation, col_perm: Permutation) -> BinaryMatrix:
    """Reposition entries so input cell (i, j) lands at (row_perm(i), col_perm(j))."""
    if row_perm.size != m.rows or col_perm.size != m.cols:
        raise ValueError(
            f"permutation sizes {row_perm.size}/{col_perm.size} do not match matrix {m.rows}x{m.cols}"
        )
    col_images = col_perm.images
    out = [0] * m.rows
    for i, row in enumerate(m.bits):
        moved = 0
        for j in row:
            moved |= 1 << col_images[j]
        out[row_perm(i)] = moved
    return BinaryMatrix.from_masks(m.cols, out)


def is_permutation_matrix(m: BinaryMatrix) -> bool:
    """True when m is square with exactly one 1 in every row and column."""
    if m.rows != m.cols:
        return False
    return all(mask.bit_count() == 1 for mask in m.masks) and len(set(m.masks)) == m.rows


# plain text serialization: a header line "rows cols" followed by one line of
# space-separated 0/1 digits per row

# deletes every character an .inc or .ls text may hold; what is left is illegal
_TEXT_CHARS = str.maketrans("", "", "0123456789 \n")


def _check_chars(text: str, what: str) -> None:
    """FormatError naming the smallest character of text that is not a digit, a space or a newline."""
    leftover = text.translate(_TEXT_CHARS)
    if leftover:
        raise FormatError(f"illegal character {min(leftover)!r} in {what} text")


def to_inc_text(m: BinaryMatrix) -> str:
    # one row's bytes: digits at even offsets, then a space or the final newline
    row = bytearray(b"0 " * m.cols)
    row[-1:] = b"\n"
    lines = [f"{m.rows} {m.cols}\n"]
    spec = f"0{m.cols}b"
    for mask in m.masks:
        row[::2] = format(mask, spec)[::-1].encode()
        lines.append(row.decode())
    return "".join(lines)


def from_inc_text(text: str) -> BinaryMatrix:
    """The matrix an .inc text holds. A row as to_inc_text writes it, digits 0 or 1 at even offsets and single
    spaces between, is read in one int() call; any other is split into tokens, which read it or find its error."""
    _check_chars(text, "matrix")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be exactly 'rows cols'")
    rows, cols = _decimals(header)
    if rows < 1 or cols < 1:
        raise FormatError("dimensions must be positive")
    if len(lines) - 1 != rows:
        raise FormatError(f"expected {rows} data lines, found {len(lines) - 1}")
    masks = []
    for lineno, line in enumerate(lines[1:], start=2):
        # the even offsets, last first; with cols digits 0 or 1 there and cols - 1 spaces, all odd ones are spaces
        digits = line[::-2]
        if len(line) == 2 * cols - 1 and digits.count("0") + digits.count("1") == cols == line.count(" ") + 1:
            masks.append(int(digits, 2))
            continue
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"line {lineno}: expected {cols} entries, found {len(tokens)}")
        bad = next((tok for tok in tokens if tok not in ("0", "1")), None)
        if bad is not None:
            raise FormatError(f"line {lineno}: entry must be 0 or 1, found {bad!r}")
        masks.append(int("".join(reversed(tokens)), 2))
    return BinaryMatrix.from_masks(cols, masks)

"""Latin squares, mutual projectivity, transversals, and group-table coverage.

Two unit-diagonal squares of one order are projective when every row of one
meets every row of the other in exactly one column with an equal entry. A
set of pairwise projective unit-diagonal squares of order n can hold at
most n - 1 members; a set that reaches that bound is called complete.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .binmat import FormatError, _check_chars, _decimals, _pair_scan, _record


@_record
class LatinSquare:
    """An n x n grid where every row and column uses each of 1..n once."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 1:
            raise ValueError("need at least one row")
        expected = set(range(1, n + 1))
        # rows_with[j][s]: the row holding symbol s in column j; -1 marks a gap
        rows_with = [[-1] * (n + 1) for _ in range(n)]
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            if set(row) != expected:
                raise ValueError(f"row {i} is not a permutation of 1..{n}: {row!r}")
            for column, symbol in zip(rows_with, row):
                column[symbol] = i
        for j, column in enumerate(rows_with):
            if -1 in column[1:]:
                raise ValueError(f"column {j} is not a permutation of 1..{n}")
        object.__setattr__(self, "_rows_with", rows_with)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> LatinSquare:
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: tuple[int, int]) -> int:
        r, c = key
        return self.entries[r][c]

    @property
    def has_unit_diagonal(self) -> bool:
        return all(row[i] == 1 for i, row in enumerate(self.entries))

    def transpose(self) -> LatinSquare:
        n = self.order
        return LatinSquare(tuple(tuple(self.entries[r][c] for r in range(n)) for c in range(n)))


def cyclic_square(n: int) -> LatinSquare:
    """Row i is the cyclic shift (i, i+1, ...); doubles as the Z_n table."""
    return LatinSquare(tuple(tuple((i + j) % n + 1 for j in range(n)) for i in range(n)))


def random_latin_square(order: int, rng: random.Random) -> LatinSquare:
    """A seeded square filled row by row, each row a perfect matching of the columns to their missing symbols.

    missing[c] lists the symbols column c still lacks, shuffled by rng before each row. After r rows
    every column lacks order - r symbols and every symbol is lacked by order - r columns, so the graph
    is (order - r)-regular and has a perfect matching (P. Hall, 1935). The squares are not uniformly
    distributed over all Latin squares of the order.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    from .matching import bipartite_matching
    missing = [list(range(1, order + 1)) for _ in range(order)]
    rows = []
    for _ in range(order):
        for symbols in missing:
            rng.shuffle(symbols)
        row = bipartite_matching(missing, order + 1)
        for symbols, s in zip(missing, row):
            symbols.remove(s)
        rows.append(tuple(row))
    return LatinSquare(tuple(rows))


def _disagreements(a: LatinSquare, b: LatinSquare) -> Iterator[tuple[int, int, int]]:
    """(ra, rb, agree) for each row pair of a and b that agrees in agree != 1 columns."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    for ra, row in enumerate(a.entries):
        # meet[c]: the row of b whose entry at column c equals a's at (ra, c)
        meet = [column[symbol] for column, symbol in zip(b._rows_with, row)]
        if len(set(meet)) == a.order:
            continue
        for rb in range(a.order):
            agree = meet.count(rb)
            if agree != 1:
                yield ra, rb, agree


def projective_pair(a: LatinSquare, b: LatinSquare) -> bool:
    """True when both squares have unit diagonals and any row of a shares
    exactly one position-with-equal-entry with any row of b."""
    return not any(_disagreements(a, b)) and a.has_unit_diagonal and b.has_unit_diagonal


@_record
class MplsSet:
    """A bundle of unit-diagonal squares of one order, at most order - 1 of them.

    Construction enforces the diagonal and size limits only; whether the
    members are actually pairwise projective is the job of verify_mpls.
    """

    order: int
    squares: tuple[LatinSquare, ...]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be at least 2, got {self.order}")
        if len(self.squares) > self.order - 1:
            raise ValueError(
                f"at most {self.order - 1} squares of order {self.order} can be mutually "
                f"projective, got {len(self.squares)}"
            )
        for idx, sq in enumerate(self.squares):
            if sq.order != self.order:
                raise ValueError(f"square {idx} has order {sq.order}, expected {self.order}")
            if not sq.has_unit_diagonal:
                raise ValueError(f"square {idx} does not have an all-ones diagonal")


@_record
class MplsReport:
    is_mpls: bool
    is_complete: bool
    violations: tuple[str, ...]


def verify_mpls(s: MplsSet) -> MplsReport:
    """Check pairwise projectivity; completeness additionally needs order - 1 members.

    Certificate: no two rows share two cells, cell (c, x) being bit c * n + x - 1. A row spreads
    its n cells over another square's n rows, one each, so its n agreements with them are all 1
    exactly when none is 2 or more; rows of one square share no cell. After a clash, square pairs
    are compared to list the violations, save those the scan cleared, whose later square precedes.
    """
    n = s.order
    cells = ([c * n + x - 1 for c, x in enumerate(row)] for square in s.squares for row in square.entries)
    clash = _pair_scan(n * n, ((sum(1 << i for i in row), row) for row in cells))[1]
    if clash is None:
        return MplsReport(True, len(s.squares) == n - 1, ())
    violations = [
        f"squares {i} and {j}: rows {ra} and {rb} agree in {agree} columns, expected 1"
        for i, j in combinations(range(len(s.squares)), 2)
        if j >= clash[0] // n
        for ra, rb, agree in _disagreements(s.squares[i], s.squares[j])
    ]
    return MplsReport(False, False, tuple(violations))


def pair_coverage(s: MplsSet, i: int, j: int) -> bool:
    """Do the rows of a complete set hit every ordered symbol pair at columns (i, j)?

    Reading off (row[i], row[j]) for each of the order*(order-1) rows in the
    set must produce every ordered pair of distinct symbols exactly once.
    """
    if i == j:
        raise ValueError("column indices must differ")
    for c in (i, j):
        if not 0 <= c < s.order:
            raise ValueError(f"column {c} outside 0..{s.order - 1}")
    report = verify_mpls(s)
    if not report.is_complete:
        raise ValueError("pair coverage is defined for complete sets only")
    seen: set[tuple[int, int]] = set()
    for sq in s.squares:
        for row in sq.entries:
            pair = (row[i], row[j])
            if pair in seen:
                return False
            seen.add(pair)
    wanted = {(x, y) for x in range(1, s.order + 1) for y in range(1, s.order + 1) if x != y}
    return seen == wanted


@_record
class Transversal:
    """One cell per row, one per column, every value 1..n exactly once."""

    order: int
    placements: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.placements) != self.order:
            raise ValueError(f"need {self.order} placements, got {len(self.placements)}")
        rows = [r for r, _, _ in self.placements]
        cols = [c for _, c, _ in self.placements]
        values = {v for _, _, v in self.placements}
        if len(set(rows)) != self.order or len(set(cols)) != self.order:
            raise ValueError("placements must cover distinct rows and distinct columns")
        if values != set(range(1, self.order + 1)):
            raise ValueError(f"values must be exactly 1..{self.order}, got {sorted(values)}")

    def matches(self, square: LatinSquare) -> bool:
        return square.order == self.order and all(
            square.entries[r][c] == v for r, c, v in self.placements
        )


def transversals_from_companion(host: LatinSquare, companion: LatinSquare) -> list[Transversal]:
    """One transversal of host per companion row.

    Row s of the companion meets each host row in exactly one column with
    an equal entry; those cells form a transversal of the host, and over
    all s they partition its cells.
    """
    if not projective_pair(host, companion):
        raise ValueError("host and companion are not a projective pair")
    n = host.order
    placements: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for r, row in enumerate(host.entries):
        for c, (symbol, column) in enumerate(zip(row, companion._rows_with)):
            placements[column[symbol]].append((r, c, symbol))
    return [Transversal(n, tuple(cells)) for cells in placements]


@_record
class ResolvabilityReport:
    """Partitions of the target square into transversals, one per companion."""

    target_index: int
    companion_indices: tuple[int, ...]
    resolutions: tuple[tuple[Transversal, ...], ...]
    verified: bool
    problems: tuple[str, ...]


def resolvability_report(s: MplsSet, target_index: int) -> ResolvabilityReport:
    """Resolve the target square once per other member of a complete set.

    Each resolution must split the target's cells into order-many disjoint
    transversals; with order >= 3 there are order - 2 companions, and the
    resulting resolutions are expected to be pairwise distinct.
    """
    report = verify_mpls(s)
    if not report.is_complete:
        raise ValueError("resolvability is defined for complete sets only")
    if s.order < 3:
        raise ValueError(f"resolvability needs order >= 3, got {s.order}")
    if not 0 <= target_index < len(s.squares):
        raise ValueError(f"target index {target_index} outside 0..{len(s.squares) - 1}")
    host = s.squares[target_index]
    n = s.order
    all_cells = {(r, c) for r in range(n) for c in range(n)}
    companions = []
    resolutions = []
    problems: list[str] = []
    for idx, other in enumerate(s.squares):
        if idx == target_index:
            continue
        companions.append(idx)
        transversals = tuple(transversals_from_companion(host, other))
        covered = [(r, c) for t in transversals for r, c, _ in t.placements]
        if len(covered) != len(set(covered)) or set(covered) != all_cells:
            problems.append(f"resolution from square {idx} does not partition the cells")
        for t in transversals:
            if not t.matches(host):
                problems.append(f"resolution from square {idx} contains a transversal off the target")
        resolutions.append(transversals)
    if len(set(resolutions)) != len(resolutions):
        problems.append("two companions produced identical resolutions")
    verified = not problems and len(resolutions) == s.order - 2
    return ResolvabilityReport(
        target_index, tuple(companions), tuple(resolutions), verified, tuple(problems)
    )


def submatrix_symbol_count(
    square: LatinSquare, rows: Iterable[int], cols: Iterable[int]
) -> tuple[dict[int, int], bool]:
    """Count symbols inside a row/column selection and judge the excess rule.

    Whenever the selection sizes satisfy a + b = n + m with m >= 1, every
    symbol must show up at least m times in the selected submatrix. The
    verdict is vacuously true for a + b <= n.
    """
    n = square.order
    row_sel = sorted(set(rows))
    col_sel = sorted(set(cols))
    if not row_sel or not col_sel:
        raise ValueError("row and column selections must be nonempty")
    for r in row_sel:
        if not 0 <= r < n:
            raise ValueError(f"row {r} outside 0..{n - 1}")
    for c in col_sel:
        if not 0 <= c < n:
            raise ValueError(f"column {c} outside 0..{n - 1}")
    counts = {symbol: 0 for symbol in range(1, n + 1)}
    for r in row_sel:
        row = square.entries[r]
        for c in col_sel:
            counts[row[c]] += 1
    excess = len(row_sel) + len(col_sel) - n
    verdict = True if excess < 1 else all(count >= excess for count in counts.values())
    return counts, verdict


@lru_cache(maxsize=128)
def _group_identity(table: LatinSquare) -> int:
    """Identity element of a Cayley table, raising when the table is no group.

    Element i corresponds to symbol i + 1, so row e of an identity must
    read 1..n in order and so must column e. Associativity is checked by
    full triple enumeration, which is fine at desk scale.
    """
    n = table.order
    ordered = tuple(range(1, n + 1))
    identity = None
    for e in range(n):
        if table.entries[e] == ordered and tuple(row[e] for row in table.entries) == ordered:
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    t = table.entries
    for a in range(n):
        for b in range(n):
            ab = t[a][b] - 1
            for c in range(n):
                if t[ab][c] != t[a][t[b][c] - 1]:
                    raise ValueError(f"table is not associative at ({a}, {b}, {c})")
    return identity


def group_product_cover(cayley: LatinSquare, a_rows: Iterable[int], b_cols: Iterable[int]) -> bool:
    """Does the product set A*B read off a group table cover the whole group?

    Guaranteed to hold whenever |A| + |B| >= n + 1; the verdict simply
    reports whether all n symbols appear among the selected cells.
    """
    _group_identity(cayley)
    n = cayley.order
    a_sel = sorted(set(a_rows))
    b_sel = sorted(set(b_cols))
    if not a_sel or not b_sel:
        raise ValueError("both factor selections must be nonempty")
    for x in a_sel + b_sel:
        if not 0 <= x < n:
            raise ValueError(f"element index {x} outside 0..{n - 1}")
    covered: set[int] = set()
    for a in a_sel:
        row = cayley.entries[a]
        for b in b_sel:
            covered.add(row[b])
        if len(covered) == n:
            return True
    return len(covered) == n


# text form: header line "n", then n rows of space-separated symbols; a set
# is one file per square


def to_ls_text(square: LatinSquare) -> str:
    lines = [str(square.order)]
    for row in square.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def from_ls_text(text: str) -> LatinSquare:
    _check_chars(text, "square")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty square block")
    header = lines[0].split()
    if len(header) != 1:
        raise FormatError("square header must be a single order")
    (n,) = _decimals(header)
    if n < 1:
        raise FormatError("order must be positive")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"row {lineno}: expected {n} entries, found {len(tokens)}")
        values = _decimals(tokens)
        if any(not 1 <= x <= n for x in values):
            raise FormatError(f"row {lineno}: entries must sit in 1..{n}")
        rows.append(tuple(values))
    return LatinSquare(tuple(rows))

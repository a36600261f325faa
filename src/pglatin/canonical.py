"""Canonical block form of a plane incidence matrix and the square extraction.

For a plane of order n the incidence matrix (rows are lines, columns are
points) can be permuted into a fixed block layout over the partition
(n+1, n, ..., n) on both axes:

  * the corner block has ones exactly in its first row and first column,
  * the remaining top blocks are all-ones in the row matching their block
    index and zero elsewhere, the left blocks dually in one column,
  * every inner block is an n x n permutation matrix,
  * the first inner block row and the first inner block column consist of
    identity blocks,
  * within any later inner block row the blocks occupy pairwise disjoint
    positions and add up to the all-ones matrix, and dually for columns.

Row 0 of the input is taken as the first line; its points, the lines
through its lowest point, and all remaining free orderings are resolved by
lowest original index, after which the identity constraints pin down every
position inside the blocks. Re-running the procedure on its own output is
therefore the identity.

The later inner block rows encode unit-diagonal Latin squares: writing j
for the inner column in which a block holds a one at cell (r, c) yields
square entries, one square per block row, and those squares are mutually
projective. The reverse direction rebuilds the matrix from a complete set
of squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binmat import BinaryMatrix, Permutation, permute
from .geometry import plane_check
from .latin import LatinSquare, MplsSet, verify_mpls
from .planes import geometry_from_incidence


@dataclass(frozen=True)
class BlockForm:
    """A canonical matrix plus the permutations that made it."""

    matrix: BinaryMatrix
    order: int
    row_perm: Permutation
    col_perm: Permutation

    @property
    def side(self) -> int:
        return self.matrix.rows


def _span(i: int, k: int) -> tuple[int, int]:
    """Start and stop of block i along either axis of the order-k layout."""
    if i == 0:
        return 0, k + 1
    start = k + 1 + (i - 1) * k
    return start, start + k


def canonicalize(m: BinaryMatrix) -> BlockForm:
    """Permute a plane incidence matrix into the canonical block layout.

    The input must be the incidence matrix of a projective plane; anything
    else is rejected. The returned permutations send input positions to
    canonical ones, so permute(m, row_perm, col_perm) reproduces the
    canonical matrix.
    """
    g = geometry_from_incidence(m)
    verdict = plane_check(g)
    if not (verdict.first_def and verdict.second_def):
        raise ValueError("input is not the incidence matrix of a projective plane")
    assert verdict.order is not None
    k = verdict.order
    n = m.rows
    line_sets = [set(line) for line in g.lines]

    line1_pts = list(g.lines[0])
    p1 = line1_pts[0]
    block1_rows = sorted(r for r in range(n) if p1 in line_sets[r])

    col_order = list(line1_pts)
    for line_row in block1_rows[1:]:
        col_order.extend(p for p in g.lines[line_row] if p != p1)

    row_order = list(block1_rows)
    in_block1 = set(block1_rows)
    for s in range(1, k + 1):
        ps = line1_pts[s]
        row_order.extend(
            r for r in range(n) if r not in in_block1 and ps in line_sets[r]
        )
    if len(col_order) != n or len(row_order) != n:
        raise RuntimeError("stage ordering lost indices; this cannot happen")

    # inner identity normalization: first reorder each inner column block so
    # the block in the first inner row becomes the identity, then reorder the
    # rows of the later inner row blocks against the first inner column block
    first_inner_rows = row_order[slice(*_span(1, k))]
    for j in range(1, k + 1):
        start, stop = _span(j, k)
        segment = col_order[start:stop]
        seg_set = set(segment)
        new_segment: list[int | None] = [None] * k
        for local, r in enumerate(first_inner_rows):
            hits = line_sets[r] & seg_set
            if len(hits) != 1:
                raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
            new_segment[local] = hits.pop()
        col_order[start:stop] = new_segment  # type: ignore[assignment]
    first_inner_cols = col_order[slice(*_span(1, k))]
    for i in range(2, k + 1):
        start, stop = _span(i, k)
        segment = row_order[start:stop]
        new_rows: list[int | None] = [None] * k
        for r in segment:
            hits = [local for local, c in enumerate(first_inner_cols) if c in line_sets[r]]
            if len(hits) != 1 or new_rows[hits[0]] is not None:
                raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
            new_rows[hits[0]] = r
        row_order[start:stop] = new_rows  # type: ignore[assignment]

    row_images = [0] * n
    for position, original in enumerate(row_order):
        row_images[original] = position
    col_images = [0] * n
    for position, original in enumerate(col_order):
        col_images[original] = position
    row_perm = Permutation(tuple(row_images))
    col_perm = Permutation(tuple(col_images))
    form = BlockForm(permute(m, row_perm, col_perm), k, row_perm, col_perm)
    report = verify_block_form(form)
    if not report.ok:
        raise RuntimeError(f"canonicalization produced an invalid block form: {report.first}")
    return form


@dataclass(frozen=True)
class BlockFormReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> str | None:
        return self.violations[0] if self.violations else None


def _miscovered(blocks: list[tuple[tuple[int, ...], ...]]) -> tuple[int, int, int] | None:
    """The first cell (r, c, total) that the blocks together do not cover exactly once."""
    for r, block_rows in enumerate(zip(*blocks)):
        for c, total in enumerate(map(sum, zip(*block_rows))):
            if total != 1:
                return r, c, total
    return None


def verify_block_form(bf: BlockForm) -> BlockFormReport:
    """Check every structural rule of the canonical layout and list failures."""
    problems: list[str] = []
    k = bf.order
    n = k * k + k + 1
    if bf.matrix.rows != n or bf.matrix.cols != n:
        return BlockFormReport((f"matrix is {bf.matrix.rows}x{bf.matrix.cols}, expected {n}x{n}",))
    data = bf.matrix.data

    def cut(i: int, j: int) -> tuple[tuple[int, ...], ...]:
        r0, r1 = _span(i, k)
        c0, c1 = _span(j, k)
        return tuple(data[r * n + c0 : r * n + c1] for r in range(r0, r1))

    if cut(0, 0) != ((1,) * (k + 1),) + ((1,) + (0,) * k,) * k:
        problems.append("corner block must have ones exactly in its first row and first column")
    for j in range(1, k + 1):
        if cut(0, j) != tuple((1 if r == j else 0,) * k for r in range(k + 1)):
            problems.append(f"top block {j} must have ones exactly in row {j}")
    for i in range(1, k + 1):
        if cut(i, 0) != (tuple(1 if c == i else 0 for c in range(k + 1)),) * k:
            problems.append(f"left block {i} must have ones exactly in column {i}")

    inner = {(i, j): cut(i, j) for i in range(1, k + 1) for j in range(1, k + 1)}
    identity = tuple(tuple(1 if c == r else 0 for c in range(k)) for r in range(k))
    for (i, j), blk in inner.items():
        if any(sum(line) != 1 for line in blk + tuple(zip(*blk))):
            problems.append(f"inner block ({i}, {j}) is not a permutation matrix")
    for j in range(1, k + 1):
        if inner[(1, j)] != identity:
            problems.append(f"inner block (1, {j}) must be the identity")
    for i in range(2, k + 1):
        if inner[(i, 1)] != identity:
            problems.append(f"inner block ({i}, 1) must be the identity")

    for i in range(2, k + 1):
        bad = _miscovered([inner[(i, j)] for j in range(1, k + 1)])
        if bad:
            problems.append(f"inner block row {i} covers cell ({bad[0]}, {bad[1]}) {bad[2]} times, expected once")
    for j in range(2, k + 1):
        bad = _miscovered([inner[(i, j)] for i in range(1, k + 1)])
        if bad:
            problems.append(f"inner block column {j} covers cell ({bad[0]}, {bad[1]}) {bad[2]} times, expected once")
    return BlockFormReport(tuple(problems))


def extract_mpls(bf: BlockForm) -> MplsSet:
    """Read the mutually projective squares out of a verified block form.

    Inner block row i (from the second onward) becomes one square: its
    entry at (r, c) is the inner column index of the block holding a one
    there. The identity blocks in the first inner column put ones on every
    diagonal.
    """
    report = verify_block_form(bf)
    if not report.ok:
        raise ValueError(f"block form violates the layout: {report.first}")
    k = bf.order
    squares = []
    for i in range(2, k + 1):
        cells = [[0] * k for _ in range(k)]
        for r in range(k):
            row = bf.matrix.row(_span(i, k)[0] + r)
            for j in range(1, k + 1):
                c0, c1 = _span(j, k)
                for c, value in enumerate(row[c0:c1]):
                    if value:
                        cells[r][c] = j
        squares.append(LatinSquare.from_rows(cells))
    return MplsSet(k, tuple(squares))


def reconstruct(s: MplsSet) -> BinaryMatrix:
    """Rebuild the canonical incidence matrix from a complete square set.

    Inverse of extract_mpls: square entries turn back into the positions
    of ones inside the inner blocks, and the border blocks are fixed by
    the layout. The result is a plane incidence matrix of order s.order.
    """
    report = verify_mpls(s)
    if not report.is_complete:
        detail = report.violations[0] if report.violations else f"{len(s.squares)} squares, need {s.order - 1}"
        raise ValueError(f"reconstruction needs a complete set: {detail}")
    k = s.order
    n = k * k + k + 1
    data = [0] * (n * n)
    # border band: row 0 fills the corner's first row, row r starts the
    # corner's first column and fills top block r
    data[: k + 1] = [1] * (k + 1)
    for r in range(1, k + 1):
        data[r * n] = 1
        c0, c1 = _span(r, k)
        data[r * n + c0 : r * n + c1] = [1] * k
    # inner bands: left block i has its ones in column i, the first band
    # holds identity blocks and every later band one square
    for i in range(1, k + 1):
        for r in range(k):
            base = (_span(i, k)[0] + r) * n
            data[base + i] = 1
            if i == 1:
                ones = [(j, r) for j in range(1, k + 1)]
            else:
                ones = [(s.squares[i - 2].entries[r][c], c) for c in range(k)]
            for j, c in ones:
                data[base + _span(j, k)[0] + c] = 1
    return BinaryMatrix(n, n, tuple(data))

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

The later inner block rows encode unit-diagonal Latin squares, one per
block row, with entry j at (r, c) when inner block j holds a one there.
They are mutually projective only when the matrix is a plane, as it is for
every form canonicalize returns: it runs the plane test first. The reverse
direction rebuilds the matrix from a complete set of squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .binmat import BinaryMatrix, Permutation, ones, permute
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

    @cached_property
    def _report(self) -> BlockFormReport:
        """verify_block_form(self), run once per form; the form is frozen."""
        return verify_block_form(self)


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
    rows = m.masks

    line1_pts = ones(rows[0])
    p1 = line1_pts[0]
    block1_rows = [r for r in range(n) if rows[r] >> p1 & 1]

    col_order = list(line1_pts)
    for r in block1_rows[1:]:
        col_order.extend(ones(rows[r] ^ 1 << p1))

    row_order = list(block1_rows)
    for ps in line1_pts[1:]:
        # the lines through ps that miss p1
        both = 1 << ps | 1 << p1
        row_order.extend(r for r in range(n) if rows[r] & both == 1 << ps)

    # inner identity normalization: first reorder each inner column block so
    # the block in the first inner row becomes the identity, then reorder the
    # rows of the later inner row blocks against the first inner column block
    first_inner_rows = row_order[slice(*_span(1, k))]
    for j in range(1, k + 1):
        start, stop = _span(j, k)
        segment = sum(1 << c for c in col_order[start:stop])
        hits = [rows[r] & segment for r in first_inner_rows]
        if any(hit.bit_count() != 1 for hit in hits):
            raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
        col_order[start:stop] = [hit.bit_length() - 1 for hit in hits]
    first_inner_cols = col_order[slice(*_span(1, k))]
    local_of = {c: local for local, c in enumerate(first_inner_cols)}
    first_inner = sum(1 << c for c in first_inner_cols)
    for i in range(2, k + 1):
        start, stop = _span(i, k)
        new_rows: list[int | None] = [None] * k
        for r in row_order[start:stop]:
            hit = rows[r] & first_inner
            if hit.bit_count() != 1 or new_rows[local_of[hit.bit_length() - 1]] is not None:
                raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
            new_rows[local_of[hit.bit_length() - 1]] = r
        row_order[start:stop] = new_rows  # type: ignore[assignment]

    # position -> original, checked to be a bijection, inverted to original -> position
    row_perm = Permutation(tuple(row_order)).inverse()
    col_perm = Permutation(tuple(col_order)).inverse()
    form = BlockForm(permute(m, row_perm, col_perm), k, row_perm, col_perm)
    if not form._report.ok:
        raise RuntimeError(f"canonicalization produced an invalid block form: {form._report.first}")
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


def _miscovered(blocks: list[list[int]], k: int) -> tuple[int, int, int] | None:
    """The first cell (r, c, total) that the k-column blocks together do not cover exactly once."""
    full = (1 << k) - 1
    for r, pieces in enumerate(zip(*blocks)):
        # the sum exceeds the union exactly when two pieces overlap
        if sum(pieces) == reduce(or_, pieces) == full:
            continue
        for c in range(k):
            total = sum(piece >> c & 1 for piece in pieces)
            if total != 1:
                return r, c, total
    return None


def verify_block_form(bf: BlockForm) -> BlockFormReport:
    """Check every rule of the canonical layout, not that the matrix is a plane, and list failures."""
    problems: list[str] = []
    k = bf.order
    n = k * k + k + 1
    if bf.matrix.rows != n or bf.matrix.cols != n:
        return BlockFormReport((f"matrix is {bf.matrix.rows}x{bf.matrix.cols}, expected {n}x{n}",))
    # pieces[r][j]: the bits of row r inside block column j, shifted down to bit 0
    width = [(1 << k + 1) - 1] + [(1 << k) - 1] * k
    pieces = [[mask >> _span(j, k)[0] & width[j] for j in range(k + 1)] for mask in bf.matrix.masks]

    def cut(i: int, j: int) -> list[int]:
        return [row[j] for row in pieces[slice(*_span(i, k))]]

    if cut(0, 0) != [(1 << k + 1) - 1] + [1] * k:
        problems.append("corner block must have ones exactly in its first row and first column")
    for j in range(1, k + 1):
        if cut(0, j) != [(1 << k) - 1 if r == j else 0 for r in range(k + 1)]:
            problems.append(f"top block {j} must have ones exactly in row {j}")
    for i in range(1, k + 1):
        if cut(i, 0) != [1 << i] * k:
            problems.append(f"left block {i} must have ones exactly in column {i}")

    inner = {(i, j): cut(i, j) for i in range(1, k + 1) for j in range(1, k + 1)}
    identity = [1 << r for r in range(k)]
    for (i, j), blk in inner.items():
        if any(row.bit_count() != 1 for row in blk) or len(set(blk)) != k:
            problems.append(f"inner block ({i}, {j}) is not a permutation matrix")
    for j in range(1, k + 1):
        if inner[(1, j)] != identity:
            problems.append(f"inner block (1, {j}) must be the identity")
    for i in range(2, k + 1):
        if inner[(i, 1)] != identity:
            problems.append(f"inner block ({i}, 1) must be the identity")

    for i in range(2, k + 1):
        bad = _miscovered([inner[(i, j)] for j in range(1, k + 1)], k)
        if bad:
            problems.append(f"inner block row {i} covers cell ({bad[0]}, {bad[1]}) {bad[2]} times, expected once")
    for j in range(2, k + 1):
        bad = _miscovered([inner[(i, j)] for i in range(1, k + 1)], k)
        if bad:
            problems.append(f"inner block column {j} covers cell ({bad[0]}, {bad[1]}) {bad[2]} times, expected once")
    return BlockFormReport(tuple(problems))


def extract_mpls(bf: BlockForm) -> MplsSet:
    """Read the unit-diagonal Latin squares out of a verified block form.

    Inner block row i (from the second onward) becomes one square: its
    entry at (r, c) is the inner column index of the block holding a one
    there, and the identity blocks in the first inner column put ones on
    every diagonal. They are mutually projective only when the matrix is a plane.
    """
    if not bf._report.ok:
        raise ValueError(f"block form violates the layout: {bf._report.first}")
    k = bf.order
    masks = bf.matrix.masks
    squares = []
    for i in range(2, k + 1):
        cells = [[0] * k for _ in range(k)]
        for r, mask in enumerate(masks[slice(*_span(i, k))]):
            for j in range(1, k + 1):
                piece = mask >> _span(j, k)[0]
                cells[r][(piece & -piece).bit_length() - 1] = j
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
    # border band: row 0 fills the corner's first row, row r starts the
    # corner's first column and fills top block r
    full = (1 << k) - 1
    masks = [(1 << k + 1) - 1] + [1 | full << _span(r, k)[0] for r in range(1, k + 1)]
    # inner bands: left block i has its ones in column i, the first band
    # holds identity blocks and every later band one square
    for i in range(1, k + 1):
        for r in range(k):
            if i == 1:
                cells = [(j, r) for j in range(1, k + 1)]
            else:
                cells = [(s.squares[i - 2].entries[r][c], c) for c in range(k)]
            masks.append(sum(1 << _span(j, k)[0] + c for j, c in cells) | 1 << i)
    return BinaryMatrix.from_masks(n, masks)

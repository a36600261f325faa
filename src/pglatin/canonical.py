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

Row 0 of the input is taken as line 0 and its lowest point as p1. Three
orders are free, each taken in increasing index: line 0's points, the lines
through p1, and the first inner row band. Two distinct lines of a plane meet
in exactly one point, and the meets fix every other order: inner column
block j lists where the first band's lines meet the j-th line through p1
after line 0, and each later row band is ordered by where its lines meet the
first of those. Re-running the procedure on its own output is therefore the
identity.

The later inner block rows encode unit-diagonal Latin squares, one per
block row, with entry j at (r, c) when inner block j holds a one there.
They are mutually projective only when the matrix is a plane, as it is for
every form canonicalize returns: it runs the plane test first. The reverse
direction rebuilds the matrix from a complete set of squares.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import TYPE_CHECKING

from .binmat import BinaryMatrix, Permutation, _once, _record, permute
from .geometry import geometry_from_incidence, plane_check

if TYPE_CHECKING:
    from .latin import MplsSet


@_record
class BlockForm:
    """A canonical matrix plus the permutations that made it."""

    matrix: BinaryMatrix
    order: int
    row_perm: Permutation
    col_perm: Permutation

    @property
    def side(self) -> int:
        return self.matrix.rows

    @_once
    def _report(self) -> BlockFormReport:
        """verify_block_form(self), run once per form; the form is frozen."""
        return verify_block_form(self)


def _edges(k: int) -> list[int]:
    """Where each block of the order-k layout starts along either axis, then the side k² + k + 1."""
    return [0, *range(k + 1, k * k + k + 2, k)]


def canonicalize(m: BinaryMatrix) -> BlockForm:
    """Permute a plane incidence matrix into the canonical block layout.

    The input must be the incidence matrix of a projective plane; anything
    else is rejected. The returned permutations send input positions to
    canonical ones, so permute(m, row_perm, col_perm) reproduces the
    canonical matrix.
    """
    verdict = plane_check(geometry_from_incidence(m))
    if not (verdict.first_def and verdict.second_def):
        raise ValueError("input is not the incidence matrix of a projective plane")
    assert verdict.order is not None
    k = verdict.order
    rows = m.masks

    def meet(r: int, line: int) -> int:
        hit = rows[r] & rows[line]
        if hit.bit_count() != 1:
            raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
        return hit.bit_length() - 1

    # free, each in increasing index: line 0's points, the lines through p1
    # (line 0 first) and the first band; band i holds the lines through
    # point i of line 0 that miss p1
    line0 = m.bits[0]
    p1 = line0[0]
    pencil = [r for r, mask in enumerate(rows) if mask >> p1 & 1]
    bands = [[r for r, mask in enumerate(rows) if mask & (1 << ps | 1 << p1) == 1 << ps] for ps in line0[1:]]
    # fixed by the meets: inner column block j is where the first band meets
    # pencil[j], so every block of the first inner row band is the identity;
    # each later band takes the order in which its lines meet pencil[1], so
    # every block of the first inner column is the identity too
    blocks = [[meet(r, line) for r in bands[0]] for line in pencil[1:]]
    row_order = pencil + bands[0]
    for band in bands[1:]:
        by_meet = {meet(r, pencil[1]): r for r in band}
        if len(by_meet) != k:
            raise RuntimeError("inner block is not a permutation matrix; this cannot happen")
        row_order += [by_meet[p] for p in blocks[0]]

    # position -> original, checked to be a bijection, inverted to original -> position
    row_perm = Permutation(tuple(row_order)).inverse()
    col_perm = Permutation(line0 + tuple(p for block in blocks for p in block)).inverse()
    form = BlockForm(permute(m, row_perm, col_perm), k, row_perm, col_perm)
    if not form._report.ok:
        raise RuntimeError(f"canonicalization produced an invalid block form: {form._report.first}")
    return form


@_record
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
    edges = _edges(k)
    width = [(1 << k + 1) - 1] + [(1 << k) - 1] * k
    pieces = [[mask >> edges[j] & width[j] for j in range(k + 1)] for mask in bf.matrix.masks]

    def cut(i: int, j: int) -> list[int]:
        return [row[j] for row in pieces[edges[i]:edges[i + 1]]]

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
    from .latin import LatinSquare, MplsSet
    if not bf._report.ok:
        raise ValueError(f"block form violates the layout: {bf._report.first}")
    k = bf.order
    edges = _edges(k)
    squares = []
    for i in range(2, k + 1):
        cells = [[0] * k for _ in range(k)]
        for r, mask in enumerate(bf.matrix.masks[edges[i]:edges[i + 1]]):
            for j in range(1, k + 1):
                piece = mask >> edges[j]
                cells[r][(piece & -piece).bit_length() - 1] = j
        squares.append(LatinSquare.from_rows(cells))
    return MplsSet(k, tuple(squares))


def reconstruct(s: MplsSet) -> BinaryMatrix:
    """Rebuild the canonical incidence matrix from a complete square set.

    Inverse of extract_mpls: square entries turn back into the positions
    of ones inside the inner blocks, and the border blocks are fixed by
    the layout. The result is a plane incidence matrix of order s.order.
    """
    from .latin import verify_mpls
    report = verify_mpls(s)
    if not report.is_complete:
        detail = report.violations[0] if report.violations else f"{len(s.squares)} squares, need {s.order - 1}"
        raise ValueError(f"reconstruction needs a complete set: {detail}")
    return _layout(s.order, [square.entries for square in s.squares])


def _layout(k: int, squares) -> BinaryMatrix:
    """The canonical layout of order k with one later inner band per square, given as rows of symbols 1..k.

    Fixed borders and an identity first inner band; entry j at (r, c) of a
    square puts row r's one in inner block j at column c. The squares need
    not be mutually projective, so the matrix need not be a plane.
    """
    edges = _edges(k)
    masks = [(1 << k + 1) - 1] + [1 | (1 << k) - 1 << edges[r] for r in range(1, k + 1)]
    masks += [1 << 1 | sum(1 << edges[j] + r for j in range(1, k + 1)) for r in range(k)]
    for i, rows in enumerate(squares, start=2):
        masks += [1 << i | sum(1 << edges[j] + c for c, j in enumerate(row)) for row in rows]
    return BinaryMatrix.from_masks(edges[-1], masks)

"""Enumerating the short side against the bounded search and the per-cell scan.

A one-sided matrix with at most matching._SHORT_SIDE rows or columns gets
its witness from the sets of those lines: of the heaviest blocks through
the row-major-first heaviest cell, the one with the fewest rows, read off
the enumeration with no matching solved. That witness must be the one the
search finds (_SHORT_SIDE = 0) and the one tests/oracles.per_cell_zero_block
finds, tuple for tuple, on every 3x3, 2xn and nx2 matrix and on seeded
matrices with 1 to 10 rows or columns, enough of them with heaviest blocks
through that cell that differ in their row counts; and the path must follow
the short side alone.
"""

import random
from collections import Counter

import pytest

from oracles import per_cell_zero_block
from pglatin import matching
from pglatin.binmat import BinaryMatrix, ones
from samples import random_matrix


def solve(f: BinaryMatrix, short_side: int):
    """max_zero_submatrix(f) as (rows, cols) or None under short_side, and how many masks it listed."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_SHORT_SIDE", short_side)
        patch.setattr(matching, "ones", lambda mask: calls.append(1) or ones(mask))
        found = matching.max_zero_submatrix(f)
    return (None if found is None else (found.rows, found.cols)), len(calls)


def assert_agrees(f: BinaryMatrix, reached: Counter) -> None:
    """Both paths give the oracle's witness, and f takes the path its short side picks; reached counts the paths."""
    found, listed = solve(f, matching._SHORT_SIDE)
    searched, searched_listed = solve(f, 0)
    assert found == searched == per_cell_zero_block(f.rows, f.cols, f.data), f.to_grid()
    # a two-sided or zero-free matrix lists no mask; enumerating lists the block's two, and the search goes on from
    # the first cell's two to list the zeros of every row it groups by
    assert listed == searched_listed == 0 or searched_listed > 2, f.to_grid()
    if listed:
        short = min(f.rows, f.cols) <= matching._SHORT_SIDE
        assert (listed == 2) == short, f.to_grid()
        reached["searched" if not short else "rows" if f.rows <= f.cols else "cols"] += 1
        reached["row counts differ"] += short and len(row_counts(f, found)) > 1


def row_counts(f: BinaryMatrix, found: tuple) -> set:
    """The row counts of f's heaviest zero blocks through the first cell of found, a heaviest block, from every set
    of the short side's lines."""
    g, i, j = (f, found[0][0], found[1][0]) if f.rows <= f.cols else (f.transpose(), found[1][0], found[0][0])
    weight, all_cols, counts = len(found[0]) + len(found[1]), (1 << g.cols) - 1, set()
    unions = [0]
    for mask in g.masks:
        unions += [union | mask for union in unions]
    for s, union in enumerate(unions):
        zeros = all_cols ^ union
        if s >> i & 1 and zeros >> j & 1 and s.bit_count() + zeros.bit_count() == weight:
            counts.add(s.bit_count() if g is f else zeros.bit_count())
    return counts


def test_every_3x3_matrix():
    reached = Counter()
    for bits in range(1 << 9):
        assert_agrees(BinaryMatrix(3, 3, tuple(bits >> k & 1 for k in range(9))), reached)
    assert reached["rows"] >= 100, reached


@pytest.mark.parametrize("n", range(1, 7))
def test_every_two_line_matrix(n):
    reached = Counter()
    for bits in range(1 << 2 * n):
        data = tuple(bits >> k & 1 for k in range(2 * n))
        assert_agrees(BinaryMatrix(2, n, data), reached)
        assert_agrees(BinaryMatrix(n, 2, data), reached)
    assert reached["rows"] + reached["cols"] >= 1 << n, reached


@pytest.mark.parametrize("seed", range(4))
def test_seeded_short_sides(seed):
    # 250 matrices per seed and their transposes, 1..6 rows and 1..12 columns, densities spread over (0, 1)
    rng, reached = random.Random(seed), Counter()
    for k in range(250):
        f = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 12), (k % 24 + 1) / 25)
        assert_agrees(f, reached)
        assert_agrees(f.transpose(), reached)
    assert min(reached["rows"], reached["cols"]) >= 100 and reached["row counts differ"] >= 20, reached


@pytest.mark.parametrize("lines", range(7, 11))
def test_seeded_longer_short_sides(lines):
    # 200 matrices per side length and their transposes, with that many rows and up to 14 columns
    rng, reached = random.Random(lines), Counter()
    for k in range(200):
        f = random_matrix(rng, lines, rng.randint(lines, 14), (k % 9 + 1) / 10)
        assert_agrees(f, reached)
        assert_agrees(f.transpose(), reached)
    assert min(reached["rows"], reached["cols"]) >= 80 and reached["row counts differ"] >= 20, reached


def test_lines_past_the_short_side_are_searched():
    rng, reached, lines = random.Random(7), Counter(), matching._SHORT_SIDE + 1
    for k in range(60):
        f = random_matrix(rng, lines, rng.randint(lines, lines + 5), (0.3, 0.5, 0.7)[k % 3])
        assert_agrees(f, reached)
        assert_agrees(f.transpose(), reached)
    assert reached["searched"] >= 60, reached

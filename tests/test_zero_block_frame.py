"""The premise of _zero_block's frame: a one-sided selection saturates the short side.

When the best selection avoiding every one is one-sided, the maximum
matching has min(m, n) pairs (Konig), so _zero_block takes the short side
as its rows from the shape alone: the selection keeps every column when
m <= n and every row when m > n. Checked on every matrix with a zero and a
one-sided selection among every 3x3, 2xn and nx2 matrix, seeded matrices
and their transposes, and relabelled planes and near-planes.
"""

import random
from collections import Counter

import pytest

from pglatin import matching
from pglatin.binmat import BinaryMatrix
from samples import random_matrix, relabelled_plane
from test_plane_certificate import dropped_one, moved_one


def assert_frame(f: BinaryMatrix, reached: Counter) -> None:
    """f's selection, when one-sided and f has a zero, keeps the long side whole; reached counts f's shape."""
    match_left = matching.bipartite_matching(f.bits, f.cols)
    rows_in, cols_in = matching._independent_selection(f.bits, f.cols, match_left)
    if rows_in and cols_in or all(mask == (1 << f.cols) - 1 for mask in f.masks):
        return
    assert sum(c >= 0 for c in match_left) == min(f.rows, f.cols), f.to_grid()
    if f.rows <= f.cols:
        assert (rows_in, cols_in) == ([], list(range(f.cols))), f.to_grid()
    else:
        assert (rows_in, cols_in) == (list(range(f.rows)), []), f.to_grid()
    reached["wide" if f.rows < f.cols else "tall" if f.rows > f.cols else "square"] += 1


def test_every_3x3_matrix():
    reached = Counter()
    for bits in range(1 << 9):
        assert_frame(BinaryMatrix(3, 3, tuple(bits >> k & 1 for k in range(9))), reached)
    assert reached["square"] >= 100, reached


@pytest.mark.parametrize("n", range(1, 7))
def test_every_two_line_matrix(n):
    reached = Counter()
    for bits in range(1 << 2 * n):
        data = tuple(bits >> k & 1 for k in range(2 * n))
        assert_frame(BinaryMatrix(2, n, data), reached)
        assert_frame(BinaryMatrix(n, 2, data), reached)
    assert sum(reached.values()) >= 1 << n, reached


@pytest.mark.parametrize("seed", range(4))
def test_seeded_matrices_and_transposes(seed):
    # 250 matrices per seed and their transposes, sides 1..12, densities spread over (0, 1)
    rng, reached = random.Random(seed), Counter()
    for k in range(250):
        f = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), (k % 24 + 1) / 25)
        assert_frame(f, reached)
        assert_frame(f.transpose(), reached)
    assert min(reached["wide"], reached["tall"]) >= 50 and reached["square"] >= 5, reached


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_planes_and_near_planes(q):
    f, reached = relabelled_plane(q, random.Random(q)), Counter()
    assert_frame(f, reached)
    for r in (1, f.rows // 2, f.rows - 1):
        for edit in (moved_one, dropped_one):
            assert_frame(edit(f, r), reached)
            assert_frame(edit(f, r).transpose(), reached)
    # the plane and its 12 edits all have a perfect matching
    assert reached["square"] == 13, reached

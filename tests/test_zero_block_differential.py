"""The pruned zero-block search against the unpruned per-zero-cell scan.

max_zero_submatrix skips a zero cell when a degree bound shows that forcing
it cannot beat the best block found so far. The skips must leave the
witness exactly as tests/oracles.per_cell_zero_block finds it, tuple for
tuple, and duality_report must give the same witnesses from its one shared
matching.
"""

import random

import pytest

from oracles import per_cell_zero_block
from pglatin import matching
from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.matching import duality_report, max_independent_ones, max_zero_submatrix
from pglatin.planes import build_pg2


def assert_agrees(f: BinaryMatrix) -> None:
    expected = per_cell_zero_block(f.rows, f.cols, f.data)
    found = max_zero_submatrix(f)
    assert (None if found is None else (found.rows, found.cols)) == expected, f.to_grid()
    report = duality_report(f)
    assert report.w_witness == found
    assert report.v_witness == max_independent_ones(f)


def relabelled_plane(q: int, rng: random.Random) -> BinaryMatrix:
    incidence = build_pg2(q).incidence
    rows, cols = list(range(incidence.rows)), list(range(incidence.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return permute(incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))


def flip(f: BinaryMatrix, r: int, c: int) -> BinaryMatrix:
    masks = list(f.masks)
    masks[r] ^= 1 << c
    return BinaryMatrix.from_masks(f.cols, masks)


def circulant(n: int, offsets) -> BinaryMatrix:
    return BinaryMatrix.from_masks(n, [sum(1 << (i + s) % n for s in set(offsets)) for i in range(n)])


def test_every_3x3_matrix():
    for bits in range(1 << 9):
        assert_agrees(BinaryMatrix(3, 3, tuple(bits >> k & 1 for k in range(9))))


@pytest.mark.parametrize("seed", range(8))
def test_random_matrices(seed):
    # 300 matrices per seed, sides 1..12, densities spread evenly over (0, 1)
    rng = random.Random(seed)
    for k in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = (k % 49 + 1) / 50
        assert_agrees(BinaryMatrix(rows, cols, tuple(int(rng.random() < density) for _ in range(rows * cols))))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_relabelled_planes_with_and_without_a_flip(q):
    rng = random.Random(q)
    for _ in range(3):
        f = relabelled_plane(q, rng)
        assert_agrees(f)
        assert_agrees(flip(f, rng.randrange(f.rows), rng.randrange(f.cols)))


@pytest.mark.parametrize("n", range(1, 14))
def test_circulants(n):
    rng = random.Random(n)
    generators = [range(k) for k in range(1, n + 1)]
    generators += [rng.sample(range(n), rng.randint(1, n)) for _ in range(4)]
    for offsets in generators:
        assert_agrees(circulant(n, offsets))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13])
def test_plane_zero_block_costs_two_matchings(q, monkeypatch):
    # every zero cell of a plane weighs q^2 + 1 and its degree bound is exact,
    # so the first cell settles w and every other cell is skipped
    calls = []
    solve = matching.bipartite_matching
    monkeypatch.setattr(matching, "bipartite_matching", lambda *args: calls.append(1) or solve(*args))
    f = relabelled_plane(q, random.Random(100 + q))
    report = duality_report(f)
    assert report.w == q * q + 1
    (row,) = report.w_witness.rows
    assert report.w_witness.cols == tuple(c for c in range(f.cols) if not f[row, c])
    assert len(calls) <= 2

"""bipartite_matching against the plain augmenting-path oracle.

bipartite_matching shares one visited list across failed searches and can
grow a given partial matching. From an empty start or a partial one it must
return exactly tests/oracles.augmenting_path_matching's assignment, leaving
its arguments as they were, and the zero-block cover it feeds must not
depend on which maximum matching it is given.
"""

import random

import pytest

from oracles import augmenting_path_matching
from pglatin.binmat import BinaryMatrix, ones
from pglatin.matching import _independent_selection, bipartite_matching, decompose_regular
from samples import random_matrix, relabelled_plane


def adjacency_of(f: BinaryMatrix) -> list[list[int]]:
    return list(map(ones, f.masks))


def assert_same_matching(f: BinaryMatrix) -> None:
    adjacency = adjacency_of(f)
    assert bipartite_matching(adjacency, f.cols) == augmenting_path_matching(adjacency, f.cols), f.to_grid()


def random_partial_matching(adjacency, right_size: int, rng: random.Random) -> list[int]:
    """A seeded random matching: shuffled edges, each kept when its row and column are free."""
    edges = [(r, c) for r, cols in enumerate(adjacency) for c in cols]
    rng.shuffle(edges)
    match_left, taken = [-1] * len(adjacency), [False] * right_size
    for r, c in edges[: rng.randint(0, len(edges))]:
        if match_left[r] < 0 and not taken[c]:
            match_left[r], taken[c] = c, True
    return match_left


def test_every_3x3_matrix():
    for bits in range(1 << 9):
        assert_same_matching(BinaryMatrix(3, 3, tuple(bits >> k & 1 for k in range(9))))


@pytest.mark.parametrize("seed", range(4))
def test_random_matrices_up_to_16(seed):
    rng = random.Random(seed)
    for k in range(500):
        assert_same_matching(random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16), (k % 19 + 1) / 20))


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7])
def test_large_random_matrices(density):
    rng = random.Random(int(density * 10))
    for _ in range(40):
        assert_same_matching(random_matrix(rng, rng.randint(16, 40), rng.randint(16, 40), density))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_relabelled_planes(q):
    assert_same_matching(relabelled_plane(q, random.Random(200 + q)))


def test_decompose_regular_follows_the_oracle():
    f = relabelled_plane(9, random.Random(9))
    adjacency, expected = adjacency_of(f), []
    for _ in range(10):
        match_left = augmenting_path_matching(adjacency, f.cols)
        for r, c in enumerate(match_left):
            adjacency[r].remove(c)
        expected.append(tuple(1 << c for c in match_left))
    assert [part.masks for part in decompose_regular(f, 10)] == expected


def assert_same_warm_start(adjacency, right_size: int, partial: list[int]) -> None:
    adjacency_before, partial_before = [list(cols) for cols in adjacency], list(partial)
    grown = bipartite_matching(adjacency, right_size, partial)
    assert grown == augmenting_path_matching(adjacency, right_size, partial), (adjacency, partial)
    # decompose_regular and every cell solve reuse both after the call
    assert adjacency == adjacency_before and partial == partial_before


@pytest.mark.parametrize("seed", range(4))
def test_warm_starts_on_random_matrices(seed):
    rng = random.Random(100 + seed)
    for k in range(300):
        f = random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16), (k % 19 + 1) / 20)
        adjacency = adjacency_of(f)
        for _ in range(2):
            assert_same_warm_start(adjacency, f.cols, random_partial_matching(adjacency, f.cols, rng))


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7])
def test_warm_starts_on_large_random_matrices(density):
    rng = random.Random(100 + int(density * 10))
    for _ in range(40):
        f = random_matrix(rng, rng.randint(16, 40), rng.randint(16, 40), density)
        adjacency = adjacency_of(f)
        for _ in range(4):
            assert_same_warm_start(adjacency, f.cols, random_partial_matching(adjacency, f.cols, rng))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_warm_starts_on_relabelled_planes(q):
    rng = random.Random(300 + q)
    f = relabelled_plane(q, rng)
    adjacency = adjacency_of(f)
    for _ in range(5):
        assert_same_warm_start(adjacency, f.cols, random_partial_matching(adjacency, f.cols, rng))


def test_partial_matching_is_copied_and_grown():
    adjacency = [[0, 1], [0], [1, 2]]
    partial = [0, -1, -1]
    assert bipartite_matching(adjacency, 3, partial) == [1, 0, 2]
    assert partial == [0, -1, -1]


@pytest.mark.parametrize("seed", range(4))
def test_cover_is_the_same_from_every_maximum_matching(seed):
    # the rows alternating paths reach from the unmatched rows, and the columns
    # they miss, are the same for every maximum matching (Dulmage-Mendelsohn)
    rng = random.Random(seed)
    for k in range(300):
        f = random_matrix(rng, rng.randint(1, 14), rng.randint(1, 14), (k % 9 + 1) / 10)
        adjacency = adjacency_of(f)
        cold = bipartite_matching(adjacency, f.cols)
        size = sum(c >= 0 for c in cold)
        expected = _independent_selection(adjacency, f.cols, cold)
        for _ in range(5):
            partial = random_partial_matching(adjacency, f.cols, rng)
            grown = bipartite_matching(adjacency, f.cols, partial)
            assert sum(c >= 0 for c in grown) == size
            assert all(grown[r] >= 0 for r, c in enumerate(partial) if c >= 0)
            assert all(c < 0 or c in adjacency[r] for r, c in enumerate(grown))
            assert len({c for c in grown if c >= 0}) == size
            assert _independent_selection(adjacency, f.cols, grown) == expected, f.to_grid()

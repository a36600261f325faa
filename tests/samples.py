"""Test inputs shared by several test modules: seeded random matrices and relabellings, and non-projective squares."""

import random

from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2

# three unit-diagonal Latin squares of order 4 that are not mutually
# projective: laid out by canonical._layout they pass verify_block_form, yet
# the 21 x 21 matrix is not a plane
NON_PLANE_SQUARES = (
    ((1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 1, 2), (3, 4, 2, 1)),
    ((1, 3, 4, 2), (3, 1, 2, 4), (2, 4, 1, 3), (4, 2, 3, 1)),
    ((1, 4, 2, 3), (4, 1, 3, 2), (3, 2, 1, 4), (2, 3, 4, 1)),
)


def random_matrix(rng: random.Random, rows: int, cols: int, density: float) -> BinaryMatrix:
    return BinaryMatrix(rows, cols, tuple(int(rng.random() < density) for _ in range(rows * cols)))


def relabelled(m: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    """m with its rows and columns shuffled by rng."""
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return permute(m, Permutation(tuple(rows)), Permutation(tuple(cols)))


def relabelled_plane(q: int, rng: random.Random) -> BinaryMatrix:
    """The incidence matrix of PG(2, q) with its rows and columns shuffled by rng."""
    return relabelled(build_pg2(q).incidence, rng)


"""Test inputs shared by several test modules: seeded random matrices and relabellings, and block layouts."""

import random

from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2

# three unit-diagonal Latin squares of order 4 that are not mutually
# projective: laid out as in reconstruct they pass verify_block_form, yet
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


def block_layout(squares) -> BinaryMatrix:
    """The canonical block layout of reconstruct, filled from any unit-diagonal Latin squares of one order k.

    Fixed borders, an identity first inner band, then one band per square
    (given as rows of symbols 1..k); the squares need not be mutually
    projective, so the matrix need not be a plane.
    """
    k = len(squares[0])

    def start(j: int) -> int:
        return k + 1 + (j - 1) * k

    masks = [(1 << k + 1) - 1] + [1 | ((1 << k) - 1) << start(r) for r in range(1, k + 1)]
    masks += [1 << 1 | sum(1 << start(j) + r for j in range(1, k + 1)) for r in range(k)]
    for i, rows in enumerate(squares, start=2):
        masks += [1 << i | sum(1 << start(j) + c for c, j in enumerate(row)) for row in rows]
    return BinaryMatrix.from_masks(k * k + k + 1, masks)

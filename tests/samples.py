"""Seeded test inputs shared by the differential test modules."""

import random

from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2


def random_matrix(rng: random.Random, rows: int, cols: int, density: float) -> BinaryMatrix:
    return BinaryMatrix(rows, cols, tuple(int(rng.random() < density) for _ in range(rows * cols)))


def relabelled_plane(q: int, rng: random.Random) -> BinaryMatrix:
    """The incidence matrix of PG(2, q) with its rows and columns shuffled by rng."""
    incidence = build_pg2(q).incidence
    rows, cols = list(range(incidence.rows)), list(range(incidence.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return permute(incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))

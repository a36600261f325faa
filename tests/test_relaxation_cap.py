"""The relaxation cap's one-step augmentations against the weights they bound.

A relaxation with no heavy column caps each zero cell (i, j) of its row by
min(alpha, 1 + alpha - k - t), t counting one-edge augmenting paths from
free rows into the columns that dropping the rows with a one at j frees.
The cap must never fall below the cell's weight, on every cell of every
such relaxation of seeded matrices; the augmentations must prune cells the
cap without them lets through; and on larger matrices, where most of the
gain lies, the search must stay within a pinned matching budget.
"""

import random

from pglatin import matching
from pglatin.binmat import BinaryMatrix, ones
from pglatin.matching import max_zero_submatrix
from samples import random_matrix
from test_zero_block_forced_side import INPUTS

# bipartite_matching calls that max_zero_submatrix makes over LARGER;
# lower it when the search gets cheaper, never raise it to let a change pass
LARGER_MATCHING_BUDGET = 577


def larger_inputs() -> list[BinaryMatrix]:
    rng = random.Random(20261019)
    return [
        random_matrix(rng, rng.randint(16, 30), rng.randint(16, 30), (0.1, 0.3, 0.5, 0.7)[k % 4]) for k in range(40)
    ]


LARGER = larger_inputs()


def empty_relaxations(f: BinaryMatrix):
    """Each row's relaxation without a heavy column, in f and in f transposed."""
    for g in (f, f.transpose()):
        adjacency = list(map(ones, g.masks))
        match_left = matching.bipartite_matching(adjacency, g.cols)
        col_masks = g.transpose().masks
        for i, mask in enumerate(g.masks):
            if mask != (1 << g.cols) - 1:
                relaxed = matching._Relaxation(adjacency, match_left, col_masks, i, mask)
                if not relaxed.heavy:
                    yield relaxed


def test_cap_never_falls_below_a_cell_weight():
    cells = 0
    for f in INPUTS + LARGER:
        for relaxed in empty_relaxations(f):
            for j in relaxed.right:
                col_mask = relaxed.col_masks[j]
                cap = relaxed.augmented_cap(col_mask)
                assert relaxed.forced_weight(col_mask) <= cap <= relaxed.cap(col_mask), f.to_grid()
                cells += 1
    assert cells >= 1000, cells


def test_augmentations_prune_cells_the_plain_cap_lets_through(monkeypatch):
    capped, solved = set(), set()

    class Recorded(matching._Relaxation):
        def augmented_cap(self, col_mask):
            capped.add((self, col_mask))
            return super().augmented_cap(col_mask)

        def forced_weight(self, col_mask):
            solved.add((self, col_mask))
            return super().forced_weight(col_mask)

    monkeypatch.setattr(matching, "_Relaxation", Recorded)
    for f in INPUTS + LARGER:
        max_zero_submatrix(f)
    # the plain cap let every capped cell through, so one left unsolved was pruned by t > 0
    assert solved <= capped and len(capped - solved) >= 50, (len(capped), len(solved))


def test_larger_matchings_stay_within_budget(monkeypatch):
    calls = []
    solve = matching.bipartite_matching
    monkeypatch.setattr(matching, "bipartite_matching", lambda *args: calls.append(1) or solve(*args))
    for f in LARGER:
        max_zero_submatrix(f)
    assert len(calls) <= LARGER_MATCHING_BUDGET, len(calls)

"""The relaxation cap's one-step augmentations against the weights they bound.

A relaxation with no heavy column caps each zero cell (i, j) of its row by
min(alpha, 1 + alpha - k - t), t counting one-edge augmenting paths from
free rows into the columns that dropping the rows with a one at j frees.
The cap must never fall below the cell's weight, taken from the per-cell
oracle, on every cell of every such relaxation of seeded matrices; the
augmentations must spare matchings the cap without them solves; and on
larger matrices, where most of the gain lies, the search must stay within
a pinned matching budget and give the reports a digest pins.
"""

import hashlib
import random

from pglatin import matching
from pglatin.binmat import BinaryMatrix, ones
from pglatin.matching import duality_report, max_zero_submatrix
from samples import random_matrix
from test_zero_block_forced_side import INPUTS, cell_weights

# bipartite_matching calls that max_zero_submatrix makes over LARGER;
# lower it when the search gets cheaper, never raise it to let a change pass
LARGER_MATCHING_BUDGET = 562
# sha256 of repr() of the list of duality_report(f) over LARGER, recorded before
# each matrix kept its rows' bit lists
LARGER_REPORTS_DIGEST = "f9549113ed4b42275eab32b4ef6ba4ce10df35952206cfb4677a015aff5de2ba"


def larger_inputs() -> list[BinaryMatrix]:
    rng = random.Random(20261019)
    return [
        random_matrix(rng, rng.randint(16, 30), rng.randint(16, 30), (0.1, 0.3, 0.5, 0.7)[k % 4]) for k in range(40)
    ]


LARGER = larger_inputs()


def empty_relaxations(g: BinaryMatrix):
    """Each row of g whose relaxation has no heavy column: the row, its mask and the relaxation."""
    adjacency = list(map(ones, g.masks))
    match_left = matching.bipartite_matching(adjacency, g.cols)
    col_masks = g.transpose().masks
    for i, mask in enumerate(g.masks):
        if mask != (1 << g.cols) - 1:
            relaxed = matching._Relaxation(adjacency, match_left, col_masks, i, mask)
            if not relaxed.heavy:
                yield i, mask, relaxed


def matchings_solved(monkeypatch, inputs: list[BinaryMatrix]) -> int:
    """The bipartite_matching calls max_zero_submatrix makes over inputs."""
    calls = []
    solve = matching.bipartite_matching
    monkeypatch.setattr(matching, "bipartite_matching", lambda *args: calls.append(1) or solve(*args))
    for f in inputs:
        max_zero_submatrix(f)
    return len(calls)


def test_cap_never_falls_below_a_cell_weight():
    cells = 0
    for f in INPUTS + LARGER:
        for g in (f, f.transpose()):
            relaxations = list(empty_relaxations(g))
            weights = cell_weights(g) if relaxations else {}
            for i, mask, relaxed in relaxations:
                for j in ones((1 << g.cols) - 1 ^ mask):
                    col_mask = relaxed.col_masks[j]
                    cap = relaxed.augmented_cap(col_mask)
                    assert weights[i, j] <= cap <= relaxed.cap(col_mask), g.to_grid()
                    cells += 1
    assert cells >= 1000, cells


def test_augmentations_prune_cells_the_plain_cap_lets_through(monkeypatch):
    augmented = matchings_solved(monkeypatch, INPUTS + LARGER)
    monkeypatch.setattr(matching._Relaxation, "augmented_cap", matching._Relaxation.cap)
    # a cell the plain cap lets through and the augmented cap prunes costs a matching
    assert matchings_solved(monkeypatch, INPUTS + LARGER) >= augmented + 50, augmented


def test_larger_matchings_stay_within_budget(monkeypatch):
    calls = matchings_solved(monkeypatch, LARGER)
    assert calls <= LARGER_MATCHING_BUDGET, calls


def test_larger_reports_are_pinned():
    reports = repr([duality_report(f) for f in LARGER])
    assert hashlib.sha256(reports.encode()).hexdigest() == LARGER_REPORTS_DIGEST

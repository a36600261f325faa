"""The zero-block search's forced-side relaxation against the per-cell scan.

When the global selection is one-sided, max_zero_submatrix groups the zero
cells by a forced column (rows-only selection) or a forced row
(columns-only selection) and relaxes a group by one matching. The witness
must stay tests/oracles.per_cell_zero_block's, tuple for tuple, on seeded
random matrices of every shape, on their transposes, and wherever the
groups tie for the maximum weight. Each branch of the search is reached by
enough inputs to matter, on the default path too, where only the inputs
with a short side past matching._SHORT_SIDE lines are searched; and the
matchings spent stay within a pinned budget on each path, so a weaker
bound shows up as a cost even when the answer holds.
"""

import random
from collections import Counter

import pytest

from oracles import _alternating_cover, augmenting_path_matching, per_cell_zero_block
from pglatin import matching
from pglatin.binmat import BinaryMatrix
from pglatin.matching import duality_report, max_zero_submatrix
from samples import random_matrix

# bipartite_matching calls that max_zero_submatrix makes over all INPUTS, on the search alone (the search_only
# fixture) and on the default path, which enumerates every input with a short side of at most
# matching._SHORT_SIDE lines; lower them when the search gets cheaper, never raise them to let a change pass
MATCHING_BUDGET = 4034
DEFAULT_PATH_MATCHING_BUDGET = 1265


def random_inputs() -> list[BinaryMatrix]:
    rng = random.Random(20261018)
    found = []
    for k in range(600):
        rows, cols = rng.randint(3, 11), rng.randint(3, 11)
        density = (0.25, 0.35, 0.45, 0.55)[k % 4]
        f = BinaryMatrix(rows, cols, tuple(int(rng.random() < density) for _ in range(rows * cols)))
        found += [f, f.transpose()]
    return found


INPUTS = random_inputs()


def wider_inputs() -> list[BinaryMatrix]:
    """Seeded matrices with 11 to 13 rows and columns, and their transposes: short sides past matching._SHORT_SIDE,
    so the search and its relaxations see them on the default path too."""
    rng = random.Random(20261021)
    found = []
    for k in range(150):
        f = random_matrix(rng, rng.randint(11, 13), rng.randint(11, 13), (0.25, 0.35, 0.45, 0.55)[k % 4])
        found += [f, f.transpose()]
    return found


WIDER = wider_inputs()


def cell_weights(f: BinaryMatrix) -> dict[tuple[int, int], int]:
    """Every zero cell's heaviest block weight, one plain matching per cell."""
    weights = {}
    for i in range(f.rows):
        for j in range(f.cols):
            if f[i, j]:
                continue
            rows = [r for r in range(f.rows) if r != i and not f[r, j]]
            cols = [c for c in range(f.cols) if c != j and not f[i, c]]
            adjacency = [[k for k, c in enumerate(cols) if f[r, c]] for r in rows]
            nu = sum(c >= 0 for c in augmenting_path_matching(adjacency, len(cols)))
            weights[i, j] = 2 + len(rows) + len(cols) - nu
    return weights


def global_side(f: BinaryMatrix) -> str:
    adjacency = [[c for c in range(f.cols) if f[r, c]] for r in range(f.rows)]
    rows, cols = _alternating_cover(adjacency, f.cols, augmenting_path_matching(adjacency, f.cols))
    return "both" if rows and cols else "rows" if rows else "cols"


@pytest.fixture
def relaxations(monkeypatch):
    """Record "keeps a vertex" or "keeps none" per relaxation, and "alpha cap" per capped cell."""
    seen = []

    class Recorded(matching._Relaxation):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append("keeps a vertex" if self.heavy else "keeps none")

        def cap(self, col_mask):
            seen.append("alpha cap")
            return super().cap(col_mask)

    monkeypatch.setattr(matching, "_Relaxation", Recorded)
    return seen


def test_witnesses_match_the_per_cell_scan(relaxations):
    reached = Counter()
    for f in INPUTS + WIDER:
        del relaxations[:]
        expected = per_cell_zero_block(f.rows, f.cols, f.data)
        found = max_zero_submatrix(f)
        assert (None if found is None else (found.rows, found.cols)) == expected, f.to_grid()
        assert duality_report(f).w_witness == found
        side = global_side(f)
        reached.update({side, *relaxations})
        if side != "both":
            weights = cell_weights(f)
            top = max(weights.values())
            group = 0 if side == "cols" else 1
            reached["groups tie"] += len({cell[group] for cell, w in weights.items() if w == top}) > 1
    floors = ("rows", "cols", "keeps a vertex", "keeps none", "alpha cap", "groups tie")
    assert min(reached[key] for key in floors) >= 50, reached


def test_matchings_stay_within_budget(monkeypatch):
    calls = []
    solve = matching.bipartite_matching
    monkeypatch.setattr(matching, "bipartite_matching", lambda *args: calls.append(1) or solve(*args))
    for f in INPUTS:
        max_zero_submatrix(f)
    assert len(calls) <= (MATCHING_BUDGET if matching._SHORT_SIDE == 0 else DEFAULT_PATH_MATCHING_BUDGET), len(calls)


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 9), (9, 2), (12, 5), (5, 12)])
def test_thin_and_wide_shapes(shape):
    rng = random.Random(shape[0] * 100 + shape[1])
    rows, cols = shape
    for k in range(60):
        density = (k % 9 + 1) / 10
        f = BinaryMatrix(rows, cols, tuple(int(rng.random() < density) for _ in range(rows * cols)))
        expected = per_cell_zero_block(rows, cols, f.data)
        found = max_zero_submatrix(f)
        assert (None if found is None else (found.rows, found.cols)) == expected, f.to_grid()

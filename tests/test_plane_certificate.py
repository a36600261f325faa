"""The plane certificate that ends the zero-block search on a projective plane.

On a plane of order q every zero cell weighs at most q^2 + 1, so the
row-major-first zero cell's block is the answer, and _zero_block returns
it before it bounds any other cell. The certificate is
n = k^2 - k + 1 rows and columns with k >= 3, k ones in every row and no
two rows sharing two columns. Non-planes that pass the size test, and
every row count but one, must still get the full search and the oracle's
witness, unless they have at most matching._SHORT_SIDE rows: those are
enumerated before the certificate is tried.
"""

import random

import pytest

from oracles import per_cell_zero_block
from pglatin import matching
from pglatin.binmat import BinaryMatrix, ones
from pglatin.matching import duality_report, max_zero_submatrix
from samples import relabelled_plane


def witness(f: BinaryMatrix):
    found = max_zero_submatrix(f)
    return None if found is None else (found.rows, found.cols)


def searched(f: BinaryMatrix, monkeypatch) -> bool:
    """Whether max_zero_submatrix(f) went on to bound the other zero cells: it lists each row's zeros to do so,
    while the first cell's block alone, like an enumerated block, lists two masks."""
    calls = []
    # a context of its own, so that leaving it keeps the caller's patches, such as search_only's _SHORT_SIDE
    with monkeypatch.context() as patch:
        patch.setattr(matching, "ones", lambda mask: calls.append(1) or ones(mask))
        max_zero_submatrix(f)
    return len(calls) > 2


def moved_one(f: BinaryMatrix, r: int) -> BinaryMatrix:
    """f with row r's lowest one moved to the row's lowest zero: row sums stay, two rows now share two columns."""
    masks = list(f.masks)
    low, free = masks[r] & -masks[r], ~masks[r] & masks[r] + 1
    masks[r] ^= low | free
    return BinaryMatrix.from_masks(f.cols, masks)


def dropped_one(f: BinaryMatrix, r: int) -> BinaryMatrix:
    """f with row r's lowest one cleared: the rows still share at most one column, but row r is short."""
    masks = list(f.masks)
    masks[r] &= masks[r] - 1
    return BinaryMatrix.from_masks(f.cols, masks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_planes_end_the_search_with_the_oracles_witness(q, monkeypatch):
    f = relabelled_plane(q, random.Random(q))
    assert witness(f) == per_cell_zero_block(f.rows, f.cols, f.data)
    assert duality_report(f).w == q * q + 1
    assert not searched(f, monkeypatch)


@pytest.mark.parametrize("q", [7, 9, 16, 25])
def test_larger_planes_end_the_search_on_the_first_zero_cell(q, monkeypatch):
    f = relabelled_plane(q, random.Random(q))
    i = next(i for i, mask in enumerate(f.masks) if mask != (1 << f.cols) - 1)
    (row,) = max_zero_submatrix(f).rows
    assert row == i and not searched(f, monkeypatch)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("edit", [moved_one, dropped_one])
def test_near_planes_get_the_full_search(q, edit, monkeypatch):
    f = relabelled_plane(q, random.Random(q))
    for r in (1, f.rows // 2, f.rows - 1):
        g = edit(f, r)
        assert g.rows == g.cols == f.rows and g.masks[0].bit_count() == q + 1
        expected = per_cell_zero_block(g.rows, g.cols, g.data)
        assert witness(g) == expected
        # heavier than any zero cell of a plane: the certificate must not answer here
        assert len(expected[0]) + len(expected[1]) > q * q + 1
        assert searched(g, monkeypatch) == (g.rows > matching._SHORT_SIDE)

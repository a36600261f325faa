import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unit_diagonal_squares
from samples import NON_PLANE_SQUARES, relabelled
from pglatin import canonical as canonical_module
from pglatin.binmat import BinaryMatrix, Permutation, permute, to_inc_text
from pglatin.canonical import (
    BlockForm,
    _layout,
    canonicalize,
    extract_mpls,
    reconstruct,
    verify_block_form,
)
from pglatin.geometry import GeometryError, geometry_from_incidence, incidence_from_geometry
from pglatin.latin import LatinSquare, MplsSet, projective_pair, verify_mpls


class TestCanonicalizeGate:
    def test_rejects_non_planes(self, near_pencil):
        with pytest.raises(ValueError):
            canonicalize(incidence_from_geometry(near_pencil))

    def test_rejects_invalid_incidence(self):
        with pytest.raises(ValueError):
            canonicalize(BinaryMatrix.ones(3, 3))
        with pytest.raises(ValueError):
            canonicalize(BinaryMatrix.identity(4))


class TestCanonicalizeFano:
    def test_fixture_is_already_canonical(self, fano_incidence):
        form = canonicalize(fano_incidence)
        assert form.matrix == fano_incidence
        assert form.row_perm.is_identity()
        assert form.col_perm.is_identity()
        assert form.order == 2

    def test_forced_inner_block(self, fano_incidence):
        form = canonicalize(fano_incidence)
        # inner block (2, 2) of the (3, 2, 2) layout: rows and columns 5..6
        assert [form.matrix.row(r)[5:7] for r in (5, 6)] == [(0, 1), (1, 0)]

    def test_partition_layout(self, fano_incidence):
        form = canonicalize(fano_incidence)
        assert form.matrix.row(0) == (1, 1, 1, 0, 0, 0, 0)
        assert form.side == 7


@pytest.mark.parametrize("q", [2, 3, 4, 5])
class TestCanonicalizePlanes:
    def test_verifies_and_permutes(self, q, plane_cache, canonical_cache):
        bundle = plane_cache(q)
        form = canonical_cache(q)
        assert verify_block_form(form).ok
        assert permute(bundle.incidence, form.row_perm, form.col_perm) == form.matrix

    def test_idempotent(self, q, canonical_cache):
        form = canonical_cache(q)
        again = canonicalize(form.matrix)
        assert again.matrix == form.matrix
        assert again.row_perm.is_identity() and again.col_perm.is_identity()

    def test_round_trip_through_squares(self, q, canonical_cache):
        form = canonical_cache(q)
        assert reconstruct(extract_mpls(form)) == form.matrix


# sha256 over three seeded relabellings of PG(2, q) of each canonical form's
# .inc text and the JSON of its row and column permutation images, recorded
# before canonicalize read the inner blocks from line meets; the form must
# not depend on how the orders are found
CANON_DIGESTS = {
    2: "75495b321659af6f93f9a00527c5812345bfd0c759e12991ebca55b87662f598",
    3: "8e6b2818988b76ec762e1170ed878e986ad53b9bec072058748f116ce7314947",
    4: "a3dc8b9170c69619a83660772c39f125174ed0d4d70fadc510bdab21d58a66ea",
    5: "08af25d948529babe307a4ab286dd2e9042c344431ac60bf314eba4b1dcc84be",
    7: "25f920a7a3652fd692a7565348ed4b6463cbbffdbdd5f1fca4584a60afe76212",
    8: "c17ed62f6694e1a30bb73b848c186277269f83a987de8cb6dc41f62d0ff3b343",
    9: "c3ca59ef4b0fe6bb37d31ffc2db036da77d275e41c625df3739419afca596610",
    16: "4d99769afac081989c2d3eac37750f33247d21e0927dbbf686bf75bf54dc053d",
}


@pytest.mark.parametrize("q", sorted(CANON_DIGESTS))
def test_canonical_form_of_relabelled_planes_is_pinned(q, plane_cache):
    digest = hashlib.sha256()
    for seed in range(3):
        form = canonicalize(relabelled(plane_cache(q).incidence, random.Random(seed)))
        digest.update(to_inc_text(form.matrix).encode())
        digest.update(json.dumps([form.row_perm.images, form.col_perm.images]).encode())
    assert digest.hexdigest() == CANON_DIGESTS[q]


class TestVerifyBlockForm:
    def _canonical_form(self, canonical_cache, q=3):
        return canonical_cache(q)

    def test_wrong_size(self):
        form = BlockForm(
            BinaryMatrix.ones(4, 4),
            2,
            Permutation.identity(4),
            Permutation.identity(4),
        )
        report = verify_block_form(form)
        assert not report.ok and "expected 7x7" in report.first

    def test_flipped_bit_breaks_borders(self, canonical_cache):
        good = canonical_cache(2)
        data = list(good.matrix.data)
        data[1] = 0  # corner block loses a one in its first row
        form = BlockForm(
            BinaryMatrix(7, 7, tuple(data)),
            2,
            good.row_perm,
            good.col_perm,
        )
        report = verify_block_form(form)
        assert not report.ok
        assert any("corner" in v for v in report.violations)

    def test_shuffled_inner_rows_break_identities(self, canonical_cache):
        good = canonical_cache(2)
        # swap the two rows of the first inner band: inner (1, j) blocks stop
        # being identities
        images = [0, 1, 2, 4, 3, 5, 6]
        form_matrix = permute(
            good.matrix, Permutation(tuple(images)), Permutation.identity(7)
        )
        form = BlockForm(form_matrix, 2, good.row_perm, good.col_perm)
        report = verify_block_form(form)
        assert not report.ok
        assert any("identity" in v for v in report.violations)

    def test_reports_accumulate(self):
        form = BlockForm(
            BinaryMatrix.zeros(7, 7),
            2,
            Permutation.identity(7),
            Permutation.identity(7),
        )
        report = verify_block_form(form)
        assert len(report.violations) > 3


# sha256 of the JSON list of violation lists, one list per perturbed matrix,
# recorded from the earlier implementation that cut every block out as its
# own matrix; the report must not depend on how the layout is read
FLIP_DIGESTS = {
    2: "a1cea0296c45e4c6e17b198806428a45c9be8de82f6e049577a7e8176893d96c",
    3: "fe32e242558ff348bf1f7df8e75c73726450010d834e9907758d3d2ae55a7ea6",
    4: "be49a1c8cebddecc6ae80bbf04746165c21a3737d9899851ebc326f00e336696",
}
SWAP_DIGESTS = {
    2: "15a3676d3d2bb5cf86e3a3920cab046581267caec4f66cfbb353859c98a08618",
    3: "36c85f3e4861b9db76d79e7d26af3d166deed375f2b50581d962cdc0ef1b4313",
    4: "da51c13b97b3561cf5a3742b3fffc73963aaff5816d3d348084356c04c2c5369",
}

# single-cell flips of the order-3 canonical matrix, one per message kind
ORDER3_FLIPS = {
    (0, 0): ("corner block must have ones exactly in its first row and first column",),
    (0, 4): ("top block 1 must have ones exactly in row 1",),
    (4, 0): ("left block 1 must have ones exactly in column 1",),
    (4, 4): (
        "inner block (1, 1) is not a permutation matrix",
        "inner block (1, 1) must be the identity",
    ),
    (4, 7): (
        "inner block (1, 2) is not a permutation matrix",
        "inner block (1, 2) must be the identity",
        "inner block column 2 covers cell (0, 0) 0 times, expected once",
    ),
    (7, 4): (
        "inner block (2, 1) is not a permutation matrix",
        "inner block (2, 1) must be the identity",
        "inner block row 2 covers cell (0, 0) 0 times, expected once",
    ),
    (7, 7): (
        "inner block (2, 2) is not a permutation matrix",
        "inner block row 2 covers cell (0, 0) 2 times, expected once",
        "inner block column 2 covers cell (0, 0) 2 times, expected once",
    ),
}


def _violations(good, matrix):
    return verify_block_form(BlockForm(matrix, good.order, good.row_perm, good.col_perm)).violations


def _flipped(m, cell):
    data = list(m.data)
    data[cell] ^= 1
    return BinaryMatrix(m.rows, m.cols, tuple(data))


def _digest(reports):
    return hashlib.sha256(json.dumps([list(v) for v in reports]).encode()).hexdigest()


class TestVerifyBlockFormPinned:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_every_single_cell_flip(self, q, canonical_cache):
        good = canonical_cache(q)
        n = good.matrix.rows
        reports = [_violations(good, _flipped(good.matrix, cell)) for cell in range(n * n)]
        assert all(reports)
        assert _digest(reports) == FLIP_DIGESTS[q]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_every_row_and_column_swap(self, q, canonical_cache):
        good = canonical_cache(q)
        n = good.matrix.rows
        identity = Permutation.identity(n)
        reports = []
        for a, b in combinations(range(n), 2):
            images = list(range(n))
            images[a], images[b] = b, a
            swap = Permutation(tuple(images))
            reports.append(_violations(good, permute(good.matrix, swap, identity)))
            reports.append(_violations(good, permute(good.matrix, identity, swap)))
        assert _digest(reports) == SWAP_DIGESTS[q]

    @pytest.mark.parametrize("cell", sorted(ORDER3_FLIPS))
    def test_message_kinds(self, cell, canonical_cache):
        good = canonical_cache(3)
        r, c = cell
        assert _violations(good, _flipped(good.matrix, r * 13 + c)) == ORDER3_FLIPS[cell]


class TestExtract:
    def test_order_two(self, canonical_cache):
        squares = extract_mpls(canonical_cache(2))
        assert squares.order == 2
        assert [sq.entries for sq in squares.squares] == [((1, 2), (2, 1))]

    def test_order_three_is_the_unique_pair(self, canonical_cache):
        squares = extract_mpls(canonical_cache(3))
        expected = [LatinSquare(rows) for rows in unit_diagonal_squares(3)]
        assert sorted(sq.entries for sq in squares.squares) == sorted(
            sq.entries for sq in expected
        )

    def test_extraction_is_projective(self, canonical_cache):
        squares = extract_mpls(canonical_cache(5))
        assert len(squares.squares) == 4
        report = verify_mpls(squares)
        assert report.is_mpls and report.is_complete

    def test_rejects_broken_forms(self, canonical_cache):
        good = canonical_cache(2)
        form = BlockForm(
            BinaryMatrix.zeros(7, 7),
            2,
            good.row_perm,
            good.col_perm,
        )
        with pytest.raises(ValueError):
            extract_mpls(form)

    def test_canonicalize_then_extract_checks_the_form_once(self, plane_cache, monkeypatch):
        calls = []

        def counting(bf):
            calls.append(bf)
            return verify_block_form(bf)

        monkeypatch.setattr(canonical_module, "verify_block_form", counting)
        form = canonicalize(plane_cache(3).incidence)
        extract_mpls(form)
        extract_mpls(form)
        assert calls == [form]
        # a direct call still checks from scratch, and an edited copy is checked again
        assert canonical_module.verify_block_form(form).ok and len(calls) == 2
        broken = BlockForm(_flipped(form.matrix, 0), form.order, form.row_perm, form.col_perm)
        with pytest.raises(ValueError, match="corner block"):
            extract_mpls(broken)
        assert calls[-1] is broken


class TestLayoutIsNoPlaneCertificate:
    """A matrix in the canonical layout whose squares are not mutually projective."""

    def test_layout_passes_but_squares_are_not_mpls(self):
        m = _layout(4, NON_PLANE_SQUARES)
        assert m.rows == m.cols == 21
        form = BlockForm(m, 4, Permutation.identity(21), Permutation.identity(21))
        assert verify_block_form(form).ok
        squares = extract_mpls(form)
        assert [sq.entries for sq in squares.squares] == list(NON_PLANE_SQUARES)
        report = verify_mpls(squares)
        assert not report.is_mpls
        assert len(report.violations) == 24
        assert report.violations[0] == "squares 0 and 1: rows 0 and 2 agree in 0 columns, expected 1"

    def test_canonicalize_rejects_it(self):
        m = _layout(4, NON_PLANE_SQUARES)
        with pytest.raises(GeometryError, match=r"^points \(12, 14\) lie on lines 11 and 13$"):
            canonicalize(m)
        for seed in (0, 1):
            with pytest.raises(GeometryError):
                canonicalize(relabelled(m, random.Random(seed)))


class TestReconstruct:
    def test_order_two_hand_checked(self, fano_incidence):
        s = MplsSet(2, (LatinSquare.from_rows([[1, 2], [2, 1]]),))
        assert reconstruct(s) == fano_incidence

    def test_rejects_incomplete(self, order5_squares):
        with pytest.raises(ValueError):
            reconstruct(MplsSet(5, order5_squares[:2]))
        with pytest.raises(ValueError):
            reconstruct(MplsSet(3, ()))

    def test_rejects_non_projective_members(self):
        from test_latin import NON_PROJECTIVE_A, NON_PROJECTIVE_B

        s = MplsSet(
            4,
            (
                LatinSquare(NON_PROJECTIVE_A),
                LatinSquare(NON_PROJECTIVE_B),
                LatinSquare(NON_PROJECTIVE_A),
            ),
        )
        with pytest.raises(ValueError):
            reconstruct(s)

    def test_known_set_builds_a_plane(self, order5_set):
        m = reconstruct(order5_set)
        assert m.rows == 31 and m.cols == 31
        g = geometry_from_incidence(m)
        from pglatin.geometry import plane_check

        verdict = plane_check(g)
        assert verdict.first_def and verdict.second_def and verdict.order == 5

    def test_round_trip_from_squares(self, order5_set):
        rebuilt = reconstruct(order5_set)
        form = canonicalize(rebuilt)
        extracted = extract_mpls(form)
        assert reconstruct(extracted) == form.matrix


class TestNoAugmentation:
    def test_order_five_extraction_admits_no_fifth_square(self, canonical_cache):
        complete = extract_mpls(canonical_cache(5))
        members = complete.squares
        assert len(members) == 4
        all_squares = unit_diagonal_squares(5)
        assert len(all_squares) == 1344
        for rows in all_squares:
            candidate = LatinSquare(rows)
            assert not all(projective_pair(candidate, member) for member in members)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(0, 10_000))
def test_relabelled_planes_canonicalize(q, seed):
    from pglatin.planes import build_pg2

    bundle = build_pg2(q)
    n = bundle.incidence.rows
    rng = random.Random(seed)
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    shuffled = permute(bundle.incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))
    form = canonicalize(shuffled)
    assert verify_block_form(form).ok
    assert permute(shuffled, form.row_perm, form.col_perm) == form.matrix
    assert reconstruct(extract_mpls(form)) == form.matrix

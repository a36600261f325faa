import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import row_agreements, unit_diagonal_squares
from pglatin.binmat import FormatError
from pglatin.latin import (
    LatinSquare,
    MplsSet,
    Transversal,
    cyclic_square,
    from_ls_text,
    group_product_cover,
    pair_coverage,
    projective_pair,
    random_latin_square,
    resolvability_report,
    submatrix_symbol_count,
    to_ls_text,
    transversals_from_companion,
    verify_mpls,
)

# a unit-diagonal pair of order 4 that is NOT projective: the first rows agree
# in all four columns
NON_PROJECTIVE_A = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))
NON_PROJECTIVE_B = ((1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 1, 2), (3, 4, 2, 1))

# a quasigroup with two-sided identity 1 that is not associative
NON_ASSOCIATIVE_LOOP = (
    (1, 2, 3, 4, 5),
    (2, 1, 4, 5, 3),
    (3, 4, 5, 1, 2),
    (4, 5, 2, 3, 1),
    (5, 3, 1, 2, 4),
)

S3_TABLE = (
    (1, 2, 3, 4, 5, 6),
    (2, 1, 5, 6, 3, 4),
    (3, 6, 1, 5, 4, 2),
    (4, 5, 6, 1, 2, 3),
    (5, 4, 2, 3, 6, 1),
    (6, 3, 4, 2, 1, 5),
)


class TestLatinSquare:
    def test_row_not_permutation(self):
        with pytest.raises(ValueError):
            LatinSquare(((1, 1), (2, 2)))

    def test_column_not_permutation(self):
        with pytest.raises(ValueError, match=r"^column 0 is not a permutation of 1\.\.2$"):
            LatinSquare(((1, 2), (1, 2)))
        with pytest.raises(ValueError, match=r"^column 1 is not a permutation of 1\.\.3$"):
            LatinSquare(((1, 2, 3), (2, 3, 1), (3, 2, 1)))
        # seeded squares whose rows stay permutations after swaps inside rows;
        # the message names the lowest column that lost a symbol
        rng = random.Random(5)
        lowest_seen, last_bad, raised = set(), 0, 0
        for n in range(2, 10):
            for _ in range(40):
                rows = [list(row) for row in random_latin_square(n, rng).entries]
                for r in rng.sample(range(n), rng.randint(1, 2)):
                    i = rng.randrange(n - 1)
                    j = rng.randrange(i + 1, n)
                    rows[r][i], rows[r][j] = rows[r][j], rows[r][i]
                bad = [j for j in range(n) if {row[j] for row in rows} != set(range(1, n + 1))]
                if not bad:
                    continue
                with pytest.raises(ValueError) as err:
                    LatinSquare.from_rows(rows)
                assert str(err.value) == f"column {bad[0]} is not a permutation of 1..{n}"
                lowest_seen.add((n, bad[0]))
                last_bad += bad[-1] == n - 1
                raised += 1
        assert raised >= 200 and last_bad >= 100
        # every column but the last is the lowest bad one somewhere; the last
        # never is, since n - 1 good columns leave it a permutation too
        assert lowest_seen == {(n, j) for n in range(2, 10) for j in range(n - 1)}

    def test_ragged(self):
        with pytest.raises(ValueError):
            LatinSquare(((1, 2), (2,)))
        with pytest.raises(ValueError):
            LatinSquare(())

    def test_accessors(self):
        sq = LatinSquare.from_rows([[1, 2], [2, 1]])
        assert sq.order == 2
        assert sq[(0, 1)] == 2
        assert sq.has_unit_diagonal

    def test_transpose(self):
        sq = LatinSquare.from_rows([[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        assert sq.transpose().entries == ((1, 3, 2), (2, 1, 3), (3, 2, 1))

    def test_cyclic(self):
        assert cyclic_square(3).entries == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        assert not cyclic_square(3).has_unit_diagonal
        assert cyclic_square(1).entries == ((1,),)


class TestRandomSquares:
    def test_seeded_determinism(self):
        a = random_latin_square(6, random.Random(42))
        b = random_latin_square(6, random.Random(42))
        assert a == b

    def test_seeded_determinism_large(self):
        assert random_latin_square(64, random.Random(3)) == random_latin_square(64, random.Random(3))

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 7, 8, 40, 64])
    def test_orders(self, order):
        sq = random_latin_square(order, random.Random(order))
        assert sq.order == order  # validity enforced by the constructor

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            random_latin_square(0, random.Random(1))

    def test_seeds_give_different_squares(self):
        squares = {random_latin_square(8, random.Random(seed)).entries for seed in range(5)}
        assert len(squares) == 5

    def test_smallest_orders(self):
        assert random_latin_square(1, random.Random(0)).entries == ((1,),)
        seen = {random_latin_square(2, random.Random(seed)).entries for seed in range(20)}
        assert seen == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


class TestProjectivePair:
    def test_known_pair(self, order5_squares):
        assert projective_pair(order5_squares[0], order5_squares[1])

    def test_self_pair_fails(self, order5_squares):
        assert not projective_pair(order5_squares[0], order5_squares[0])

    def test_non_projective_pair(self):
        a = LatinSquare(NON_PROJECTIVE_A)
        b = LatinSquare(NON_PROJECTIVE_B)
        assert not projective_pair(a, b)
        assert row_agreements(NON_PROJECTIVE_A[0], NON_PROJECTIVE_B[0]) == 4

    def test_requires_unit_diagonals(self):
        shifted = cyclic_square(4)
        assert not projective_pair(shifted, shifted)

    def test_order_mismatch(self, order5_squares):
        with pytest.raises(ValueError):
            projective_pair(order5_squares[0], LatinSquare.from_rows([[1, 2], [2, 1]]))

    def test_symmetric(self, order5_squares):
        for a, b in combinations(order5_squares, 2):
            assert projective_pair(a, b) == projective_pair(b, a)


class TestMplsSet:
    def test_size_cap(self, order5_squares):
        with pytest.raises(ValueError):
            MplsSet(2, (LatinSquare.from_rows([[1, 2], [2, 1]]),) * 2)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            MplsSet(1, ())

    def test_member_order_must_match(self, order5_squares):
        with pytest.raises(ValueError):
            MplsSet(4, (order5_squares[0],))

    def test_members_need_unit_diagonal(self):
        with pytest.raises(ValueError):
            MplsSet(4, (cyclic_square(4),))

    def test_empty_set_is_fine(self):
        assert MplsSet(3, ()).squares == ()


class TestVerifyMpls:
    def test_complete_set(self, order5_set):
        report = verify_mpls(order5_set)
        assert report.is_mpls and report.is_complete and not report.violations

    def test_partial_set(self, order5_squares):
        report = verify_mpls(MplsSet(5, order5_squares[:2]))
        assert report.is_mpls and not report.is_complete

    def test_violations_reported(self):
        s = MplsSet(4, (LatinSquare(NON_PROJECTIVE_A), LatinSquare(NON_PROJECTIVE_B)))
        report = verify_mpls(s)
        assert not report.is_mpls and not report.is_complete
        assert any("rows 0 and 0" in v for v in report.violations)

    def test_first_row_second_entries_distinct(self, order5_set):
        # the (0, 1) cells separate the members of any pairwise projective set
        entries = [sq[(0, 1)] for sq in order5_set.squares]
        assert len(set(entries)) == len(entries)
        assert 1 not in entries

    def test_transposes_stay_projective(self, order5_squares):
        transposed = MplsSet(5, tuple(sq.transpose() for sq in order5_squares))
        report = verify_mpls(transposed)
        assert report.is_mpls and report.is_complete


class TestPairCoverage:
    def test_all_column_pairs(self, order5_set):
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert pair_coverage(order5_set, i, j)

    def test_rejects_equal_columns(self, order5_set):
        with pytest.raises(ValueError):
            pair_coverage(order5_set, 2, 2)

    def test_rejects_out_of_range(self, order5_set):
        with pytest.raises(ValueError):
            pair_coverage(order5_set, 0, 5)

    def test_rejects_incomplete_sets(self, order5_squares):
        with pytest.raises(ValueError):
            pair_coverage(MplsSet(5, order5_squares[:3]), 0, 1)


class TestTransversals:
    def test_worked_example(self, order5_squares):
        ts = transversals_from_companion(order5_squares[0], order5_squares[1])
        assert ts[0].placements == ((0, 0, 1), (1, 4, 2), (2, 1, 3), (3, 2, 4), (4, 3, 5))

    def test_partition_property(self, order5_squares):
        host, companion = order5_squares[0], order5_squares[2]
        ts = transversals_from_companion(host, companion)
        assert len(ts) == 5
        cells = [(r, c) for t in ts for r, c, _ in t.placements]
        assert sorted(cells) == [(r, c) for r in range(5) for c in range(5)]
        assert all(t.matches(host) for t in ts)

    def test_rejects_non_projective(self):
        with pytest.raises(ValueError):
            transversals_from_companion(
                LatinSquare(NON_PROJECTIVE_A), LatinSquare(NON_PROJECTIVE_B)
            )

    def test_rejects_order_mismatch(self, order5_squares):
        with pytest.raises(ValueError):
            transversals_from_companion(order5_squares[0], LatinSquare.from_rows([[1, 2], [2, 1]]))

    def test_transversal_validation(self):
        Transversal(2, ((0, 0, 1), (1, 1, 2)))
        with pytest.raises(ValueError):
            Transversal(2, ((0, 0, 1),))
        with pytest.raises(ValueError):
            Transversal(2, ((0, 0, 1), (0, 1, 2)))
        with pytest.raises(ValueError):
            Transversal(2, ((0, 0, 1), (1, 0, 2)))
        with pytest.raises(ValueError):
            Transversal(2, ((0, 0, 1), (1, 1, 1)))


class TestResolvability:
    def test_every_target(self, order5_set):
        for target in range(4):
            report = resolvability_report(order5_set, target)
            assert report.verified and not report.problems
            assert len(report.resolutions) == 3
            assert all(len(res) == 5 for res in report.resolutions)
            assert report.companion_indices == tuple(
                i for i in range(4) if i != target
            )

    def test_resolutions_differ(self, order5_set):
        report = resolvability_report(order5_set, 0)
        assert len(set(report.resolutions)) == 3

    def test_rejects_incomplete(self, order5_squares):
        with pytest.raises(ValueError):
            resolvability_report(MplsSet(5, order5_squares[:2]), 0)

    def test_rejects_small_orders(self):
        pair = MplsSet(2, (LatinSquare.from_rows([[1, 2], [2, 1]]),))
        with pytest.raises(ValueError):
            resolvability_report(pair, 0)

    def test_rejects_bad_target(self, order5_set):
        with pytest.raises(ValueError):
            resolvability_report(order5_set, 4)
        with pytest.raises(ValueError):
            resolvability_report(order5_set, -1)


class TestSymbolCounts:
    def test_counts_and_verdict(self, order5_squares):
        counts, ok = submatrix_symbol_count(order5_squares[0], (0, 1, 2, 3), (2, 3, 4))
        assert ok
        assert sum(counts.values()) == 12
        assert min(counts.values()) >= 2  # excess is 4 + 3 - 5 = 2

    def test_vacuous_below_threshold(self, order5_squares):
        _, ok = submatrix_symbol_count(order5_squares[0], (0, 1), (2, 3))
        assert ok

    def test_rejects_bad_selections(self, order5_squares):
        with pytest.raises(ValueError):
            submatrix_symbol_count(order5_squares[0], (), (1,))
        with pytest.raises(ValueError):
            submatrix_symbol_count(order5_squares[0], (0,), (5,))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_verdict_always_true(self, seed, order):
        rng = random.Random(seed)
        sq = random_latin_square(order, rng)
        rows = rng.sample(range(order), rng.randint(1, order))
        cols = rng.sample(range(order), rng.randint(1, order))
        counts, ok = submatrix_symbol_count(sq, rows, cols)
        assert ok
        assert sum(counts.values()) == len(set(rows)) * len(set(cols))


class TestGroupCover:
    def test_cyclic_tables_are_groups(self):
        for n in range(1, 9):
            assert group_product_cover(cyclic_square(n), range(n), range(n))

    def test_guaranteed_cover(self):
        z6 = cyclic_square(6)
        for a_size in range(1, 7):
            b_size = 7 - a_size
            for a_rows in combinations(range(6), a_size):
                for b_cols in combinations(range(6), b_size):
                    assert group_product_cover(z6, a_rows, b_cols)

    def test_small_sets_can_miss(self):
        # {0} * {0} = {0} covers only one element of Z_4
        assert not group_product_cover(cyclic_square(4), (0,), (0,))

    def test_symmetric_group_table(self):
        s3 = LatinSquare(S3_TABLE)
        # non-abelian: the table is a genuine group yet not commutative
        assert S3_TABLE[1][2] != S3_TABLE[2][1]
        for a_rows in combinations(range(6), 3):
            for b_cols in combinations(range(6), 4):
                assert group_product_cover(s3, a_rows, b_cols)

    def test_rejects_non_group(self, order5_squares):
        with pytest.raises(ValueError):
            group_product_cover(order5_squares[0], (0,), (0,))

    def test_rejects_non_associative_loop(self):
        with pytest.raises(ValueError):
            group_product_cover(LatinSquare(NON_ASSOCIATIVE_LOOP), (0, 1), (0, 1, 2, 3))

    def test_rejects_bad_selections(self):
        z3 = cyclic_square(3)
        with pytest.raises(ValueError):
            group_product_cover(z3, (), (0,))
        with pytest.raises(ValueError):
            group_product_cover(z3, (0,), (3,))


class TestEnumerationBound:
    def test_unit_diagonal_counts(self):
        assert len(unit_diagonal_squares(2)) == 1
        assert len(unit_diagonal_squares(3)) == 2
        assert len(unit_diagonal_squares(4)) == 24

    def test_no_augmentation_order_four(self, canonical_cache):
        # a complete set admits no further member: checked against every
        # unit-diagonal square of the order
        from pglatin.canonical import extract_mpls

        complete = extract_mpls(canonical_cache(4))
        assert len(complete.squares) == 3
        for rows in unit_diagonal_squares(4):
            candidate = LatinSquare(rows)
            assert not all(
                projective_pair(candidate, member) for member in complete.squares
            )

    def test_order_three_set_is_unique(self):
        both = [LatinSquare(rows) for rows in unit_diagonal_squares(3)]
        assert projective_pair(both[0], both[1])


class TestTextFormats:
    def test_known_rendering(self):
        sq = LatinSquare.from_rows([[1, 2], [2, 1]])
        assert to_ls_text(sq) == "2\n1 2\n2 1\n"

    def test_round_trip(self, order5_squares):
        for sq in order5_squares:
            assert from_ls_text(to_ls_text(sq)) == sq

    def test_rejects_bad_characters(self):
        with pytest.raises(FormatError):
            from_ls_text("2\n1 2\n2 a\n")

    def test_rejects_inline_separator(self):
        with pytest.raises(FormatError, match="^illegal character '#' in square text$"):
            from_ls_text("2\n1 2 #\n2 1\n")

    def test_single_square_rejects_separator(self):
        with pytest.raises(FormatError, match="^illegal character '#' in square text$"):
            from_ls_text("2\n1 2\n2 1\n#\n2\n1 2\n2 1\n")

    def test_rejects_bad_counts(self):
        with pytest.raises(FormatError):
            from_ls_text("2\n1 2\n")
        with pytest.raises(FormatError):
            from_ls_text("2\n1 2 1\n2 1\n")
        with pytest.raises(FormatError):
            from_ls_text("")

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(FormatError):
            from_ls_text("2\n1 3\n3 1\n")

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            from_ls_text("2 2\n1 2\n2 1\n")
        with pytest.raises(FormatError):
            from_ls_text("0\n")

    def test_non_latin_content_fails_validation(self):
        with pytest.raises(ValueError):
            from_ls_text("2\n1 2\n1 2\n")


def _int_error(digits):
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)


BIG = "9" * 5000


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "empty square block", id="empty"),
        pytest.param("\n", "square header must be a single order", id="lone-newline"),
        pytest.param("2 2\n1 2\n2 1\n", "square header must be a single order", id="two-token-header"),
        pytest.param("0\n", "order must be positive", id="order-0"),
        pytest.param("2\n1 2\n2 a\n", "illegal character 'a' in square text", id="letter"),
        pytest.param("2\n1\t2\n2 1\n", "illegal character '\\t' in square text", id="tab"),
        pytest.param("2\n1 2\n", "expected 2 rows, found 1", id="too-few-rows"),
        pytest.param("2\n\n1 2\n2 1\n", "expected 2 rows, found 3", id="too-many-rows"),
        pytest.param("2\n1 2 1\n2 1\n", "row 2: expected 2 entries, found 3", id="three-entries"),
        pytest.param("2\n1 3\n3 1\n", "row 2: entries must sit in 1..2", id="out-of-range"),
        pytest.param("2\n1 2\n\n", "row 3: expected 2 entries, found 0", id="blank-row"),
        pytest.param(
            f"{BIG}\n1\n", _int_error(BIG), id="digit-limit-header",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-digit limit"),
        ),
    ],
)
def test_ls_format_error_texts(text, message):
    with pytest.raises(FormatError) as exc:
        from_ls_text(text)
    assert str(exc.value) == message


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_squares_round_trip_text(seed):
    rng = random.Random(seed)
    sq = random_latin_square(rng.randint(1, 7), rng)
    assert from_ls_text(to_ls_text(sq)) == sq

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import joined_inc_text
from pglatin.binmat import (
    BinaryMatrix,
    FormatError,
    Permutation,
    from_inc_text,
    is_permutation_matrix,
    ones,
    permute,
    to_inc_text,
)
from pglatin.geometry import geometry_from_incidence
from pglatin.matching import decompose_regular
from pglatin.planes import build_pg2
from samples import random_matrix, relabelled_plane


def small_matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.tuples(*([st.integers(0, 1)] * (r * c))).map(
                lambda data: BinaryMatrix(r, c, data)
            )
        )
    )


def permutations_of(n):
    return st.permutations(list(range(n))).map(lambda images: Permutation(tuple(images)))


class TestBinaryMatrix:
    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            BinaryMatrix(0, 3, ())
        with pytest.raises(ValueError):
            BinaryMatrix(3, 0, ())

    def test_rejects_wrong_data_length(self):
        with pytest.raises(ValueError):
            BinaryMatrix(2, 2, (1, 0, 1))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            BinaryMatrix(1, 3, (0, 2, 1))

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([[1, 0], [1]])
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([])

    def test_accessors(self):
        m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m[(0, 2)] == 1
        assert m[(1, 0)] == 0
        assert m.row(1) == (0, 1, 1)
        assert m.col(2) == (1, 1)
        assert m.row_sums() == (2, 2)
        assert m.col_sums() == (1, 1, 2)
        assert m.to_grid() == [[1, 0, 1], [0, 1, 1]]
        with pytest.raises(IndexError):
            m[(2, 0)]
        with pytest.raises(IndexError):
            m.row(5)
        with pytest.raises(IndexError):
            m.col(-1)

    def test_constructors(self):
        assert BinaryMatrix.zeros(2, 3).data == (0,) * 6
        assert BinaryMatrix.ones(2, 2).data == (1,) * 4
        assert BinaryMatrix.identity(3).to_grid() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_transpose(self):
        m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.transpose().to_grid() == [[1, 0], [0, 1], [1, 1]]

    @given(small_matrices())
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    def test_repr_is_compact(self):
        assert repr(BinaryMatrix.ones(7, 7)) == "BinaryMatrix(7x7)"


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation((1, 2, 3))

    def test_identity_and_inverse(self):
        p = Permutation((2, 0, 1))
        assert p(0) == 2 and p.size == 3
        assert p.inverse().images == (1, 2, 0)
        assert not p.is_identity()
        assert Permutation.identity(4).is_identity()

    def test_to_matrix_places_row_ones(self):
        p = Permutation((1, 2, 0))
        assert p.to_matrix().to_grid() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert is_permutation_matrix(p.to_matrix())

    @given(permutations_of(5))
    def test_inverse_composes_to_identity(self, p):
        q = p.inverse()
        assert all(q(p(i)) == i for i in range(5))


class TestPermute:
    def test_moves_cells(self):
        m = BinaryMatrix.from_rows([[1, 0], [0, 0]])
        out = permute(m, Permutation((1, 0)), Permutation((1, 0)))
        assert out.to_grid() == [[0, 0], [0, 1]]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            permute(BinaryMatrix.ones(2, 3), Permutation((0, 1)), Permutation((0, 1)))

    @given(small_matrices(4, 4))
    def test_identity_permutation_is_noop(self, m):
        out = permute(m, Permutation.identity(m.rows), Permutation.identity(m.cols))
        assert out == m

    @given(
        st.tuples(*([st.integers(0, 1)] * 12)).map(lambda d: BinaryMatrix(3, 4, d)),
        permutations_of(3),
        permutations_of(4),
    )
    def test_round_trip_via_inverse(self, m, rp, cp):
        there = permute(m, rp, cp)
        assert permute(there, rp.inverse(), cp.inverse()) == m
        assert there[(rp(1), cp(2))] == m[(1, 2)]


def test_is_permutation_matrix():
    assert is_permutation_matrix(BinaryMatrix.identity(4))
    assert not is_permutation_matrix(BinaryMatrix.ones(2, 2))
    assert not is_permutation_matrix(BinaryMatrix.ones(1, 2))
    assert is_permutation_matrix(BinaryMatrix.from_rows([[0, 1], [1, 0]]))


class TestIncText:
    def test_known_rendering(self):
        m = BinaryMatrix.from_rows([[1, 0], [0, 1]])
        assert to_inc_text(m) == "2 2\n1 0\n0 1\n"

    @given(small_matrices(6, 6))
    def test_round_trip(self, m):
        assert from_inc_text(to_inc_text(m)) == m

    def test_rejects_bad_characters(self):
        with pytest.raises(FormatError):
            from_inc_text("2 2\n1 0\n0 x\n")

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            from_inc_text("2\n1 0\n")
        with pytest.raises(FormatError):
            from_inc_text("0 2\n")
        with pytest.raises(FormatError):
            from_inc_text("")

    def test_rejects_wrong_line_count(self):
        with pytest.raises(FormatError):
            from_inc_text("2 2\n1 0\n")

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(FormatError):
            from_inc_text("1 3\n1 0\n")

    def test_rejects_non_binary_tokens(self):
        with pytest.raises(FormatError):
            from_inc_text("1 2\n1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix text"),
        ("\n", "header must be exactly 'rows cols'"),
        ("2 2\n1 0\n0 x\n", "illegal character 'x' in matrix text"),
        ("1 2\n1\t0\n", "illegal character '\\t' in matrix text"),
        ("2 2\n1 z\nx\t1\r\n", "illegal character '\\t' in matrix text"),
        ("2 2\n1 z\nx 1\n", "illegal character 'x' in matrix text"),
        ("2\n1 0\n", "header must be exactly 'rows cols'"),
        ("1 2 3\n1 0\n", "header must be exactly 'rows cols'"),
        ("0 2\n", "dimensions must be positive"),
        ("2 0\n", "dimensions must be positive"),
        ("2 2\n1 0\n", "expected 2 data lines, found 1"),
        ("2 2\n1 0\n0 1\n1 1\n", "expected 2 data lines, found 3"),
        ("1 3\n1 0\n", "line 2: expected 3 entries, found 2"),
        ("1 2\n1 0 1\n", "line 2: expected 2 entries, found 3"),
        ("2 2\n1 0\n\n", "line 3: expected 2 entries, found 0"),
        ("1 2\n1 2\n", "line 2: entry must be 0 or 1, found '2'"),
        ("2 2\n1 1\n0 2\n", "line 3: entry must be 0 or 1, found '2'"),
        ("1 2\n10 1\n", "line 2: entry must be 0 or 1, found '10'"),
        ("1 2\n1 10\n", "line 2: entry must be 0 or 1, found '10'"),
        ("1 1\n01\n", "line 2: entry must be 0 or 1, found '01'"),
        ("1 2\n01 1\n", "line 2: entry must be 0 or 1, found '01'"),
    ],
)
def test_inc_format_errors_are_pinned(text, message):
    with pytest.raises(FormatError) as exc:
        from_inc_text(text)
    assert str(exc.value) == message


def inc_text_inputs():
    """Seeded edge shapes, random matrices, PG(2, q) for q <= 9 and its permutation parts."""
    rng = random.Random(20261019)
    found = [BinaryMatrix(1, 1, (0,)), BinaryMatrix(1, 1, (1,))]
    for n in (2, 7, 63, 64, 65, 200):
        found += [random_matrix(rng, 1, n, 0.5), random_matrix(rng, n, 1, 0.5)]
        found += [BinaryMatrix.zeros(n, n + 3), BinaryMatrix.ones(n + 3, n)]
    found += [random_matrix(rng, rng.randint(1, 40), rng.randint(1, 40), rng.random()) for _ in range(100)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        incidence = build_pg2(q).incidence
        found += [incidence, *decompose_regular(incidence, q + 1)]
    return found


def test_inc_text_matches_joined_writer():
    for m in inc_text_inputs():
        text = to_inc_text(m)
        assert text == joined_inc_text(m.rows, m.cols, m.masks), m
        assert from_inc_text(text) == m


def test_bool_and_float_cells_are_written_as_digits():
    m = BinaryMatrix(1, 2, (True, 1.0))
    assert to_inc_text(m) == "1 2\n1 1\n"
    assert from_inc_text(to_inc_text(m)) == m
    assert BinaryMatrix(2, 2, (False, 1.0, 0.0, True)).to_grid() == [[0, 1], [0, 1]]
    with pytest.raises(ValueError) as exc:
        BinaryMatrix(1, 3, (0, 1.5, 2))
    assert str(exc.value) == "entries must be 0 or 1, found 1.5"


def cells_by_reference(m):
    return [[m[(i, j)] for j in range(m.cols)] for i in range(m.rows)]


class TestRowMasks:
    def test_bit_j_of_row_i_is_cell_i_j(self):
        m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert m.masks == (0b101, 0b110)
        assert ones(0b110) == [1, 2] and ones(0) == []

    def test_from_masks_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_masks(2, ())
        with pytest.raises(ValueError):
            BinaryMatrix.from_masks(2, (0b100,))
        with pytest.raises(ValueError):
            BinaryMatrix.from_masks(2, (-1,))

    @given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c).map(lambda d: (r, c, d)))))
    def test_data_round_trips(self, shape):
        rows, cols, data = shape
        m = BinaryMatrix(rows, cols, data)
        assert m.data == tuple(data)
        assert cells_by_reference(m) == [data[i * cols : (i + 1) * cols] for i in range(rows)]

    @given(small_matrices())
    def test_data_is_built_once_and_stays_out_of_equality(self, m):
        fresh = BinaryMatrix.from_masks(m.cols, m.masks)
        first = m.data
        assert m.data is first
        assert list(first) == [m[i, j] for i in range(m.rows) for j in range(m.cols)]
        assert fresh == m and hash(fresh) == hash(m)

    def test_bits_lists_each_rows_ones_and_stays_out_of_equality(self):
        rng = random.Random(2025)
        inputs = [random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30), rng.random()) for _ in range(40)]
        for m in inputs + [relabelled_plane(q, random.Random(q)) for q in (2, 3, 4, 5, 7)]:
            fresh = BinaryMatrix.from_masks(m.cols, m.masks)
            seen = (repr(m), hash(m))
            bits = m.bits
            assert m.bits is bits and type(bits) is tuple and all(type(row) is tuple for row in bits)
            assert bits == tuple(tuple(ones(mask)) for mask in m.masks)
            assert (repr(m), hash(m)) == seen and m == fresh and fresh == m

    def test_a_planes_geometry_shares_its_matrix_bits(self):
        for q in (2, 3, 4, 5):
            m = relabelled_plane(q, random.Random(q))
            assert geometry_from_incidence(m).lines is m.bits

    @given(small_matrices())
    def test_from_masks_rebuilds_equal_matrix(self, m):
        again = BinaryMatrix.from_masks(m.cols, m.masks)
        assert again == m and hash(again) == hash(m)

    @given(small_matrices())
    def test_transpose_matches_cells(self, m):
        grid = cells_by_reference(m)
        assert cells_by_reference(m.transpose()) == [list(col) for col in zip(*grid)]

    @given(st.data())
    def test_permute_matches_cells(self, data):
        m = data.draw(small_matrices())
        rp = data.draw(permutations_of(m.rows))
        cp = data.draw(permutations_of(m.cols))
        moved = [[0] * m.cols for _ in range(m.rows)]
        for i, row in enumerate(cells_by_reference(m)):
            for j, value in enumerate(row):
                moved[rp(i)][cp(j)] = value
        assert cells_by_reference(permute(m, rp, cp)) == moved

    @given(small_matrices(4, 4))
    def test_is_permutation_matrix_matches_sums(self, m):
        expected = m.rows == m.cols and set(m.row_sums()) == {1} and set(m.col_sums()) == {1}
        assert is_permutation_matrix(m) == expected

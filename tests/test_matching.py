import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_max_independent_ones, brute_max_zero_weight
from pglatin.binmat import BinaryMatrix, is_permutation_matrix, ones
from pglatin.matching import (
    Biconditional,
    MatchingWitness,
    ZeroBlockWitness,
    bipartite_matching,
    decompose_regular,
    duality_report,
    max_independent_ones,
    max_zero_submatrix,
)
from samples import relabelled_plane


class TestBipartiteMatching:
    def test_needs_augmenting_path(self):
        # row 0 grabs column 0 first and must be rerouted for row 1
        assert bipartite_matching([[0, 1], [0]], 2) == [1, 0]

    def test_deterministic_greedy_order(self):
        assert bipartite_matching([[0], [0, 1]], 2) == [0, 1]

    def test_unmatchable_rows(self):
        assert bipartite_matching([[], [0], [0]], 1) == [-1, 0, -1]

    def test_no_recursion_limit_on_long_chains(self):
        # a chain where every row but the last must be rerouted once
        n = 3000
        adjacency = [[i, i + 1] for i in range(n - 1)] + [[0]]
        match = bipartite_matching(adjacency, n)
        assert all(c >= 0 for c in match)
        assert sorted(match) == list(range(n))


class TestWitnesses:
    def test_matching_witness_validation(self):
        MatchingWitness(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            MatchingWitness(1, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            MatchingWitness(2, ((0, 1), (0, 0)))
        with pytest.raises(ValueError):
            MatchingWitness(2, ((0, 1), (1, 1)))

    def test_zero_block_witness_validation(self):
        w = ZeroBlockWitness((0, 2), (1,))
        assert w.a == 2 and w.b == 1 and w.weight == 3
        with pytest.raises(ValueError):
            ZeroBlockWitness((), (1,))
        with pytest.raises(ValueError):
            ZeroBlockWitness((0,), ())
        with pytest.raises(ValueError):
            ZeroBlockWitness((0, 0), (1,))


class TestMaxIndependentOnes:
    def test_identity(self):
        w = max_independent_ones(BinaryMatrix.identity(4))
        assert w.size == 4
        assert sorted(w.pairs) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_zeros(self):
        assert max_independent_ones(BinaryMatrix.zeros(3, 2)).size == 0

    def test_witness_cells_are_ones(self):
        m = BinaryMatrix.from_rows([[1, 1, 0], [1, 0, 0], [0, 1, 1]])
        w = max_independent_ones(m)
        assert w.size == 3
        assert all(m[(r, c)] == 1 for r, c in w.pairs)


class TestMaxZeroSubmatrix:
    def test_none_without_zeros(self):
        assert max_zero_submatrix(BinaryMatrix.ones(3, 4)) is None

    def test_all_zero_matrix(self):
        w = max_zero_submatrix(BinaryMatrix.zeros(2, 4))
        assert w is not None
        assert w.rows == (0, 1) and w.cols == (0, 1, 2, 3)

    def test_two_sided_requirement_can_cost(self):
        # the only zero sits in a full-rank corner: any block is 1 row x 1 col
        f = BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 1]])
        w = max_zero_submatrix(f)
        assert w is not None
        assert w.weight == 2
        assert w.rows == (0,) and w.cols == (2,)

    def test_block_is_all_zero(self):
        rng = random.Random(11)
        for _ in range(50):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            data = tuple(rng.randint(0, 1) for _ in range(rows * cols))
            w = max_zero_submatrix(BinaryMatrix(rows, cols, data))
            if w is None:
                assert 0 not in data
                continue
            for r, c in product(w.rows, w.cols):
                assert data[r * cols + c] == 0


def exhaustive_small_matrices():
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            for bits in range(1 << (rows * cols)):
                data = tuple((bits >> i) & 1 for i in range(rows * cols))
                yield BinaryMatrix(rows, cols, data)


def test_oracle_agreement_exhaustive_small():
    count = 0
    for f in exhaustive_small_matrices():
        report = duality_report(f)
        assert report.v == brute_max_independent_ones(f.rows, f.cols, f.data)
        assert report.w == brute_max_zero_weight(f.rows, f.cols, f.data)
        count += 1
    assert count == 682


@settings(max_examples=300)
@given(st.data())
def test_oracle_agreement_random(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    bits = data.draw(st.tuples(*([st.integers(0, 1)] * (rows * cols))))
    f = BinaryMatrix(rows, cols, bits)
    report = duality_report(f)
    assert report.v == brute_max_independent_ones(rows, cols, bits)
    assert report.w == brute_max_zero_weight(rows, cols, bits)


class TestDualityReport:
    def test_square_rule_only_for_square(self):
        assert duality_report(BinaryMatrix.ones(2, 3)).square_rule is None
        assert duality_report(BinaryMatrix.ones(3, 3)).square_rule is not None

    def test_rule_fields(self):
        r = duality_report(BinaryMatrix.identity(3))
        assert (r.v, r.w) == (3, 3)
        assert r.square_rule.holds and r.minmax_rule.holds and r.strict_rule.holds
        assert r.dual_bound == 3 and r.w_meets_bound is True

    def test_no_zero_entries(self):
        r = duality_report(BinaryMatrix.ones(2, 2))
        assert r.w == 0 and r.w_witness is None and r.w_meets_bound is None

    def test_degenerate_bound_gap(self):
        r = duality_report(BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 1]]))
        assert r.v == 2 and r.w == 2
        assert r.dual_bound == 3 and r.w_meets_bound is False
        assert r.minmax_rule.holds and r.strict_rule.holds

    def test_deficient_square(self):
        # column 2 is all zero, so no full selection exists and w spills over
        f = BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
        r = duality_report(f)
        assert r.v == 2
        assert r.w == 4
        assert r.square_rule.lhs is False and r.square_rule.rhs is False

    def test_witness_sizes_match(self):
        f = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        r = duality_report(f)
        assert r.v_witness.size == r.v
        assert r.w_witness.weight == r.w

    def test_rule_fields_match_their_formulas(self):
        rng = random.Random(6)
        inputs = [BinaryMatrix(3, 3, cells) for cells in product((0, 1), repeat=9)]
        for _ in range(300):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.random()
            inputs.append(BinaryMatrix(m, n, tuple(int(rng.random() < density) for _ in range(m * n))))
        short_of_min = 0
        for f in inputs:
            r = duality_report(f)
            m, n, v, w = f.rows, f.cols, r.v, r.w
            assert r.square_rule == (Biconditional(v == n, w <= n) if m == n else None)
            assert r.minmax_rule == Biconditional(v == min(m, n), w <= max(m, n))
            assert r.strict_rule == Biconditional(v < min(m, n), w > max(m, n))
            short_of_min += m != n and v < min(m, n)
        assert short_of_min > 0


class TestDecomposeRegular:
    def test_identity_is_one_permutation(self):
        parts = decompose_regular(BinaryMatrix.identity(4), 1)
        assert parts == [BinaryMatrix.identity(4)]

    def test_all_ones(self):
        f = BinaryMatrix.ones(3, 3)
        parts = decompose_regular(f, 3)
        assert len(parts) == 3
        acc = [0] * 9
        for p in parts:
            assert is_permutation_matrix(p)
            for i, x in enumerate(p.data):
                acc[i] += x
        assert tuple(acc) == f.data

    def test_circulant(self):
        n, k = 6, 3
        f = BinaryMatrix(
            n, n, tuple(1 if (c - r) % n < k else 0 for r in range(n) for c in range(n))
        )
        parts = decompose_regular(f, k)
        acc = [0] * (n * n)
        for p in parts:
            assert is_permutation_matrix(p)
            for i, x in enumerate(p.data):
                acc[i] += x
        assert tuple(acc) == f.data

    def test_leaves_the_matrix_bits_alone(self):
        # decompose_regular shrinks its own copy of the row lists; f and later reports on it keep every one
        for q in (2, 3, 4, 5):
            f = relabelled_plane(q, random.Random(q))
            expected = [ones(mask) for mask in f.masks]
            decompose_regular(f, q + 1)
            assert list(map(list, f.bits)) == expected
            assert duality_report(f) == duality_report(BinaryMatrix.from_masks(f.cols, f.masks))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            decompose_regular(BinaryMatrix.ones(2, 3), 3)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            decompose_regular(BinaryMatrix.identity(3), 2)
        with pytest.raises(ValueError):
            decompose_regular(BinaryMatrix.identity(3), 0)

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            decompose_regular(BinaryMatrix.from_rows([[1, 1], [1, 0]]), 1)

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion N] PASS line once every assertion in it
has held, so a verbose run reads as a checklist. Timings are wall-clock and
asserted where a budget applies.
"""

import hashlib
import random
import time
from itertools import combinations

from oracles import brute_max_independent_ones, brute_max_zero_weight
from pglatin.binmat import BinaryMatrix, is_permutation_matrix
from pglatin.canonical import canonicalize, extract_mpls, reconstruct
from pglatin.geometry import (
    classify_v_eq_b,
    geometry_from_incidence,
    incident_injection,
    plane_check,
    subgeometry,
)
from pglatin.latin import (
    LatinSquare,
    cyclic_square,
    group_product_cover,
    pair_coverage,
    projective_pair,
    random_latin_square,
    resolvability_report,
    submatrix_symbol_count,
    verify_mpls,
)
from pglatin.matching import decompose_regular, duality_report
from pglatin.planes import build_pg2
from test_latin import S3_TABLE

PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9)
# sha256 of repr(duality_report(f)) over criterion 5's matrices in order, recorded
# before small matrices were solved by enumerating their short side
SMALL_REPORTS_DIGEST = "0b94172ffe86f24921b255e13c1f64b2f4f2e63c6f5c664cae9aeb671a769ecd"


def test_criterion_01_plane_construction_all_orders():
    for q in PLANE_ORDERS:
        started = time.perf_counter()
        bundle = build_pg2(q)
        elapsed = time.perf_counter() - started
        expected = q * q + q + 1
        assert bundle.geometry.v == expected and bundle.geometry.b == expected
        verdict = plane_check(bundle.geometry)
        assert verdict.first_def and verdict.second_def and verdict.order == q
        assert elapsed < 2.0, f"order {q} took {elapsed:.2f}s"
    print(f"[criterion 1] PASS: orders {PLANE_ORDERS} built and verified, each under 2s")


def test_criterion_02_extraction_from_order_five_plane():
    form = canonicalize(build_pg2(5).incidence)
    squares = extract_mpls(form)
    assert squares.order == 5
    assert len(squares.squares) == 4
    for sq in squares.squares:
        assert sq.order == 5 and sq.has_unit_diagonal
    for a, b in combinations(squares.squares, 2):
        assert projective_pair(a, b)
    print("[criterion 2] PASS: order-5 plane yields 4 pairwise projective unit-diagonal squares")


def test_criterion_03_known_squares_rebuild_a_plane(order5_set):
    report = verify_mpls(order5_set)
    assert report.is_mpls and report.is_complete
    matrix = reconstruct(order5_set)
    assert matrix.rows == 31 and matrix.cols == 31
    verdict = plane_check(geometry_from_incidence(matrix))
    assert verdict.first_def and verdict.second_def and verdict.order == 5
    print("[criterion 3] PASS: the known order-5 set reconstructs a 31x31 plane passing both definitions")


def test_criterion_04_round_trip_bit_identical():
    for q in PLANE_ORDERS:
        first = canonicalize(build_pg2(q).incidence)
        rebuilt = reconstruct(extract_mpls(first))
        assert rebuilt == first.matrix
        second = canonicalize(rebuilt)
        assert second.matrix == rebuilt
        assert second.row_perm.is_identity() and second.col_perm.is_identity()
    print(f"[criterion 4] PASS: canonicalize/extract/reconstruct round trip bit-identical for q in {PLANE_ORDERS}")


def test_criterion_05_duality_exhaustive_and_random():
    started = time.perf_counter()
    digest = hashlib.sha256()
    for bits in range(1 << 16):
        data = tuple((bits >> i) & 1 for i in range(16))
        f = BinaryMatrix(4, 4, data)
        report = duality_report(f)  # raises if any duality rule fails
        digest.update(repr(report).encode())
        assert report.v == brute_max_independent_ones(4, 4, data)
        assert report.w == brute_max_zero_weight(4, 4, data)
    rng = random.Random(20250823)
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        data = tuple(rng.randint(0, 1) for _ in range(rows * cols))
        report = duality_report(BinaryMatrix(rows, cols, data))
        digest.update(repr(report).encode())
        assert report.v == brute_max_independent_ones(rows, cols, data)
        assert report.w == brute_max_zero_weight(rows, cols, data)
    assert digest.hexdigest() == SMALL_REPORTS_DIGEST
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"duality sweep took {elapsed:.1f}s"
    print(f"[criterion 5] PASS: 65536 exhaustive 4x4 plus 1000 random matrices match brute force in {elapsed:.1f}s")


def test_criterion_06_regular_decomposition():
    for q in (2, 3, 5):
        incidence = build_pg2(q).incidence
        parts = decompose_regular(incidence, q + 1)
        assert len(parts) == q + 1
        total = [0] * len(incidence.data)
        for part in parts:
            assert is_permutation_matrix(part)
            for i, x in enumerate(part.data):
                total[i] += x
        assert tuple(total) == incidence.data
    print("[criterion 6] PASS: incidence matrices for q in (2, 3, 5) split into exactly q+1 permutation matrices")


def test_criterion_07_resolvability_of_first_square():
    squares = extract_mpls(canonicalize(build_pg2(5).incidence))
    report = resolvability_report(squares, 0)
    assert report.verified and not report.problems
    assert len(report.resolutions) == 3
    for resolution in report.resolutions:
        assert len(resolution) == 5
    assert len(set(report.resolutions)) == 3
    print("[criterion 7] PASS: first extracted order-5 square resolves 3 ways into 5 transversals each")


def test_criterion_08_ordered_pair_coverage(order5_set):
    checked = 0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            assert pair_coverage(order5_set, i, j)
            checked += 1
    assert checked == 20
    print("[criterion 8] PASS: all 20 ordered column pairs cover all 20 ordered symbol pairs")


def test_criterion_09_subgeometry_counting(plane_cache):
    rng = random.Random(424242)
    geometries = [plane_cache(3).geometry, plane_cache(4).geometry]
    seen = 0
    equality_cases = 0
    while seen < 200:
        g = geometries[seen % 2]
        size = rng.randint(0, g.v)
        sub = subgeometry(g, rng.sample(range(g.v), size))
        if sub.b < 2:
            continue
        assert sub.v <= sub.b
        assignment = incident_injection(sub)
        assert len(set(assignment.values())) == sub.v
        assert all(p in sub.lines[line] for p, line in assignment.items())
        if sub.v == sub.b:
            equality_cases += 1
            has_long_line = any(len(line) == sub.v - 1 for line in sub.lines)
            verdict = plane_check(sub)
            is_plane = verdict.first_def and verdict.second_def
            assert has_long_line != is_plane
            classify_v_eq_b(sub)  # must succeed without RuntimeError
        seen += 1
    assert equality_cases > 0
    print(f"[criterion 9] PASS: 200 seeded subgeometries bounded, injected, and classified ({equality_cases} with v = b)")


def test_criterion_10_symbol_counts_and_group_covers():
    rng = random.Random(31337)
    orders = [3, 4, 5, 6, 7] * 20
    for order in orders:
        square = random_latin_square(order, rng)
        for a in range(1, order + 1):
            for rows in combinations(range(order), a):
                for b in range(max(1, order + 1 - a), order + 1):
                    for cols in combinations(range(order), b):
                        _, ok = submatrix_symbol_count(square, rows, cols)
                        assert ok
    for n in range(1, 9):
        table = cyclic_square(n)
        for a in range(1, n + 1):
            b = n + 1 - a
            if not 1 <= b <= n:
                continue
            for a_rows in combinations(range(n), a):
                for b_cols in combinations(range(n), b):
                    assert group_product_cover(table, a_rows, b_cols)
    s3 = LatinSquare(S3_TABLE)
    for a in range(1, 7):
        b = 7 - a
        if b > 6:
            continue
        for a_rows in combinations(range(6), a):
            for b_cols in combinations(range(6), b):
                assert group_product_cover(s3, a_rows, b_cols)
    print("[criterion 10] PASS: 100 random squares satisfy the excess rule exhaustively; cyclic tables and the order-6 non-abelian group cover at threshold")

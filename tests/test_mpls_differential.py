"""verify_mpls, projective_pair and transversals_from_companion against plain row and cell scans."""

import random
from collections import Counter
from functools import lru_cache

import pytest

from oracles import companion_placements, mpls_violations, row_agreements
from pglatin.binmat import Permutation, permute
from pglatin.canonical import canonicalize, extract_mpls
from pglatin.latin import (
    LatinSquare,
    MplsSet,
    projective_pair,
    random_latin_square,
    transversals_from_companion,
    verify_mpls,
)
from pglatin.planes import build_pg2

PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def random_unit_diagonal(n, rng):
    """A random square with its columns moved so that symbol 1 sits on the diagonal."""
    sq = random_latin_square(n, rng)
    one_at = [row.index(1) for row in sq.entries]
    return LatinSquare(tuple(tuple(row[one_at[c]] for c in range(n)) for row in sq.entries))


@lru_cache(maxsize=None)
def complete_set(q, seed):
    """The complete set extracted from PG(2, q) after a seeded shuffle of rows and columns."""
    incidence = build_pg2(q).incidence
    rng = random.Random(seed)
    rows, cols = list(range(incidence.rows)), list(range(incidence.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return extract_mpls(canonicalize(permute(incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))))


def square_sets(count, seed):
    """Seeded sets of orders 2..9: random members, or a complete set with one member edited."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.4:
            n = rng.randint(2, 9)
            squares = [random_unit_diagonal(n, rng) for _ in range(rng.randint(1, n - 1))]
            yield "random", MplsSet(n, tuple(squares))
            continue
        q = rng.choice(PLANE_ORDERS)
        base = complete_set(q, rng.randrange(3))
        squares = list(base.squares)
        i, j = rng.randrange(len(squares)), rng.randrange(len(squares))
        kind = rng.choice(["intact", "duplicated", "replaced", "transposed"])
        if kind == "duplicated":
            squares[j] = squares[i]
        elif kind == "replaced":
            squares[j] = random_unit_diagonal(q, rng)
        elif kind == "transposed":
            squares[j] = squares[j].transpose()
        yield kind, MplsSet(q, tuple(squares))


def oracle_projective(a, b):
    return a.has_unit_diagonal and b.has_unit_diagonal and all(
        row_agreements(row_a, row_b) == 1 for row_a in a.entries for row_b in b.entries
    )


def test_square_sets_agree_with_row_scans():
    kinds = Counter()
    verdicts = Counter()
    for kind, s in square_sets(300, seed=20261018):
        violations = mpls_violations([sq.entries for sq in s.squares])
        report = verify_mpls(s)
        assert report.violations == tuple(violations), (kind, s)
        assert report.is_mpls == (not violations)
        kinds[kind, report.is_mpls] += 1
        for a in s.squares:
            for b in s.squares:
                projective = oracle_projective(a, b)
                assert projective_pair(a, b) == projective
                verdicts[projective] += 1
                if projective:
                    placements = [list(t.placements) for t in transversals_from_companion(a, b)]
                    assert placements == companion_placements(a.entries, b.entries)
                else:
                    with pytest.raises(ValueError, match="^host and companion are not a projective pair$"):
                        transversals_from_companion(a, b)
    # both verdicts occur for every source of sets that can produce them
    assert kinds["random", False] >= 20 and kinds["random", True] >= 20
    assert kinds["intact", True] >= 20
    for kind in ("duplicated", "replaced", "transposed"):
        assert kinds[kind, False] >= 10
    assert min(verdicts.values()) >= 500


def test_order_mismatch_message_is_kept():
    a, b = random_unit_diagonal(5, random.Random(1)), random_unit_diagonal(3, random.Random(2))
    for call in (projective_pair, transversals_from_companion):
        with pytest.raises(ValueError, match="^orders differ: 5 vs 3$"):
            call(a, b)


def test_order_32_set_with_last_square_replaced_by_first():
    complete = extract_mpls(canonicalize(build_pg2(32).incidence))
    assert verify_mpls(complete).is_complete
    corrupted = MplsSet(32, complete.squares[:-1] + complete.squares[:1])
    report = verify_mpls(corrupted)
    assert not report.is_mpls and not report.is_complete
    assert len(report.violations) == 1024
    assert report.violations[0] == "squares 0 and 30: rows 0 and 0 agree in 32 columns, expected 1"
    assert report.violations[1] == "squares 0 and 30: rows 0 and 1 agree in 0 columns, expected 1"
    assert report.violations[-1] == "squares 0 and 30: rows 31 and 31 agree in 32 columns, expected 1"


@pytest.mark.parametrize("q", PLANE_ORDERS[1:])
def test_rows_that_meet_once_are_not_enough_without_unit_diagonals(q):
    a, b = complete_set(q, 0).squares[:2]
    # the same relabelling of both squares keeps every meeting but moves the diagonal off 1
    a, b = (LatinSquare(tuple(tuple(x % q + 1 for x in row) for row in sq.entries)) for sq in (a, b))
    assert all(row_agreements(row_a, row_b) == 1 for row_a in a.entries for row_b in b.entries)
    assert not projective_pair(a, b)
    with pytest.raises(ValueError, match="^host and companion are not a projective pair$"):
        transversals_from_companion(a, b)

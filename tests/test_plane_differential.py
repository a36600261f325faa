"""The plane layer's closed forms against the loops they replace, kept in oracles.py."""

import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import brute_four_independent, dot_product_pg2_lines, lines_pairwise_meet, poly_product_field_tables
from pglatin import geometry
from pglatin.binmat import ones
from pglatin.geometry import GeometryError, find_four_independent, plane_check, subgeometry, validate_geometry
from pglatin.planes import FiniteField, _monic_polys, build_pg2, is_irreducible, prime_power, smallest_irreducible
from test_geometry_axioms import mutated_cases, near_pencil

ORDERS = [q for q in range(2, 33) if prime_power(q)]


@pytest.mark.parametrize("q", ORDERS)
def test_field_tables_match_polynomial_products(q):
    p, k = prime_power(q)
    moduli = [m for m in _monic_polys(p, k) if is_irreducible(m, p)]
    assert moduli
    for modulus in moduli:
        f = FiniteField(p, k, modulus)
        assert (f._add_table, f._mul_table, f._inv_table) == poly_product_field_tables(p, modulus), modulus


@pytest.mark.parametrize("q", ORDERS)
def test_pg2_matches_dot_product_construction(q):
    p, k = prime_power(q)
    add, mul, _ = poly_product_field_tables(p, smallest_irreducible(p, k))
    expected = dot_product_pg2_lines(q, add, mul)
    bundle = build_pg2(q)
    assert [list(line) for line in bundle.geometry.lines] == expected
    assert [ones(mask) for mask in bundle.incidence.masks] == expected


def check_second_def(g):
    """plane_check's count against the pair scan; returns (four independent points, all lines meet)."""
    quad = find_four_independent(g) is not None
    meet = lines_pairwise_meet(g.lines)
    assert plane_check(g).second_def == (quad and meet), (g.point_count, g.lines)
    return quad, meet


def test_second_def_on_mutated_line_systems():
    outcomes = Counter()
    for v, lines in mutated_cases(2500, seed=20261018):
        try:
            g = validate_geometry(v, lines)
        except GeometryError:
            continue
        outcomes[check_second_def(g)] += 1
    # two disjoint lines hold four independent points, so (False, False) cannot occur;
    # the mutants that validate are planes or have no four independent points
    assert outcomes[True, True] >= 50 and outcomes[False, True] >= 50


def test_second_def_on_subgeometries():
    rng = random.Random(20261019)
    planes = [build_pg2(q).geometry for q in (2, 3, 4, 5)]
    outcomes = Counter()
    for _ in range(1600):
        g = rng.choice(planes)
        outcomes[check_second_def(subgeometry(g, rng.sample(range(g.v), rng.randint(0, g.v))))] += 1
    # four independent points with two disjoint lines, the case where the count and
    # the pair scan could part, arise here and not among the mutants
    assert min(outcomes[True, False], outcomes[True, True], outcomes[False, True]) >= 50



def test_four_independent_points_agree_with_brute_force():
    rng = random.Random(20261021)
    planes = [build_pg2(q).geometry for q in (2, 3, 4)]
    cases = [validate_geometry(*near_pencil(v)) for v in range(3, 16)]
    for _ in range(300):
        g = rng.choice(planes)
        cases.append(subgeometry(g, rng.sample(range(g.v), rng.randint(0, min(g.v, 14)))))
    found = Counter()
    for g in cases:
        quad = find_four_independent(g)
        assert (quad is None) == (brute_four_independent(g.point_count, g.lines) is None), (g.point_count, g.lines)
        if quad is not None:
            assert len(set(quad)) == 4 and all(len(set(line) & set(quad)) <= 2 for line in g.lines)
        found[quad is not None] += 1
    assert min(found.values()) >= 50


def test_no_four_independent_points_skips_the_line_pair_scan(monkeypatch):
    pairs = []

    def counted(items, r):
        for pair in combinations(items, r):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(geometry, "combinations", counted)
    for v in (3, 4, 9, 300):
        assert find_four_independent(validate_geometry(*near_pencil(v))) is None
    assert pairs == []
    assert find_four_independent(build_pg2(3).geometry) is not None
    assert pairs

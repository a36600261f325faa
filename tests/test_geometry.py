import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FANO_LINES, NEAR_PENCIL_LINES
from oracles import brute_four_independent, point_line_injection
from pglatin.geometry import (
    Geometry,
    GeometryError,
    PencilWithTransversal,
    PlaneVerdict,
    ProjectivePlane,
    classify_v_eq_b,
    find_four_independent,
    geometry_from_json,
    geometry_to_json,
    incidence_from_geometry,
    incident_injection,
    line_through,
    plane_check,
    subgeometry,
    validate_geometry,
)
from pglatin.planes import build_pg2


class TestAxioms:
    def test_point_out_of_range(self):
        with pytest.raises(GeometryError) as exc:
            Geometry(3, ((0, 3),))
        assert exc.value.axiom == "point_out_of_range"

    def test_line_too_small(self):
        with pytest.raises(GeometryError) as exc:
            Geometry(3, ((0,), (0, 1), (0, 2), (1, 2)))
        assert exc.value.axiom == "line_too_small"

    def test_pair_on_two_lines(self):
        with pytest.raises(GeometryError) as exc:
            Geometry(3, ((0, 1, 2), (0, 1)))
        assert exc.value.axiom == "pair_on_two_lines"
        assert exc.value.witness == (0, 1)

    def test_pair_on_no_line(self):
        with pytest.raises(GeometryError) as exc:
            Geometry(3, ((0, 1),))
        assert exc.value.axiom == "pair_on_no_line"
        assert exc.value.witness == (0, 2)

    def test_degenerate_geometries_are_fine(self):
        assert Geometry(0, ()).v == 0
        assert Geometry(1, ()).b == 0
        assert Geometry(2, ((0, 1),)).b == 1

    def test_lines_must_be_sorted_tuples(self):
        with pytest.raises(ValueError):
            Geometry(2, ((1, 0),))
        with pytest.raises(ValueError):
            Geometry(2, ((0, 0, 1),))

    def test_validate_geometry_normalizes(self):
        g = validate_geometry(2, [[1, 0]])
        assert g.lines == ((0, 1),)

    def test_negative_point_count(self):
        with pytest.raises(ValueError):
            Geometry(-1, ())


class TestEquality:
    def test_line_order_is_ignored(self):
        a = Geometry(3, ((0, 1), (0, 2), (1, 2)))
        b = Geometry(3, ((1, 2), (0, 1), (0, 2)))
        assert a == b
        assert hash(a) == hash(b)

    def test_point_count_matters(self):
        assert Geometry(1, ()) != Geometry(0, ())


class TestLineThrough:
    def test_fano(self, fano):
        assert line_through(fano, 1, 4) == (1, 4, 6)
        assert line_through(fano, 4, 1) == (1, 4, 6)
        assert line_through(fano, 0, 6) == (0, 5, 6)

    def test_errors(self, fano):
        with pytest.raises(ValueError):
            line_through(fano, 2, 2)
        with pytest.raises(ValueError):
            line_through(fano, 0, 7)


class TestSubgeometry:
    def test_fano_quadrilateral_is_near_pencil(self, fano, near_pencil):
        assert subgeometry(fano, {0, 1, 2, 3}) == near_pencil

    def test_relabels_in_sorted_order(self, fano):
        sub = subgeometry(fano, {6, 4, 1})
        # original line (1, 4, 6) survives with points renamed 0, 1, 2
        assert sub.v == 3
        assert (0, 1, 2) in sub.lines

    def test_small_subsets(self, fano):
        assert subgeometry(fano, set()).v == 0
        assert subgeometry(fano, {3}).b == 0
        assert subgeometry(fano, {0, 1}).lines == ((0, 1),)

    def test_out_of_range(self, fano):
        with pytest.raises(ValueError):
            subgeometry(fano, {0, 9})


def independent(g, points):
    """True when no line of g contains three of the given points."""
    return all(len(set(line) & set(points)) <= 2 for line in g.lines)


class TestIndependence:
    def test_find_four_independent_on_fano(self, fano):
        quad = find_four_independent(fano)
        assert quad == (1, 2, 3, 4)
        assert independent(fano, quad)

    def test_find_four_independent_none(self, near_pencil):
        assert find_four_independent(near_pencil) is None
        assert find_four_independent(Geometry(3, ((0, 1), (0, 2), (1, 2)))) is None
        assert find_four_independent(Geometry(3, ((0, 1, 2),))) is None

    def test_construction_agrees_with_brute_force(self, plane_cache):
        g = plane_cache(3).geometry
        quad = find_four_independent(g)
        assert quad is not None and independent(g, quad)

    @staticmethod
    def _agrees_with_oracle(g):
        quad = find_four_independent(g)
        if brute_four_independent(g.point_count, g.lines) is None:
            assert quad is None
        else:
            assert quad is not None and independent(g, quad)

    def test_oracle_agreement_on_every_fano_subgeometry(self, fano):
        for size in range(8):
            for points in combinations(range(7), size):
                self._agrees_with_oracle(subgeometry(fano, points))

    def test_oracle_agreement_on_pg23_subgeometries(self, plane_cache):
        g = plane_cache(3).geometry
        rng = random.Random(23)
        for _ in range(1000):
            self._agrees_with_oracle(subgeometry(g, rng.sample(range(13), rng.randint(4, 13))))

    def test_large_near_pencil_has_no_quadruple(self):
        # 119 points on one line plus a point joined to each of them
        g = Geometry(120, (tuple(range(119)),) + tuple((p, 119) for p in range(119)))
        assert find_four_independent(g) is None


class TestPlaneCheck:
    def test_fano_passes_both(self, fano):
        verdict = plane_check(fano)
        assert verdict.first_def and verdict.second_def
        assert verdict.order == 2

    def test_near_pencil_fails_both(self, near_pencil):
        # all lines pairwise meet, but no four points are independent
        verdict = plane_check(near_pencil)
        assert not verdict.first_def and not verdict.second_def
        assert verdict.order is None

    def test_triangle(self):
        verdict = plane_check(Geometry(3, ((0, 1), (0, 2), (1, 2))))
        assert not verdict.first_def and not verdict.second_def

    def test_affine_plane_fails_both(self, plane_cache):
        # AG(2, 3): regular and uniform with four independent points, but r = 4 and k = 3,
        # and parallel lines do not meet
        g = plane_cache(3).geometry
        affine = subgeometry(g, set(range(g.v)) - set(g.lines[0]))
        m = incidence_from_geometry(affine)
        assert (set(m.col_sums()), set(m.row_sums())) == ({4}, {3})
        assert find_four_independent(affine) is not None
        assert plane_check(affine) == PlaneVerdict(False, False, None)


class TestClassify:
    def test_fano_is_plane(self, fano):
        assert classify_v_eq_b(fano) == ProjectivePlane(2)

    def test_near_pencil(self, near_pencil):
        shape = classify_v_eq_b(near_pencil)
        assert shape == PencilWithTransversal(3, (0, 1, 2))

    def test_triangle_is_pencil(self):
        shape = classify_v_eq_b(Geometry(3, ((0, 1), (0, 2), (1, 2))))
        assert isinstance(shape, PencilWithTransversal)
        assert shape.top == 2 and shape.transversal == (0, 1)

    def test_v_not_equal_b_rejected(self, fano):
        with pytest.raises(ValueError):
            classify_v_eq_b(subgeometry(fano, {3, 4, 5, 6}))

    def test_too_few_lines_rejected(self):
        with pytest.raises(ValueError):
            classify_v_eq_b(Geometry(2, ((0, 1),)))
        with pytest.raises(ValueError):
            classify_v_eq_b(Geometry(0, ()))


class TestIncidentInjection:
    def test_fano(self, fano):
        assignment = incident_injection(fano)
        assert len(assignment) == 7
        assert len(set(assignment.values())) == 7
        assert all(p in fano.lines[line] for p, line in assignment.items())

    def test_near_pencil(self, near_pencil):
        assignment = incident_injection(near_pencil)
        assert len(set(assignment.values())) == 4
        assert all(p in near_pencil.lines[line] for p, line in assignment.items())

    def test_needs_two_lines(self):
        with pytest.raises(ValueError):
            incident_injection(Geometry(2, ((0, 1),)))


def injection_inputs():
    """PG(2, q) with seeded relabellings and subgeometries of two or more lines, and near-pencils on 3..8 points."""
    rng = random.Random(2121)
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = build_pg2(q).geometry
        yield f"PG(2, {q})", plane
        for k in range(3):
            label = list(range(plane.v))
            rng.shuffle(label)
            lines = [tuple(sorted(label[p] for p in line)) for line in plane.lines]
            rng.shuffle(lines)
            yield f"PG(2, {q}) relabelling {k}", Geometry(plane.v, tuple(lines))
        subs = 0
        while subs < 20:
            sub = subgeometry(plane, rng.sample(range(plane.v), rng.randint(0, plane.v)))
            if sub.b >= 2:
                yield f"PG(2, {q}) subgeometry {subs}", sub
                subs += 1
    for v in range(3, 9):
        yield f"near-pencil on {v} points", Geometry(v, (tuple(range(1, v)),) + tuple((0, p) for p in range(1, v)))


def test_incident_injection_matches_hand_built_adjacency():
    count = 0
    for name, g in injection_inputs():
        assert incident_injection(g) == point_line_injection(g.point_count, g.lines), name
        count += 1
    assert count == 7 * 24 + 6


class TestJson:
    def test_round_trip(self, fano):
        assert geometry_from_json(geometry_to_json(fano)) == fano

    def test_shape(self, near_pencil):
        obj = geometry_to_json(near_pencil)
        assert obj == {"points": 4, "lines": [[0, 1, 2], [0, 3], [1, 3], [2, 3]]}

    def test_rejects_bad_payloads(self):
        from pglatin.binmat import FormatError

        for payload in (
            [],
            {"points": 2},
            {"points": 2, "lines": [[0, 1]], "extra": 1},
            {"points": True, "lines": []},
            {"points": 2, "lines": "01"},
            {"points": 2, "lines": [["0", "1"]]},
            {"points": 2, "lines": [[0, True]]},
        ):
            with pytest.raises(FormatError):
                geometry_from_json(payload)

    def test_axiom_errors_pass_through(self):
        with pytest.raises(GeometryError):
            geometry_from_json({"points": 3, "lines": [[0, 1]]})


def random_subgeometry(g, rng):
    size = rng.randint(0, g.v)
    return subgeometry(g, rng.sample(range(g.v), size))


class TestCountingBounds:
    def test_points_never_exceed_lines(self, plane_cache):
        # over any restriction with at least two lines
        rng = random.Random(2024)
        g = plane_cache(3).geometry
        seen = 0
        while seen < 120:
            sub = random_subgeometry(g, rng)
            if sub.b < 2:
                continue
            assert sub.v <= sub.b
            seen += 1

    def test_equality_forces_pencil_or_plane(self, plane_cache):
        rng = random.Random(99)
        g = plane_cache(4).geometry
        seen = 0
        while seen < 120:
            sub = random_subgeometry(g, rng)
            if sub.b < 2 or sub.v != sub.b:
                continue
            has_long_line = any(len(line) == sub.v - 1 for line in sub.lines)
            verdict = plane_check(sub)
            is_plane = verdict.first_def and verdict.second_def
            assert has_long_line != is_plane
            shape = classify_v_eq_b(sub)
            assert isinstance(shape, PencilWithTransversal) == has_long_line
            seen += 1

    def test_pairwise_meeting_forces_equality(self, plane_cache):
        # any two lines sharing a point pins v to b (given two lines exist)
        rng = random.Random(7)
        g = plane_cache(3).geometry
        seen = 0
        attempts = 0
        while seen < 40 and attempts < 10000:
            attempts += 1
            sub = random_subgeometry(g, rng)
            if sub.b < 2:
                continue
            sets = [set(line) for line in sub.lines]
            if any(a.isdisjoint(b) for a, b in combinations(sets, 2)):
                continue
            assert sub.v == sub.b
            seen += 1
        assert seen == 40


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 12)))
def test_fano_extension_restrictions_always_validate(points):
    # subgeometry re-runs full validation; reaching here means axioms held
    g = Geometry(
        13,
        (
            (0, 1, 2, 3),
            (0, 4, 5, 6),
            (0, 7, 8, 9),
            (0, 10, 11, 12),
            (1, 4, 7, 10),
            (1, 5, 8, 11),
            (1, 6, 9, 12),
            (2, 4, 8, 12),
            (2, 5, 9, 10),
            (2, 6, 7, 11),
            (3, 4, 9, 11),
            (3, 5, 7, 12),
            (3, 6, 8, 10),
        ),
    )
    sub = subgeometry(g, points)
    assert sub.v == len(points)
    if sub.b >= 2:
        assert sub.v <= sub.b

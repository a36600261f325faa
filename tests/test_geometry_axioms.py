"""The axiom check in Geometry against the pair-table oracle, on mutated line systems."""

import random
import tracemalloc
from collections import Counter

import pytest

from conftest import FANO_LINES
from oracles import geometry_axiom_violation
from pglatin.geometry import Geometry, GeometryError, validate_geometry
from pglatin.planes import build_pg2


def near_pencil(v):
    """A line through points 0..v-2 and a top point v-1 joined to each of them."""
    return v, [tuple(range(v - 1))] + [(p, v - 1) for p in range(v - 1)]


BASES = [
    (7, list(FANO_LINES)),
    (13, list(build_pg2(3).geometry.lines)),
    (21, list(build_pg2(4).geometry.lines)),
    near_pencil(4),
    near_pencil(6),
    near_pencil(9),
]


def mutate(v, lines, rng):
    """One random edit of the line system; returns the new point count and lines."""
    lines = [list(line) for line in lines]
    kind = rng.randrange(9)
    if not lines:
        kind = 8
    idx = rng.randrange(len(lines)) if lines else 0
    if kind == 0:  # drop a point
        if lines[idx]:
            lines[idx].remove(rng.choice(lines[idx]))
    elif kind == 1:  # add a point
        lines[idx].append(rng.randrange(v) if v else 0)
    elif kind == 2:  # duplicate a line
        lines.insert(rng.randrange(len(lines) + 1), list(lines[idx]))
    elif kind == 3:  # merge two lines
        other = rng.randrange(len(lines))
        if other != idx:
            lines[idx] = lines[idx] + lines[other]
            del lines[other]
    elif kind == 4:  # delete a line
        del lines[idx]
    elif kind == 5:  # shuffle the line order
        rng.shuffle(lines)
    elif kind == 6:  # add an out-of-range point
        lines[idx].append(rng.choice([-1, v, v + 3]))
    elif kind == 7:  # make a one-point line
        lines[idx] = lines[idx][:1] or [0]
    else:  # change the point count
        v = max(0, v + rng.choice([-1, 1]))
    return v, lines


def mutated_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        v, lines = rng.choice(BASES)
        for _ in range(rng.randint(1, 3)):
            v, lines = mutate(v, lines, rng)
        yield v, lines


def check_against_oracle(v, lines):
    """Geometry raises exactly the oracle's violation, or accepts when it has none."""
    expected = geometry_axiom_violation(v, lines)
    try:
        validate_geometry(v, lines)
    except GeometryError as exc:
        assert (exc.axiom, exc.witness, str(exc)) == expected, (v, lines)
        return exc.axiom
    assert expected is None, (v, lines)
    return None


def test_mutated_line_systems_agree_with_oracle():
    outcomes = Counter(check_against_oracle(v, lines) for v, lines in mutated_cases(2500, seed=20261018))
    # every axiom and the valid case are exercised, not just one failure mode
    assert set(outcomes) == {None, "point_out_of_range", "line_too_small", "pair_on_two_lines", "pair_on_no_line"}
    assert min(outcomes.values()) >= 50


@pytest.mark.parametrize(
    "v, lines",
    [
        (0, []),
        (1, []),
        (2, []),
        (5, [(0, 1)]),
        (3, [(0, 1), (1, 2), (0, 2), (0, 2)]),
        (4, [(2, 3), (0, 1, 2, 3), (0, 1)]),
        (3, [(0, 1, 2), (-1, 0)]),
        (3, [(1,), (0, 5)]),
    ],
)
def test_edge_cases_agree_with_oracle(v, lines):
    check_against_oracle(v, lines)


def test_no_lines_over_many_points_uses_little_memory():
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError) as exc:
            Geometry(10**6, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (exc.value.axiom, exc.value.witness) == ("pair_on_no_line", (0, 1))
    assert str(exc.value) == "points (0, 1) lie on no common line"
    assert peak < 2**20


def sparse_cases(count, seed):
    """Base line systems moved onto sparse labels in increasing order, then mutated.

    The point count runs up to 10**4 while only a few labels are used; label
    0 and label 1 are each left out now and then.
    """
    rng = random.Random(seed)
    for _ in range(count):
        base_v, base_lines = rng.choice(BASES)
        v = rng.choice([base_v + 1, 100, 10**4])
        labels = sorted(rng.sample(range(v), base_v))
        if rng.random() < 0.2:  # the lowest labels in use, so only the top ones are missing
            labels = list(range(base_v))
        lines = [tuple(labels[p] for p in line) for line in base_lines]
        for _ in range(rng.randint(0, 2)):
            v, lines = mutate(v, lines, rng)
        yield v, lines


def test_sparse_labels_agree_with_oracle():
    outcomes = Counter(check_against_oracle(v, lines) for v, lines in sparse_cases(600, seed=4))
    for axiom in ("point_out_of_range", "line_too_small", "pair_on_two_lines", "pair_on_no_line"):
        assert outcomes[axiom] >= 20


@pytest.mark.parametrize(
    "v, lines",
    [
        (10**4, [(1, 2), (2, 9999), (1, 9999)]),  # 0 on no line
        (10**4, [(0, 2), (2, 9999), (0, 9999)]),  # 1 on no line
        (10**4, [(0, 1, 5000), (1, 5000)]),  # a pair on two lines, far apart
        (10**4, [(0, 1), (0, 2), (1, 2), (3, 9998), (3, 9999)]),  # 0 joined to all below the gap
        (8, [(0, 1, 2, 3), (0, 5), (1, 5), (2, 5), (3, 5)]),  # 4 and 6 unused, 5 joined to every used point
    ],
)
def test_sparse_edge_cases_agree_with_oracle(v, lines):
    check_against_oracle(v, lines)


def test_far_point_label_uses_little_memory():
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError) as exc:
            Geometry(10**8, ((0, 10**8 - 1),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (exc.value.axiom, exc.value.witness) == ("pair_on_no_line", (0, 1))
    assert peak < 2**20

"""The three checks that run on row masks against the paths they shortcut.

- from_inc_text reads a canonical row in one int() call; every text must give
  the per-token reader's masks or its FormatError text.
- geometry_from_incidence runs the Geometry checks straight on the row masks;
  every matrix must give the constructor's geometry or its GeometryError.
- verify_mpls certifies a set with one pair scan over its rows' cell masks and
  compares square pairs only after a clash.
"""

import random
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import or_

from oracles import token_inc_masks
from pglatin import latin
from pglatin.binmat import BinaryMatrix, FormatError, from_inc_text, ones
from pglatin.geometry import (
    Geometry,
    GeometryError,
    geometry_from_incidence,
    incidence_from_geometry,
    subgeometry,
    validate_geometry,
)
from pglatin.latin import verify_mpls
from pglatin.planes import build_pg2
from samples import random_matrix, relabelled
from test_cli_fuzz import base_payloads, mutate
from test_geometry_axioms import near_pencil
from test_mpls_differential import square_sets


def read(text):
    try:
        return from_inc_text(text).masks, None
    except FormatError as exc:
        return None, str(exc)


def reader_texts():
    """The fuzz corpus, every short row over 0, 1, 2 and space, and named row shapes at wider orders."""
    rng = random.Random(20261019)
    bases = base_payloads()
    texts = list(bases)
    for _ in range(400):
        text = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2])):
            text = mutate(text, rng)
        texts.append(text)
    for cols in (1, 2, 3):
        canonical = " ".join("1" * cols)
        for length in range(2 * cols + 2):
            for row in map("".join, product("012 ", repeat=length)):
                texts += [f"1 {cols}\n{row}\n", f"2 {cols}\n{canonical}\n{row}"]
    for cols in (4, 7, 64):
        row = " ".join(rng.choice("01") for _ in range(cols))
        shapes = [
            row, row + " ", " " + row, row.replace(" ", "  ", 1), row[:-1] + " " + row[-1], row.replace(" ", "1", 1),
            row[:-1] + "10", row[:-1] + "2", row[:-1] + "01", "", row[:-1], row[:-2], row + "0", row + " 1",
        ]
        texts += [f"2 {cols}\n{row}\n{shape}\n" for shape in shapes]
    return texts


def test_fast_rows_read_as_the_token_reader_does():
    verdicts = Counter()
    for text in reader_texts():
        got = read(text)
        assert got == token_inc_masks(text), repr(text)
        verdicts["read" if got[1] is None else "refused"] += 1
    assert verdicts["read"] >= 300 and verdicts["refused"] >= 1000


def outcome(build):
    """('ok', v, lines, line masks) or ('error', axiom, witness, text) of a geometry built by build()."""
    try:
        g = build()
    except GeometryError as exc:
        return "error", exc.axiom, exc.witness, str(exc)
    return "ok", g.point_count, g.lines, g._line_masks


def plane_check_geometries(rng):
    """PG(2, q) for q in {2, 3, 4, 5, 7, 8, 9} with seeded subgeometries of each, and near-pencils with v <= 8."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        g = build_pg2(q).geometry
        yield g
        for k in range(300):
            if k % 3 == 0:  # a random point subset
                points = rng.sample(range(g.v), rng.randint(0, g.v))
            elif k % 3 == 1:  # the points of a few lines
                points = set().union(*rng.sample(g.lines, rng.randint(1, 4)))
            else:  # an affine plane, less a few points
                points = set(range(g.v)) - set(rng.choice(g.lines)) - set(rng.sample(range(g.v), rng.randint(0, 3)))
            yield subgeometry(g, points)
    for v in range(3, 9):
        yield validate_geometry(*near_pencil(v))


def malformed(m, rng):
    """m with one edit that breaks an axiom or leaves a column unused."""
    masks = list(m.masks)
    i, j = rng.randrange(m.rows), rng.randrange(m.rows)
    kind = rng.randrange(6)
    if kind == 0:  # clear a column
        column = rng.randrange(m.cols)
        masks = [mask & ~(1 << column) for mask in masks]
    elif kind == 1:  # a row with no one or a single one
        masks[i] = rng.choice([0, 1 << rng.randrange(m.cols)])
    elif kind == 2:  # a repeated row
        masks[j] = masks[i]
    elif kind == 3:  # a row gains a point of another, so the two may share two
        masks[i] |= masks[j] & -masks[j]
    elif kind == 4 and m.rows > 1:  # a dropped row leaves its pairs on no line
        del masks[i]
    else:  # a new empty column
        column = rng.randrange(m.cols + 1)
        low = (1 << column) - 1
        return BinaryMatrix.from_masks(m.cols + 1, [mask & low | (mask & ~low) << 1 for mask in masks])
    return BinaryMatrix.from_masks(m.cols, masks)


def test_mask_path_builds_the_constructors_geometry():
    rng = random.Random(20261020)
    matrices = [relabelled(incidence_from_geometry(g), rng) for g in plane_check_geometries(rng) if g.b and g.v]
    planes = [relabelled(build_pg2(q).incidence, rng) for q in (2, 3, 4, 5)]
    matrices += [malformed(rng.choice(planes), rng) for _ in range(400)]
    matrices += [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), rng.random()) for _ in range(400)]
    kinds = Counter()
    for m in matrices:
        got = outcome(lambda: geometry_from_incidence(m))
        assert got == outcome(lambda: Geometry(m.cols, tuple(tuple(ones(mask)) for mask in m.masks))), m.masks
        kinds[got[0] if got[0] == "ok" else got[1]] += 1
        kinds["unused column"] += reduce(or_, m.masks, 1) != (1 << m.cols) - 1
    assert kinds["ok"] >= 300 and kinds["unused column"] >= 100
    for axiom in ("line_too_small", "pair_on_two_lines", "pair_on_no_line"):
        assert kinds[axiom] >= 50, kinds


def test_square_sets_reach_both_branches(monkeypatch):
    compared = []
    disagreements = latin._disagreements

    def counted(a, b):
        compared.append((a, b))
        return disagreements(a, b)

    monkeypatch.setattr(latin, "_disagreements", counted)
    branches = Counter()
    for kind, s in square_sets(300, seed=20261018):
        compared.clear()
        report = verify_mpls(s)
        branches[kind, report.is_mpls] += 1
        if report.is_mpls:
            assert compared == [], kind
            continue
        # the scan stops in the first square with a violation; pairs before it are skipped
        first = min(int(violation.split()[3].rstrip(":")) for violation in report.violations)
        assert len(compared) == sum(j >= first for _, j in combinations(range(len(s.squares)), 2)), kind
    assert branches["intact", True] >= 20 and branches["random", True] >= 20 and branches["random", False] >= 20
    for kind in ("duplicated", "replaced", "transposed"):
        assert branches[kind, False] >= 10

"""Point-line geometries: axioms, plane tests, classification.

A geometry here is a finite set of points together with lines (point sets)
such that every pair of distinct points lies on exactly one common line and
every line carries at least two points.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .binmat import BinaryMatrix, FormatError, _pair_scan, _record, ones


class GeometryError(ValueError):
    """An axiom violation, carrying the failed rule and a witness."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


@_record
class Geometry:
    """Points 0..v-1 and lines given as sorted point tuples.

    Line order is preserved so lines can be addressed by index; equality and
    hashing ignore it and compare the line multiset.
    """

    point_count: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        v = self.point_count
        if v < 0:
            raise ValueError(f"point count must be nonnegative, got {v}")
        # masks hold the ranks of 0 and of the points on lines, so their size follows
        # the input, not the largest label
        used = sorted({0}.union(*self.lines))
        rank = {p: i for i, p in enumerate(used)}
        masks, stop = [], None
        for idx, line in enumerate(self.lines):
            if tuple(sorted(set(line))) != line:
                stop = ValueError(f"line {idx} must be a sorted duplicate-free tuple, got {line!r}")
            elif line and (line[0] < 0 or line[-1] >= v):  # the line is sorted
                p = next(p for p in line if not 0 <= p < v)
                message = f"line {idx} uses point {p}, valid range is 0..{v - 1}"
                stop = GeometryError("point_out_of_range", (idx, p), message)
            if stop:
                break
            masks.append(sum(1 << rank[p] for p in line))
        self._certify(used, masks, (map(rank.__getitem__, line) for line in self.lines), stop)

    def _certify(self, used: Sequence[int], masks: Sequence[int], ranks: Iterable, stop: Exception | None = None):
        """Check line sizes, then both pair axioms, on masks of ranks (rank r is point used[r], ranks[i]
        lists line i's), raising the first failure in line order; stop is the next line's error, if any."""
        v = self.point_count
        cut = next((idx for idx, mask in enumerate(masks) if mask.bit_count() < 2), len(masks))
        joined, clash = _pair_scan(len(used), zip(masks, ranks))
        if clash and clash[0] < cut:
            idx, i, j = clash
            first = next(k for k, m in enumerate(masks) if m >> i & m >> j & 1)
            pair = (used[i], used[j])
            raise GeometryError("pair_on_two_lines", pair, f"points {pair} lie on lines {first} and {idx}")
        if cut < len(masks):
            message = f"line {cut} has {masks[cut].bit_count()} points, need at least 2"
            raise GeometryError("line_too_small", cut, message)
        if stop:
            raise stop
        # below gap, the first label not in used, rank = label
        gap = next((i for i, p in enumerate(used) if p != i), len(used))
        for p in range(v - 1):
            # the lowest point above p not yet joined to it; no line holds gap,
            # so when gap < v the scan stops at p = 0
            missing = ~(joined[p] | (2 << p) - 1)
            q = min((missing & -missing).bit_length() - 1, gap)
            if q < v:
                raise GeometryError("pair_on_no_line", (p, q), f"points {(p, q)} lie on no common line")
        object.__setattr__(self, "_line_masks", tuple(masks))

    @property
    def v(self) -> int:
        return self.point_count

    @property
    def b(self) -> int:
        return len(self.lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.point_count == other.point_count and sorted(self.lines) == sorted(other.lines)

    def __hash__(self) -> int:
        return hash((self.point_count, tuple(sorted(self.lines))))


def validate_geometry(point_count: int, lines: Iterable[Iterable[int]]) -> Geometry:
    """Normalize raw line data and check both axioms, raising GeometryError on failure."""
    normalized = tuple(tuple(sorted(set(line))) for line in lines)
    return Geometry(point_count, normalized)


def geometry_from_incidence(m: BinaryMatrix) -> Geometry:
    """Read rows as lines over column-indexed points and validate the axioms, as Geometry does.

    The checks run straight on the row masks, labels serving as ranks. The constructor ranks only
    the labels in use, but with a column other than 0 unused both stop at the same first error.
    """
    g = object.__new__(Geometry)
    object.__setattr__(g, "point_count", m.cols)
    object.__setattr__(g, "lines", m.bits)
    g._certify(range(m.cols), m.masks, g.lines)
    return g


def incidence_from_geometry(g: Geometry) -> BinaryMatrix:
    """Inverse of geometry_from_incidence up to index order."""
    if g.b < 1 or g.point_count < 1:
        raise ValueError("incidence matrix needs at least one line and one point")
    return BinaryMatrix.from_masks(g.point_count, g._line_masks)


def line_through(g: Geometry, p: int, q: int) -> tuple[int, ...]:
    """The unique line containing the two distinct points p and q."""
    if p == q:
        raise ValueError(f"need two distinct points, got {p} twice")
    for x in (p, q):
        if not 0 <= x < g.point_count:
            raise ValueError(f"point {x} outside 0..{g.point_count - 1}")
    return next(line for line, mask in zip(g.lines, g._line_masks) if mask >> p & mask >> q & 1)


def subgeometry(g: Geometry, points: Iterable[int]) -> Geometry:
    """Restrict g to a point subset, keeping every trace of size at least two.

    Points are relabelled 0..k-1 in increasing order of their original
    index. The result is validated from scratch; an empty or singleton
    subset simply yields a geometry with no lines.
    """
    chosen = sorted(set(points))
    for p in chosen:
        if not 0 <= p < g.point_count:
            raise ValueError(f"point {p} outside 0..{g.point_count - 1}")
    relabel = {p: i for i, p in enumerate(chosen)}
    lines = []
    for line in g.lines:
        trace = tuple(relabel[p] for p in line if p in relabel)
        if len(trace) >= 2:
            lines.append(trace)
    return validate_geometry(len(chosen), lines)


def find_four_independent(g: Geometry) -> tuple[int, int, int, int] | None:
    """Four points with no three on a common line, or None.

    With v >= 4 there is none exactly when some line holds v - 1 points or
    more, which settles None in O(b). Such a line takes three of any four
    points. Otherwise take a longest line L: if it has two points, so does
    every line and any four points will do; if more, it misses two points
    r, s, the line rs meets L at most once, and two points p, q of L off
    it give the independent p, q, r, s.

    Two distinct lines meet in at most one point, so two spare points on
    each give such a quadruple directly. The search is also complete: for
    any independent a, b, c, d the lines ab and cd meet off all four, so
    the pair of lines ab, cd has two spare points each.
    """
    v = g.point_count
    if v < 4 or any(mask.bit_count() >= v - 1 for mask in g._line_masks):
        return None
    for a, b in combinations(g._line_masks, 2):
        spare_a, spare_b = ones(a & ~b)[:2], ones(b & ~a)[:2]
        if len(spare_a) == 2 and len(spare_b) == 2:
            return tuple(sorted(spare_a + spare_b))  # type: ignore[return-value]
    return None


@_record
class PlaneVerdict:
    """Outcomes of the two equivalent projective-plane tests.

    first_def: regular, uniform, r = k, and four independent points exist.
    second_def: any two distinct lines meet, and four independent points
    exist. order is k - 1 and present only when both hold.

    Two lines of a validated geometry share at most one point, so all b
    lines meet pairwise exactly when sum(r_p * (r_p - 1)) = b * (b - 1),
    r_p being the number of lines through point p.
    """

    first_def: bool
    second_def: bool
    order: int | None


def plane_check(g: Geometry) -> PlaneVerdict:
    # four independent points imply v >= 4 and b >= 2, so neither set below is empty
    degrees = [0] * g.point_count
    for line in g.lines:
        for p in line:
            degrees[p] += 1
    sizes = {mask.bit_count() for mask in g._line_masks}
    quad = find_four_independent(g)
    first = quad is not None and len(sizes) == 1 and set(degrees) == sizes
    second = quad is not None and sum(r * (r - 1) for r in degrees) == g.b * (g.b - 1)
    order = None
    if first and second:
        order = sizes.pop() - 1
        if g.v != g.b or g.v != order * order + order + 1:
            raise RuntimeError(
                f"plane of order {order} must have {order * order + order + 1} points and lines, "
                f"got v={g.v}, b={g.b}"
            )
    return PlaneVerdict(first, second, order)


@_record
class PencilWithTransversal:
    """All points but one sit on the transversal line; the top point joins
    each of them by a two-point line."""

    top: int
    transversal: tuple[int, ...]


@_record
class ProjectivePlane:
    order: int


def classify_v_eq_b(g: Geometry) -> PencilWithTransversal | ProjectivePlane:
    """Sort a geometry with as many lines as points into one of two shapes.

    Requires b >= 2 and v = b. A line carrying all points but one forces
    the pencil shape; otherwise the geometry must pass both plane tests.
    """
    if g.b < 2:
        raise ValueError(f"classification needs at least two lines, got b={g.b}")
    if g.v != g.b:
        raise ValueError(f"classification needs v = b, got v={g.v}, b={g.b}")
    for line in g.lines:
        if len(line) == g.v - 1:
            top = (set(range(g.point_count)) - set(line)).pop()
            return PencilWithTransversal(top, line)
    verdict = plane_check(g)
    if not (verdict.first_def and verdict.second_def):
        raise RuntimeError(
            "geometry with v = b is neither pencil-with-transversal nor plane; "
            "impossible for validated input"
        )
    assert verdict.order is not None
    return ProjectivePlane(verdict.order)


def incident_injection(g: Geometry) -> dict[int, int]:
    """Assign every point a distinct line through it (requires b >= 2).

    Returned as a point -> line-index map, found by maximum matching on
    the incidence relation; with at least two lines such an assignment
    always exists, so failure raises RuntimeError.
    """
    if g.b < 2:
        raise ValueError(f"injection needs at least two lines, got b={g.b}")
    from .matching import bipartite_matching
    # every point lies on a line, so line masks hold point labels; the transpose lists each point's lines in order
    lines_through = BinaryMatrix.from_masks(g.point_count, g._line_masks).transpose()
    assignment = bipartite_matching(lines_through.bits, g.b)
    if any(c < 0 for c in assignment):
        raise RuntimeError("no full point-to-line assignment found; impossible for b >= 2")
    return {p: line for p, line in enumerate(assignment)}


# JSON form: {"points": v, "lines": [[indices], ...]} with 0-based indices


def geometry_to_json(g: Geometry) -> dict:
    return {"points": g.point_count, "lines": [list(line) for line in g.lines]}


def geometry_from_json(obj: Mapping) -> Geometry:
    if not isinstance(obj, Mapping):
        raise FormatError("geometry JSON must be an object")
    if set(obj.keys()) != {"points", "lines"}:
        raise FormatError("geometry JSON must have exactly the keys 'points' and 'lines'")
    points = obj["points"]
    lines = obj["lines"]
    if not isinstance(points, int) or isinstance(points, bool):
        raise FormatError("'points' must be an integer")
    if not isinstance(lines, Sequence) or isinstance(lines, (str, bytes)):
        raise FormatError("'lines' must be an array")
    for line in lines:
        if not isinstance(line, Sequence) or isinstance(line, (str, bytes)):
            raise FormatError("each line must be an array of point indices")
        for p in line:
            if not isinstance(p, int) or isinstance(p, bool):
                raise FormatError("point indices must be integers")
    return validate_geometry(points, [list(line) for line in lines])

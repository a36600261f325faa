import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pglatin import BinaryMatrix, Geometry, LatinSquare, MplsSet, build_pg2, canonicalize, matching
from pglatin.geometry import incidence_from_geometry

# Fano plane on points 0..6, lines listed in canonical block order
FANO_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))

# four points on a line plus a top point joined to each by a 2-point line
NEAR_PENCIL_LINES = ((0, 1, 2), (0, 3), (1, 3), (2, 3))

# a known complete set of order 5, used throughout as a worked example
ORDER5_ROWS = (
    ((1, 2, 3, 4, 5), (4, 1, 5, 3, 2), (5, 3, 1, 2, 4), (2, 5, 4, 1, 3), (3, 4, 2, 5, 1)),
    ((1, 3, 4, 5, 2), (5, 1, 2, 4, 3), (2, 4, 1, 3, 5), (3, 2, 5, 1, 4), (4, 5, 3, 2, 1)),
    ((1, 4, 5, 2, 3), (2, 1, 3, 5, 4), (3, 5, 1, 4, 2), (4, 3, 2, 1, 5), (5, 2, 4, 3, 1)),
    ((1, 5, 2, 3, 4), (3, 1, 4, 2, 5), (4, 2, 1, 5, 3), (5, 4, 3, 1, 2), (2, 3, 5, 4, 1)),
)


@pytest.fixture
def search_only(monkeypatch):
    """Send every one-sided matrix down the bounded per-cell search, however few rows or columns it has."""
    monkeypatch.setattr(matching, "_SHORT_SIDE", 0)


@pytest.fixture(scope="session")
def fano() -> Geometry:
    return Geometry(7, FANO_LINES)


@pytest.fixture(scope="session")
def fano_incidence(fano) -> BinaryMatrix:
    return incidence_from_geometry(fano)


@pytest.fixture(scope="session")
def near_pencil() -> Geometry:
    return Geometry(4, NEAR_PENCIL_LINES)


@pytest.fixture(scope="session")
def order5_squares() -> tuple[LatinSquare, ...]:
    return tuple(LatinSquare(rows) for rows in ORDER5_ROWS)


@pytest.fixture(scope="session")
def order5_set(order5_squares) -> MplsSet:
    return MplsSet(5, order5_squares)


@pytest.fixture(scope="session")
def plane_cache():
    """Shared PG(2, q) bundles so repeated tests do not rebuild them."""
    cache = {}

    def get(q: int):
        if q not in cache:
            cache[q] = build_pg2(q)
        return cache[q]

    return get


@pytest.fixture(scope="session")
def canonical_cache(plane_cache):
    cache = {}

    def get(q: int):
        if q not in cache:
            cache[q] = canonicalize(plane_cache(q).incidence)
        return cache[q]

    return get

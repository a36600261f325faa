"""Projective planes PG(2, q) over small finite fields, plus incidence conversion."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .binmat import BinaryMatrix, ones
from .geometry import Geometry, validate_geometry

DEFAULT_MAX_ORDER = 32


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Write q as p**k with p prime, or return None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return (q, 1)
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


# polynomials over Z_p as coefficient tuples, lowest power first, trimmed


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a divided by m; m must be monic."""
    rem = list(a)
    dm = len(m) - 1
    while len(rem) - 1 >= dm and any(rem):
        lead = rem[-1] % p
        if lead == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - dm
        for i, c in enumerate(m):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def _monic_polys(p: int, degree: int):
    for lower in product(range(p), repeat=degree):
        yield tuple(lower) + (1,)


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Exhaustive factor check for a monic polynomial over Z_p."""
    degree = len(coeffs) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(p, d):
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of the given degree in coefficient order.

    Candidates x**degree + c are scanned with the non-leading coefficients
    read as a base-p number, smallest first.
    """
    for m in range(p**degree):
        digits = []
        rest = m
        for _ in range(degree):
            digits.append(rest % p)
            rest //= p
        candidate = tuple(digits) + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise RuntimeError(f"no irreducible of degree {degree} over Z_{p}; this cannot happen")


@dataclass(frozen=True)
class FiniteField:
    """Arithmetic in GF(p^k) on integer-encoded elements.

    Element e stands for the polynomial whose coefficients are the base-p
    digits of e, least significant first. Addition and multiplication
    tables are built eagerly and the inverse table is cross-checked at
    construction, so lookups afterwards cannot fail silently.
    """

    characteristic: int
    degree: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        p, k = self.characteristic, self.degree
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"degree must be positive, got {k}")
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}, got {self.modulus!r}")
        if any(not 0 <= c < p for c in self.modulus):
            raise ValueError(f"modulus coefficients must sit in 0..{p - 1}")
        if not is_irreducible(self.modulus, p):
            raise ValueError(f"modulus {self.modulus!r} is reducible over Z_{p}")
        q = p**k
        add = []
        mul = []
        for a in range(q):
            pa = self._decode(a)
            add_row = []
            mul_row = []
            for b in range(q):
                pb = self._decode(b)
                add_row.append(self._encode([(x + y) % p for x, y in zip(pa, pb)]))
                mul_row.append(self._encode(_poly_mod(_poly_mul(_poly_trim(list(pa)), _poly_trim(list(pb)), p), self.modulus, p)))
            add.append(tuple(add_row))
            mul.append(tuple(mul_row))
        inv: list[int | None] = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise RuntimeError(f"element {a} has no inverse; modulus cannot be irreducible")
        object.__setattr__(self, "_add_table", tuple(add))
        object.__setattr__(self, "_mul_table", tuple(mul))
        object.__setattr__(self, "_inv_table", tuple(x if x is not None else 0 for x in inv))

    @property
    def order(self) -> int:
        return self.characteristic**self.degree

    def _decode(self, e: int) -> list[int]:
        digits = []
        for _ in range(self.degree):
            digits.append(e % self.characteristic)
            e //= self.characteristic
        return digits

    def _encode(self, coeffs) -> int:
        value = 0
        for c in reversed(list(coeffs) + [0] * (self.degree - len(coeffs))):
            value = value * self.characteristic + c
        return value

    def _check(self, *elements: int) -> None:
        for e in elements:
            if not 0 <= e < self.order:
                raise ValueError(f"element {e} outside 0..{self.order - 1}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        p = self.characteristic
        return self._encode([(p - c) % p for c in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._inv_table[a]


def build_field(q: int) -> FiniteField:
    """GF(q) with the smallest-modulus convention; q must be a prime power."""
    if q > DEFAULT_MAX_ORDER:
        raise ValueError(f"order {q} exceeds the configured bound {DEFAULT_MAX_ORDER}")
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = pk
    return FiniteField(p, k, smallest_irreducible(p, k))


@dataclass(frozen=True)
class PlaneBundle:
    geometry: Geometry
    incidence: BinaryMatrix
    order: int


def build_pg2(q: int) -> PlaneBundle:
    """The classical projective plane of order q from homogeneous triples.

    Points and lines are the nonzero triples over GF(q) scaled so their
    first nonzero coordinate is one, listed in lexicographic order; point
    x sits on line a exactly when a0*x0 + a1*x1 + a2*x2 = 0. Incidence
    rows are lines, columns are points.
    """
    field = build_field(q)
    triples = sorted(
        t for t in product(range(q), repeat=3) if any(t) and t[next(i for i, c in enumerate(t) if c)] == 1
    )
    # every coordinate is a field element, so the tables need no range checks
    add, mul = field._add_table, field._mul_table
    lines = []
    for a0, a1, a2 in triples:
        m0, m1, m2 = mul[a0], mul[a1], mul[a2]
        lines.append([j for j, (x0, x1, x2) in enumerate(triples) if not add[add[m0[x0]][m1[x1]]][m2[x2]]])
    geometry = validate_geometry(len(triples), lines)
    return PlaneBundle(geometry, incidence_from_geometry(geometry), q)


def geometry_from_incidence(m: BinaryMatrix) -> Geometry:
    """Read rows as lines over column-indexed points and validate the axioms."""
    return validate_geometry(m.cols, map(ones, m.masks))


def incidence_from_geometry(g: Geometry) -> BinaryMatrix:
    """Inverse of geometry_from_incidence up to index order."""
    if g.b < 1 or g.point_count < 1:
        raise ValueError("incidence matrix needs at least one line and one point")
    return BinaryMatrix.from_masks(g.point_count, g._line_masks)

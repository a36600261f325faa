"""Projective planes PG(2, q) over small finite fields."""

from __future__ import annotations

from itertools import product

from .binmat import BinaryMatrix, _record
from .geometry import Geometry, geometry_from_incidence

DEFAULT_MAX_ORDER = 32


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


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


def _monic_polys(p: int, degree: int):
    """Monic polynomials of the given degree, the lower coefficients read as a base-p number, smallest first."""
    for lower in product(range(p), repeat=degree):
        yield lower[::-1] + (1,)


def _field_tables(p: int, modulus: tuple[int, ...]):
    """Addition, product and inverse tables of Z_p[x]/(modulus), modulus monic; None if that ring is no field.

    Elements are encoded as in FiniteField. a + b has the low digit
    (a + b) % p under the digits of (a // p) + (b // p). Each product row
    follows from an earlier one: e*b = (e - 1)*b + b when e's lowest digit
    is nonzero, else e*b = x*((e // p)*b); x shifts the digits up one place,
    and the digit carried out at x^k is cancelled with the modulus. The ring
    is a field, and the modulus irreducible, exactly when every nonzero
    product row holds a 1; a's inverse is its column in row a.
    """
    k = len(modulus) - 1
    q = p**k
    add = [tuple(range(q))]
    for a in range(1, q):
        high = add[a // p]
        add.append(tuple(high[b // p] * p + (a + b) % p for b in range(q)))
    # x^k = -(m_0 + ... + m_{k-1} x^(k-1)): x*v is v's lower digits shifted up plus carry[top digit]
    top = p ** (k - 1)
    carry = [sum(-t * c % p * p**i for i, c in enumerate(modulus[:-1])) for t in range(p)]
    mul = [(0,) * q]
    for e in range(1, q):
        if e % p:
            mul.append(tuple(add[v][b] for b, v in enumerate(mul[e - 1])))
        else:
            mul.append(tuple(add[v % top * p][carry[v // top]] for v in mul[e // p]))
    if any(1 not in row for row in mul[1:]):
        return None
    return tuple(add), tuple(mul), (0,) + tuple(row.index(1) for row in mul[1:])


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether a monic polynomial over Z_p, p prime (FiniteField's domain), is irreducible; non-monic is outside it."""
    return len(coeffs) > 1 and _field_tables(p, coeffs) is not None


def smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of the given degree in _monic_polys order."""
    for candidate in _monic_polys(p, degree):
        if is_irreducible(candidate, p):
            return candidate
    raise RuntimeError(f"no irreducible of degree {degree} over Z_{p}; this cannot happen")


@_record
class FiniteField:
    """Arithmetic in GF(p^k) on integer-encoded elements.

    Element e is the polynomial with e's base-p digits as coefficients,
    lowest first; _field_tables builds the tables eagerly, so lookups
    afterwards cannot fail silently.
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
        tables = _field_tables(p, self.modulus)
        if tables is None:
            raise ValueError(f"modulus {self.modulus!r} is reducible over Z_{p}")
        for name, table in zip(("_add_table", "_mul_table", "_inv_table"), tables):
            object.__setattr__(self, name, table)

    @property
    def order(self) -> int:
        return self.characteristic**self.degree

    def _check(self, *elements: int) -> None:
        for e in elements:
            if not 0 <= e < self.order:
                raise ValueError(f"element {e} outside 0..{self.order - 1}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._add_table[a].index(0)

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


@_record
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

    Each line's row mask is built directly and geometry_from_incidence
    certifies the matrix. The triples rank in closed form: (0,0,1) is 0,
    (0,1,z) is 1 + z and (1,y,z) is 1 + q + y*q + z. If a2 != 0, each
    prefix (x0, x1) sets the bit of the one point with
    z = -(a0*x0 + a1*x1)/a2; if a2 = 0, the mask holds bit 0, the point
    (0,0,1), and the whole q-bit block of each prefix with a0*x0 + a1*x1 = 0.
    """
    field = build_field(q)
    # every coordinate is a field element, so the tables need no range checks
    add, mul, inv = field._add_table, field._mul_table, field._inv_table
    prefixes = [(0, 1)] + [(1, y) for y in range(q)]
    triples = [(0, 0, 1)] + [(x0, x1, z) for x0, x1 in prefixes for z in range(q)]
    block = (1 << q) - 1
    masks = []
    for a0, a1, a2 in triples:
        sums = [add[mul[a0][x0]][mul[a1][x1]] for x0, x1 in prefixes]
        if a2:
            solve = mul[field.neg(inv[a2])]
            masks.append(sum(1 << 1 + i * q + solve[s] for i, s in enumerate(sums)))
        else:
            masks.append(1 | sum(block << 1 + i * q for i, s in enumerate(sums) if not s))
    incidence = BinaryMatrix.from_masks(len(triples), masks)
    return PlaneBundle(geometry_from_incidence(incidence), incidence, q)

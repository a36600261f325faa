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


# polynomials over Z_p as coefficient tuples, lowest power first, trimmed


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
    """Monic polynomials of the given degree, the lower coefficients read as a base-p number, smallest first."""
    for lower in product(range(p), repeat=degree):
        yield lower[::-1] + (1,)


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
    """The first monic irreducible of the given degree in _monic_polys order."""
    for candidate in _monic_polys(p, degree):
        if is_irreducible(candidate, p):
            return candidate
    raise RuntimeError(f"no irreducible of degree {degree} over Z_{p}; this cannot happen")


@_record
class FiniteField:
    """Arithmetic in GF(p^k) on integer-encoded elements.

    Element e stands for the polynomial whose coefficients are the base-p
    digits of e, least significant first. Addition and multiplication
    tables are built eagerly, so lookups afterwards cannot fail silently.
    Addition is digit-wise mod p. Each product row follows from an earlier
    one: e*b = (e - 1)*b + b when the lowest digit of e is nonzero, and
    e*b = x*((e // p)*b) otherwise. Multiplying by x shifts the digits up
    one place, and the digit carried out at x^k is cancelled with the
    monic modulus. The inverse of a is the column holding 1 in row a.
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
        digits = [self._decode(e) for e in range(q)]
        add = tuple(tuple(self._encode([(x + y) % p for x, y in zip(da, db)]) for db in digits) for da in digits)
        # x^k = -(m_0 + ... + m_{k-1} x^(k-1)): x*v is v's lower digits shifted up plus carry[top digit]
        top = p ** (k - 1)
        carry = [self._encode([-t * c % p for c in self.modulus[:-1]]) for t in range(p)]
        mul = [(0,) * q]
        for e in range(1, q):
            if e % p:
                mul.append(tuple(add[v][b] for b, v in enumerate(mul[e - 1])))
            else:
                mul.append(tuple(add[v % top * p][carry[v // top]] for v in mul[e // p]))
        object.__setattr__(self, "_add_table", add)
        object.__setattr__(self, "_mul_table", tuple(mul))
        object.__setattr__(self, "_inv_table", (0,) + tuple(row.index(1) for row in mul[1:]))

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

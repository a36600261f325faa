from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FANO_LINES
from pglatin.binmat import BinaryMatrix
from pglatin.geometry import Geometry, GeometryError, geometry_from_incidence, incidence_from_geometry, plane_check
from pglatin.planes import (
    FiniteField,
    build_field,
    build_pg2,
    is_irreducible,
    is_prime,
    prime_power,
    smallest_irreducible,
)


def monic_polys(p, degree):
    """Every monic polynomial of the given degree over Z_p, as a coefficient tuple lowest power first."""
    return [lower + (1,) for lower in product(range(p), repeat=degree)]


def reducible_polys(p, degree):
    """The monic polynomials of the given degree that are a product of two monic ones of positive degree.

    An oracle for is_irreducible: schoolbook products of every pair of
    factor degrees, no division.
    """
    found = set()
    for d in range(1, degree // 2 + 1):
        for f in monic_polys(p, d):
            for g in monic_polys(p, degree - d):
                out = [0] * (degree + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        out[i + j] = (out[i + j] + x * y) % p
                found.add(tuple(out))
    return found


def irreducible_polys(p, degree):
    reducible = reducible_polys(p, degree)
    return [m for m in monic_polys(p, degree) if m not in reducible]


# the degrees checked against the product oracle, per characteristic
ORACLE_DEGREES = {2: 6, 3: 3, 5: 2, 7: 2}


class TestPrimePower:
    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        for n in range(-5, 10_001):
            assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n

    def test_prime_power_factors(self):
        assert prime_power(2) == (2, 1)
        assert prime_power(4) == (2, 2)
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)
        assert prime_power(16) == (2, 4)
        assert prime_power(25) == (5, 2)
        assert prime_power(27) == (3, 3)
        assert prime_power(32) == (2, 5)

    def test_non_prime_powers(self):
        for q in (0, 1, 6, 10, 12, 15, 100):
            assert prime_power(q) is None


class TestIrreducibles:
    def test_known_reducible(self):
        # x^2 + 1 = (x + 1)^2 over Z_2
        assert not is_irreducible((1, 0, 1), 2)
        assert is_irreducible((0, 1), 5)

    def test_known_irreducible(self):
        assert is_irreducible((1, 1, 1), 2)
        assert is_irreducible((1, 0, 1), 3)

    def test_oracle_counts(self):
        # Gauss's count of monic irreducibles, (1/n) * sum over d | n of mu(d) * p**(n/d), pins the oracle itself
        counts = {p: [len(irreducible_polys(p, d)) for d in range(1, top + 1)] for p, top in ORACLE_DEGREES.items()}
        assert counts == {2: [2, 1, 2, 3, 6, 9], 3: [3, 3, 8], 5: [5, 10], 7: [7, 21]}

    @pytest.mark.parametrize("p", sorted(ORACLE_DEGREES))
    def test_matches_product_oracle(self, p):
        for degree in range(1, ORACLE_DEGREES[p] + 1):
            reducible = reducible_polys(p, degree)
            for m in monic_polys(p, degree):
                assert is_irreducible(m, p) == (m not in reducible), (p, m)

    @pytest.mark.parametrize("p", sorted(ORACLE_DEGREES))
    def test_reducible_moduli_rejected(self, p):
        for degree in range(2, ORACLE_DEGREES[p] + 1):
            for m in sorted(reducible_polys(p, degree)):
                with pytest.raises(ValueError) as caught:
                    FiniteField(p, degree, m)
                assert str(caught.value) == f"modulus {m!r} is reducible over Z_{p}"

    def test_smallest_choices(self):
        # non-leading coefficients read as a base-p number, smallest wins; the modulus fixes
        # every .inc byte of PG(2, p**k), so every p**k <= 64 with k >= 2 is pinned
        assert smallest_irreducible(2, 2) == (1, 1, 1)
        assert smallest_irreducible(2, 3) == (1, 1, 0, 1)
        assert smallest_irreducible(3, 2) == (1, 0, 1)
        assert smallest_irreducible(2, 4) == (1, 1, 0, 0, 1)
        assert smallest_irreducible(5, 2) == (2, 0, 1)
        assert smallest_irreducible(3, 3) == (1, 2, 0, 1)
        assert smallest_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)
        assert smallest_irreducible(7, 2) == (1, 0, 1)
        assert smallest_irreducible(2, 6) == (1, 1, 0, 0, 0, 0, 1)


class TestFiniteField:
    def test_prime_field_is_modular(self):
        f = build_field(5)
        for a in range(5):
            for b in range(5):
                assert f.add(a, b) == (a + b) % 5
                assert f.mul(a, b) == (a * b) % 5

    def test_gf4_table(self):
        # elements 0, 1, x, x+1 encoded 0..3 with x^2 = x + 1
        f = build_field(4)
        assert f.mul(2, 2) == 3
        assert f.mul(2, 3) == 1
        assert f.add(2, 3) == 1
        assert f.inv(2) == 3 and f.inv(3) == 2

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_field_axioms(self, q):
        f = build_field(q)
        elements = range(q)
        for a in elements:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in elements:
            for b in elements:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elements:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    def test_sub(self):
        f = build_field(9)
        for a in range(9):
            for b in range(9):
                assert f.add(f.sub(a, b), b) == a

    def test_element_range_checks(self):
        f = build_field(4)
        with pytest.raises(ValueError):
            f.add(0, 4)
        with pytest.raises(ValueError):
            f.inv(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FiniteField(4, 1, (0, 1))
        with pytest.raises(ValueError):
            FiniteField(2, 2, (1, 1))
        with pytest.raises(ValueError):
            FiniteField(2, 2, (1, 0, 1))

    def test_build_field_rejections(self):
        with pytest.raises(ValueError):
            build_field(6)
        with pytest.raises(ValueError):
            build_field(37)
        # the bound is checked before the order is factored
        with pytest.raises(ValueError, match="exceeds the configured bound 32"):
            build_field(2**61 - 1)


class TestBuildPg2:
    def test_order_two_is_the_fano_plane(self, plane_cache):
        bundle = plane_cache(2)
        assert bundle.geometry == Geometry(7, FANO_LINES)
        # exact row order of the lexicographic construction
        assert bundle.geometry.lines == (
            (1, 3, 5),
            (0, 3, 4),
            (2, 3, 6),
            (0, 1, 2),
            (1, 4, 6),
            (0, 5, 6),
            (2, 4, 5),
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_counts_and_regularity(self, q, plane_cache):
        bundle = plane_cache(q)
        n = q * q + q + 1
        assert bundle.order == q
        assert bundle.geometry.v == n and bundle.geometry.b == n
        assert set(bundle.incidence.row_sums()) == set(bundle.incidence.col_sums()) == {q + 1}
        verdict = plane_check(bundle.geometry)
        assert verdict.first_def and verdict.second_def and verdict.order == q

    def test_incidence_matches_geometry(self, plane_cache):
        bundle = plane_cache(3)
        assert geometry_from_incidence(bundle.incidence).lines == bundle.geometry.lines
        assert incidence_from_geometry(bundle.geometry) == bundle.incidence

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_pg2(6)
        with pytest.raises(ValueError):
            build_pg2(1)
        with pytest.raises(ValueError):
            build_pg2(64)


class TestIncidenceConversion:
    def test_round_trip(self, fano, fano_incidence):
        assert geometry_from_incidence(fano_incidence) == fano
        assert incidence_from_geometry(fano) == fano_incidence

    def test_invalid_incidence_rejected(self):
        with pytest.raises(GeometryError):
            geometry_from_incidence(BinaryMatrix.from_rows([[1, 0], [0, 1]]))
        with pytest.raises(GeometryError):
            geometry_from_incidence(BinaryMatrix.ones(2, 2))

    def test_lineless_geometry_has_no_incidence(self):
        with pytest.raises(ValueError):
            incidence_from_geometry(Geometry(1, ()))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]), st.randoms(use_true_random=False))
def test_field_power_associativity(q, rnd):
    f = build_field(q)
    a = rnd.randrange(q)
    b = rnd.randrange(q)
    c = rnd.randrange(q)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

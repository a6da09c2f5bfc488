"""Field arithmetic and polynomial helpers."""

import random
import time

import pytest

from lrcodes.errors import DivisionByZero, DuplicateAbscissa, NotAPrimePower, UnsupportedField
from lrcodes.field import (
    _IRREDUCIBLE,
    Field,
    lagrange_weights,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_trim,
)


def _poly2_deg(f):
    return f.bit_length() - 1


def _poly2_mod(a, b):
    while a and _poly2_deg(a) >= _poly2_deg(b):
        a ^= b << (_poly2_deg(a) - _poly2_deg(b))
    return a


def gf2_mul(a, b, modulus):
    """Carry-less product of a and b reduced by *modulus*: the bit-serial
    reference for GF(2^e) multiplication, independent of the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return _poly2_mod(acc, modulus)


def gf2_pow(a, n, modulus):
    acc = 1
    while n:
        if n & 1:
            acc = gf2_mul(acc, a, modulus)
        a = gf2_mul(a, a, modulus)
        n >>= 1
    return acc


def reference_mul(q, a, b):
    """a*b in GF(q) without the library's arithmetic."""
    e = q.bit_length() - 1
    if e < 2 or q != 1 << e:
        return a * b % q
    return gf2_mul(a, b, _IRREDUCIBLE[e])


def _first_irreducible(e):
    # trial division over GF(2)[x]; constant term must be 1
    f = (1 << e) + 1
    while True:
        if all(_poly2_mod(f, g) for g in range(2, 1 << (e // 2 + 1))):
            return f
        f += 2


def test_modulus_table_matches_independent_derivation():
    for e in range(2, 17):
        assert _IRREDUCIBLE[e] == _first_irreducible(e)


def test_field_construction_rejects_bad_orders():
    for q in (12, 1, 6, 100):
        with pytest.raises(NotAPrimePower):
            Field(q)
    # odd prime powers, not only squares of primes (81 = 9^2, 27 = 3^3)
    for q in (9, 27, 81, 125, 243, 3**10):
        with pytest.raises(UnsupportedField, match="odd-characteristic"):
            Field(q)
    with pytest.raises(UnsupportedField):
        Field(1 << 17)
    with pytest.raises(UnsupportedField):
        Field(65537)  # prime above the cap


def test_field_refuses_huge_orders_before_trial_division():
    # 2^61 - 1 is prime: trial division alone would take 2^30 steps
    start = time.perf_counter()
    for q in (10**18 + 3, 2**61 - 1, 2**64, 3**40):
        with pytest.raises(UnsupportedField, match="exceeds 2\\^16"):
            Field(q)
    assert time.perf_counter() - start < 1.0


def test_gf13_basics():
    F = Field(13)
    assert F.characteristic == 13 and F.extension_degree == 1
    assert F.add(7, 9) == 3
    assert F.sub(3, 7) == 9
    assert F.mul(5, 8) == 1
    assert F.inv(5) == 8
    assert F.neg(4) == 9
    assert F.pow(4, 4) == 9  # 256 mod 13
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_gf16_basics():
    F = Field(16)
    assert F.characteristic == 2 and F.extension_degree == 4
    assert F.modulus == 0x13  # x^4 + x + 1
    assert F.add(5, 3) == 6
    assert F.mul(2, 2) == 4  # x * x = x^2
    assert F.mul(8, 2) == 3  # x^4 = x + 1
    assert F.mul(3, 3) == 5  # (x+1)^2 = x^2 + 1
    for a in range(1, 16):
        assert F.mul(a, F.inv(a)) == 1


def test_gf256_aes_inverse_pair():
    # the degree-8 modulus is the AES polynomial, so known AES facts hold
    F = Field(256)
    assert F.modulus == 0x11B
    assert F.mul(0x53, 0xCA) == 1
    assert F.inv(0x53) == 0xCA


@pytest.mark.parametrize("q", [2, 3, 5, 13, 17, 251, 257, 4, 8, 16, 64, 256])
def test_field_axioms(q):
    F = Field(q)
    rng = random.Random(q)
    elems = list(range(q))
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if b:
            assert F.mul(F.div(a, b), b) == a
    for a in elems:
        assert F.mul(a, 1) == a
        assert F.add(a, 0) == a
        assert F.pow(a, 0) == 1
    if q <= 64:
        # Fermat: a^q = a for every element
        for a in elems:
            assert F.pow(a, q) == a


@pytest.mark.parametrize("e", range(2, 17))
def test_binary_scalar_ops_match_reference(e):
    q, modulus = 1 << e, _IRREDUCIBLE[e]
    F = Field(q)
    rng = random.Random(e)
    xs = [0, 1, 2, q - 1] + [rng.randrange(q) for _ in range(36)]
    for a in xs:
        for b in xs:
            assert F.mul(a, b) == gf2_mul(a, b, modulus)
            if b:
                assert gf2_mul(F.div(a, b), b, modulus) == a
        # 0^0 = 1, and exponents at and beyond the group order q - 1
        for n in (0, 1, 2, 3, q - 2, q - 1, q, q + 1, 3 * q + 5, rng.randrange(q, 1 << 40)):
            assert F.pow(a, n) == gf2_pow(a, n, modulus)
    # every inverse up to GF(2^10), the sample beyond
    for a in range(1, q) if e <= 10 else [x for x in xs if x]:
        assert gf2_mul(a, F.inv(a), modulus) == 1
    assert F.pow(0, 0) == 1 and F.pow(0, q - 1) == 0
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(1, 0)


def test_poly_helpers():
    F = Field(13)
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_mul(F, [], [1, 2]) == []
    # (x + 1)(x + 2) = x^2 + 3x + 2
    assert poly_mul(F, [1, 1], [2, 1]) == [2, 3, 1]
    assert poly_from_roots(F, [7, 9]) == [11, 10, 1]  # x^2 + 10x + 11
    assert poly_eval(F, [11, 10, 1], 7) == 0
    assert poly_eval(F, [11, 10, 1], 9) == 0
    assert poly_eval(F, [11, 10, 1], 4) == 2
    assert poly_eval(F, [], 5) == 0


@pytest.mark.parametrize("q", [13, 16, 17, 256])
def test_interpolation_round_trip(q):
    F = Field(q)
    rng = random.Random(100 + q)
    for _ in range(250):
        npts = rng.randrange(1, min(q, 9))
        xs = rng.sample(range(q), npts)
        coeffs = poly_trim([rng.randrange(q) for _ in range(npts)])
        x0 = rng.randrange(q)
        weights = lagrange_weights(F, xs, x0)
        value = 0
        for w, x in zip(weights, xs):
            value = F.add(value, F.mul(w, poly_eval(F, coeffs, x)))
        assert value == poly_eval(F, coeffs, x0)


def test_interpolation_rejects_duplicates():
    F = Field(13)
    with pytest.raises(DuplicateAbscissa):
        lagrange_weights(F, [4, 4, 5], 0)

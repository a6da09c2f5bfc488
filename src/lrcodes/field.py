"""Exact arithmetic over GF(p) and GF(2^e), plus univariate polynomial utilities.

Field elements are plain Python ints in [0, q), in canonical form: the
residue mod p for prime fields, the coefficient bit pattern for binary
extension fields.  Polynomials are lists of such ints, lowest degree
first, with no trailing zeros; the zero polynomial is the empty list.

Vector arithmetic lives here too: reduce_vec, add_vec, mul_vec, div_vec
(by one element, an elimination step's pivot), isub_mul and matmul act
on integer numpy arrays, and poly_eval_vec evaluates a polynomial at an
array of points.  Prime fields compute in int64 and reduce mod p (every
product of two residues below 2^16 fits).  GF(2^e) gathers from
log/antilog tables (built on first use, cached per degree, never read by
the scalar methods); matmul XOR-reduces bounded slices of the inner index.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    DuplicateAbscissa,
    NotAFieldElement,
    NotAPrimePower,
    UnsupportedField,
)

MAX_ORDER = 1 << 16
_SLICE_SYMBOLS = 1 << 16  # products per slice of a GF(2^e) matmul

# Smallest irreducible binary polynomial of each degree, as a coefficient
# bit mask (bit i = coefficient of x^i).  Degree 8 is the familiar 0x11B.
_IRREDUCIBLE = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
}


def _prime_factors(n: int) -> list[int]:
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


class Field:
    """GF(p) for prime p <= 2^16, or GF(2^e) for 2 <= e <= 16.

    Instances are immutable and freely shareable; every operation is a
    pure function of its arguments.
    """

    __slots__ = ("order", "characteristic", "extension_degree", "modulus")

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise NotAPrimePower(f"field order must be an integer >= 2, got {q!r}")
        # before the trial division, which would take ~sqrt(q) steps
        if q > MAX_ORDER:
            raise UnsupportedField(f"field order {q} exceeds 2^16")
        factors = _prime_factors(q)
        if factors == [q]:
            p, e, modulus = q, 1, None
        elif factors == [2]:
            e = q.bit_length() - 1
            p, modulus = 2, _IRREDUCIBLE[e]
        elif len(factors) == 1:
            raise UnsupportedField(f"odd-characteristic extension field {q} not supported")
        else:
            raise NotAPrimePower(f"{q} is not a prime or a power of two")
        self.order = q
        self.characteristic = p
        self.extension_degree = e
        self.modulus = modulus

    def __repr__(self) -> str:
        if self.extension_degree == 1:
            return f"Field(GF({self.order}))"
        return f"Field(GF(2^{self.extension_degree}), modulus={self.modulus:#x})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self.order == other.order

    def __hash__(self) -> int:
        return hash(("Field", self.order))

    def check(self, a: int) -> int:
        """Validate that *a* is a canonical element of this field (an int,
        not a bool, in [0, q))."""
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise NotAFieldElement(f"{a!r} is not an element of GF({self.order})")
        return a

    # -- arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        return (a + b) % self.characteristic

    def sub(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        return (a - b) % self.characteristic

    def neg(self, a: int) -> int:
        if self.characteristic == 2:
            return a
        return (-a) % self.characteristic

    def mul(self, a: int, b: int) -> int:
        if self.extension_degree == 1:
            return (a * b) % self.characteristic
        # carry-less multiply, reducing as we go to keep ints small
        e, modulus = self.extension_degree, self.modulus
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            if a >> e:
                a ^= modulus
            b >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in GF({self.order})")
        if self.extension_degree == 1:
            return pow(a, self.characteristic - 2, self.characteristic)
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        """a**n by square-and-multiply; a**0 = 1 for every a, including 0."""
        if n < 0:
            raise ValueError("negative exponent; invert explicitly instead")
        if self.extension_degree == 1:
            return pow(a, n, self.characteristic) if n else 1
        acc = 1
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    # -- vector arithmetic on integer numpy arrays ----------------------
    #
    # Inputs hold canonical elements unless a method says otherwise: a
    # negative entry would index the log table from its end.  Shapes
    # broadcast as in numpy.

    def reduce_vec(self, a: np.ndarray) -> np.ndarray:
        """A new array of the canonical elements congruent to the int64
        array *a* (GF(2^e) entries are always canonical: this copies)."""
        if self.extension_degree == 1:
            return a % self.characteristic
        return a.copy()

    def add_vec(self, a, b) -> np.ndarray:
        """Elementwise sum."""
        if self.characteristic == 2:
            return np.bitwise_xor(a, b)
        return (np.asarray(a, dtype=np.int64) + b) % self.characteristic

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product."""
        if self.extension_degree == 1:
            # int64 without casting whole inputs first; reduced in place
            out = np.multiply(a, b, dtype=np.int64)
            out %= self.characteristic
            return out
        log, exp = binary_log_tables(self.extension_degree)
        return exp[log[a] + log[b]]

    def div_vec(self, a: np.ndarray, b: int) -> np.ndarray:
        """Elementwise quotient of the int64 array *a* by the element *b*.

        A zero *b* raises DivisionByZero.  GF(p) takes *a* unreduced too,
        as long as |a| * p < 2^63.  GF(2^e) divides by log subtraction,
        skipping the scalar inverse's exponentiation.
        """
        if self.extension_degree == 1:
            return a * self.inv(b) % self.characteristic
        if b == 0:
            raise DivisionByZero(f"division by zero in GF({self.order})")
        log, exp = binary_log_tables(self.extension_degree)
        return exp[log[a] + (self.order - 1 - int(log[b]))]

    def isub_mul(self, a: np.ndarray, b, c) -> None:
        """a -= b*c in place, for canonical b and c: the row operation of
        elimination.

        GF(2^e) keeps *a* canonical.  GF(p) leaves it unreduced (each call
        moves an entry by less than p^2 < 2^32), so elimination can reduce
        once at the end with reduce_vec instead of after every step.
        """
        if self.extension_degree == 1:
            a -= b * c
        else:
            np.bitwise_xor(a, self.mul_vec(b, c), out=a)

    def matmul(self, A, B) -> np.ndarray:
        """A @ B over the field for 2-D arrays, as an int64 array.  GF(2^e)
        XOR-reduces exp[log a + log b] in uint16 over slices of the inner
        index of at most _SLICE_SYMBOLS products (about 384 KiB of int32
        sums and uint16 values), or of one index when that alone holds more."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
        if self.extension_degree == 1:
            # K * (p-1)^2 stays below 2^63 for any inner size K < 2^31
            return A @ B % self.characteristic
        log, exp = binary_log_tables(self.extension_degree)
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint16)
        step = max(1, _SLICE_SYMBOLS // max(1, out.size))
        for s in range(0, A.shape[1], step):
            terms = exp[log[A[:, s : s + step, None]] + log[B[None, s : s + step, :]]]
            out ^= np.bitwise_xor.reduce(terms, axis=1)
        return out.astype(np.int64)


def smallest_primitive(F: Field) -> int:
    """Smallest element generating the multiplicative group of F: the
    first g with g^((q-1)/f) != 1 for every prime factor f of q-1."""
    order = F.order - 1
    factors = _prime_factors(order)
    return next(
        g for g in range(1, F.order) if all(F.pow(g, order // f) != 1 for f in factors)
    )


def _times_scalar(a: np.ndarray, b: int, e: int, modulus: int) -> np.ndarray:
    """Every entry of *a* times *b* in GF(2^e), bit-serially (table-free)."""
    acc = np.zeros_like(a)
    while b:
        if b & 1:
            acc ^= a
        a = a << 1
        a ^= (a >> e) * modulus
        b >>= 1
    return acc


@lru_cache(maxsize=None)
def binary_log_tables(e: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (log, exp) tables of GF(2^e) under its fixed modulus.

    exp[i] = g^i for g = smallest_primitive(Field(2^e)), repeated
    over [0, 2(q-1)) and zero on [2(q-1), 4(q-1)].  log[0] = 2(q-1), so
    exp[log[a] + log[b]] is the product a*b for every pair, zeros
    included, with no branch.
    For GF(2^16) that is 256 KiB of int32 logs and 512 KiB of uint16.
    """
    F = Field(1 << e)
    order, g = F.order - 1, smallest_primitive(F)
    exp = np.zeros(4 * order + 1, dtype=np.uint16)
    exp[0] = 1
    size, step = 1, g  # step is always g ** size
    while size < order:
        n = min(size, order - size)
        # int32 leaves room for the shift in the bit-serial product
        exp[size : size + n] = _times_scalar(exp[:n].astype(np.int32), step, e, F.modulus)
        size += n
        step = F.mul(step, step)
    exp[order : 2 * order] = exp[:order]
    log = np.empty(order + 1, dtype=np.int32)
    log[exp[:order]] = np.arange(order, dtype=np.int32)
    log[0] = 2 * order
    log.flags.writeable = False
    exp.flags.writeable = False
    return log, exp


# -- polynomials ------------------------------------------------------


def poly_trim(coeffs: Sequence[int]) -> list[int]:
    """Normalize: strip trailing zero coefficients."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(F: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(out)


def poly_eval(F: Field, p: Sequence[int], x: int) -> int:
    """Horner evaluation of p at x: the scalar reference for poly_eval_vec."""
    acc = 0
    for c in reversed(p):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_eval_vec(F: Field, p: Sequence[int], xs: np.ndarray) -> np.ndarray:
    """Horner evaluation of p at every entry of the array xs."""
    acc = np.zeros(xs.shape, dtype=np.int64)
    for c in reversed(p):
        acc = F.add_vec(F.mul_vec(acc, xs), c)
    return acc


def poly_from_roots(F: Field, roots: Sequence[int]) -> list[int]:
    """Monic polynomial whose root set is exactly *roots* (with multiplicity)."""
    acc: list[int] = [1]
    for rt in roots:
        acc = poly_mul(F, acc, [F.neg(rt), 1])
    return acc


def lagrange_weights(F: Field, xs: Sequence[int], x0: int) -> list[int]:
    """The weights lam with sum_j lam[j] * f(xs[j]) = f(x0) for every
    polynomial f of degree < len(xs): lam[j] = prod_{l != j} (x0 - x_l) / (x_j - x_l).

    Raises DuplicateAbscissa when two points coincide.
    """
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"repeated x coordinate in {list(xs)}")
    weights = []
    for xj in xs:
        num, den = 1, 1
        for xl in xs:
            if xl != xj:
                num = F.mul(num, F.sub(x0, xl))
                den = F.mul(den, F.sub(xj, xl))
        weights.append(F.div(num, den))
    return weights

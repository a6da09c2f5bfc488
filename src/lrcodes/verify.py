"""Independent brute-force oracles for every claim a built code makes.

Nothing here trusts the construction: the stored generator matrix is
compared with the construction's polynomials evaluated directly,
distance from enumerating the whole message space up to scalar
multiples (one message per class of nonzero multiples), dimension and
erasure tolerance from the same walk (G has rank k exactly when no
nonzero message encodes to the zero word, and every d - 1 erasures
decode exactly when no nonzero codeword has weight below d), locality
from checking that each repair group's columns of the generator matrix
obey the Lagrange weights that repair uses, shortening from the k unit
messages' polynomials (degree at most the parent's cap, zeros on the
dropped points).  Every oracle is exact.  Enumeration is budget-gated;
a report is either complete or the run aborts with BudgetExceeded.

Codeword batches are computed with the field's numpy kernels
(Field.mul_vec, Field.matmul, Field.add_vec): prime fields reduce int64
products mod p, binary fields gather from log/antilog tables of O(q)
size, so no object here grows with q^2.  The distance search keeps its
table of low-message words as uint16 and compares candidates with it
rather than adding to it, capped at DEFAULT_CHUNK_CAP symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .bounds import predicted_distance
from .construction import CodeSpec, degree_cap, slot_polynomials
from .errors import BudgetExceeded
from .field import Field, lagrange_weights
from .repair import locate_group

DEFAULT_CHUNK_CAP = 1 << 20
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class VerificationReport:
    """One verdict per oracle.  enumerated_words is q^k - 1, the number
    of nonzero codewords whose weight the distance search decides (it
    walks one of every q - 1 of them, the others being their multiples)."""

    rank_ok: bool
    generator_ok: bool
    distance_found: int
    distance_expected: int
    locality_ok: bool
    shortening_ok: bool
    erasure_ok: bool
    enumerated_words: int

    @property
    def all_ok(self) -> bool:
        return (
            self.rank_ok
            and self.generator_ok
            and self.locality_ok
            and self.shortening_ok
            and self.erasure_ok
            and self.distance_found == self.distance_expected
        )


# -- the stored generator matrix ---------------------------------------


def _unit_words(F: Field, slots: list[list[int]], points: Sequence[int]) -> np.ndarray:
    """k x len(points) array: row i holds the values at *points* of unit
    message i's polynomial, slots[i] of slot_polynomials (G is never read).

    One F.matmul of the k x D slot-coefficient matrix with the D x
    len(points) Vandermonde matrix of the points, D the longest slot."""
    D = max(len(slot) for slot in slots)
    coeffs = np.zeros((len(slots), D), dtype=np.int64)
    for i, slot in enumerate(slots):
        coeffs[i, : len(slot)] = slot
    xs = np.array(points, dtype=np.int64)
    powers = [np.ones_like(xs)]
    for _ in range(D - 1):
        powers.append(F.mul_vec(powers[-1], xs))
    return F.matmul(coeffs, np.array(powers))


def generator_matches(spec: CodeSpec) -> bool:
    """Whether each row of G is its unit message's codeword by the
    polynomial path: assemble the polynomial, evaluate it at the n points.

    encode and decode both use G, so a G that differs from the
    construction round-trips cleanly; only this check sees it.
    """
    return _generator_matches(spec, slot_polynomials(spec))


def _generator_matches(spec: CodeSpec, slots: list[list[int]]) -> bool:
    return np.array_equal(_unit_words(spec.field, slots, spec.eval_points), spec.G)


# -- distance by exhaustive enumeration --------------------------------


def brute_force_distance(spec: CodeSpec, budget: int) -> int:
    """Exact minimum weight over all q^k - 1 nonzero codewords.

    Scaling a codeword by c != 0 keeps its weight, so one message per
    scalar class decides all of them: the (q^k - 1)/(q - 1) messages
    whose highest nonzero digit is 1 (see minimum_weight_word).  The
    budget still gates q^k, the size of the space whose minimum this is.
    Memory stays within about DEFAULT_CHUNK_CAP symbols for any q and n,
    and the answer does not depend on the cap (it only shapes the batches).
    """
    weight, _ = minimum_weight_word(spec, budget)
    return weight


def minimum_weight_word(spec: CodeSpec, budget: int) -> tuple[int, list[int]]:
    """Minimum nonzero weight and one message achieving it, normalised
    so that its highest nonzero digit is 1.

    For each position top of that digit, the digits above it are 0 and
    those below it are free.  Digits 0..L-1 are the low digits, digit 0
    turning fastest, with L = min(k - 1, the largest L with
    q^L * n <= DEFAULT_CHUNK_CAP); only digits L..top-1 are walked, one
    combination at a time.  A walked combination's high part h adds to
    each low word w, and h + w has weight n minus the number of
    coordinates where w equals -h, so the walk compares with the low
    words and never adds to them.

    Digits 0..L-2 come from one table of the words of all q^(L-1) of
    their messages, stored transposed as one uint16 row per coordinate
    (every supported field's elements fit) and built one digit at a
    time in int64: the columns of digit d = v are the first q^d columns
    plus v * G[d].  Its first q^min(top, L-1) columns are exactly the
    messages with no digit at or above that position, so every top
    reads a prefix of the same table.  Digit L-1, the fan, is never
    tabulated: once top >= L, each combination compares the table with
    -(h + v * G[L-1]) for every fan value v at once, in the order the
    q^L-column table of digits 0..L-1 would have.  When even digit 0's
    q words exceed the cap (L = 1), the fan values are taken in slices
    of DEFAULT_CHUNK_CAP // n.
    """
    F = spec.field
    p = spec.params
    q, k, n = p.q, p.k, p.n
    if q**k > budget:
        raise BudgetExceeded(
            f"distance search over q^k words needs budget >= {q**k}, got {budget}"
        )
    G = spec.G
    low = min(1, k - 1)
    while low < k - 1 and q ** (low + 1) * n <= DEFAULT_CHUNK_CAP:
        low += 1
    # column i holds the word of the message with digits (i // q^d) % q
    table = np.zeros((n, q ** max(low - 1, 0)), dtype=np.uint16)
    for d in range(low - 1):
        block = F.mul_vec(G[d][:, None, None], np.arange(q)[:, None])
        table[:, : q ** (d + 1)] = F.add_vec(block, table[:, None, : q**d]).reshape(n, -1)
    # k = 1 has no fan digit; more than one slice only when low = 1
    fans = q if low else 1
    step = max(1, DEFAULT_CHUNK_CAP // (n * table.shape[1]))
    best_w, best_m = n + 1, None
    for start in range(0, fans, step):
        values = np.arange(start, min(start + step, fans))
        fan_words = F.mul_vec(G[low - 1][:, None], values) if low else None
        for top in range(k):
            lo = min(top, low)
            fanned = 0 < lo == low
            if start and not fanned:
                continue
            # digits below lo (below the fan when fanned) from the table's prefix
            cols = table if fanned else table[:, : q**lo]
            for walked in product(range(q), repeat=top - lo):
                high = np.array([walked + (1,)], dtype=np.int64)
                words = F.matmul(high, G[lo : top + 1]).T
                if fanned:
                    words = F.add_vec(words, fan_words)
                targets = F.mul_vec(words, F.neg(1)).astype(np.uint16)
                differs = cols[:, None, :] != targets[:, :, None]
                weights = np.count_nonzero(differs, axis=0).ravel()
                i = int(weights.argmin())
                if weights[i] < best_w:
                    best_w = int(weights[i])
                    v, w = divmod(i, cols.shape[1])
                    digits = [w // q**d % q for d in range(lo - fanned)] + [start + v] * fanned
                    best_m = digits + list(walked) + [1] + [0] * (k - 1 - top)
    assert best_m is not None
    return best_w, best_m


# -- locality -----------------------------------------------------------


def verify_locality(spec: CodeSpec) -> bool:
    """Whether every coordinate of the stored G is the Lagrange combination
    of its repair group's helpers, with the weights repair_local uses.

    The known zeros of the short group have no column and contribute
    nothing.  One coordinate per repair group of spec.groups, its first,
    is enough: on the r+1 points of a block the polynomials of degree
    <= r-1 satisfy exactly one linear relation, sum_j w_j f(x_j) = 0
    with the barycentric weights w_j = 1/prod_{l != j}(x_j - x_l), and
    the Lagrange relation of every coordinate in the block is a multiple
    of it.
    """
    F = spec.field
    G = spec.G
    for j0, *cols in spec.groups:
        _, helpers, zeros = locate_group(spec, j0 + 1)
        weights = lagrange_weights(F, helpers + zeros, spec.eval_points[j0])
        combo = F.matmul(G[:, cols], np.array(weights[: len(cols)])[:, None])
        if not np.array_equal(combo[:, 0], G[:, j0]):
            return False
    return True


# -- shortening ---------------------------------------------------------


def verify_shortening(spec: CodeSpec) -> bool:
    """Whether every message embeds into the parent code: its polynomial
    has degree <= degree_cap (the parent's cap) and vanishes on the
    dropped points B.

    Both conditions are linear in the message, so the k unit messages'
    polynomials, slot_polynomials(spec), decide them for all q^k
    messages: each slot's coefficients above the cap must be zero, and
    its values at the t points of B must be zero.
    """
    return _shortening_holds(spec, slot_polynomials(spec))


def _shortening_holds(spec: CodeSpec, slots: list[list[int]]) -> bool:
    cap = degree_cap(spec.params)
    above_cap = any(any(slot[cap + 1 :]) for slot in slots)
    return not above_cap and not np.count_nonzero(_unit_words(spec.field, slots, spec.partition.B))


def run_verification(spec: CodeSpec, budget: int) -> VerificationReport:
    """All oracles against one spec.  The distance walk runs first and
    refuses a budget shortfall before any work, so a returned report
    always covers everything.

    rank_ok and erasure_ok are read off the distance walk, which decides
    the weight of every one of the q^k messages' words:
    - one of them is zero for a nonzero message exactly when G has rank
      below k;
    - a set E of erased coordinates fails to decode exactly when two
      messages agree outside E, that is when some nonzero codeword is
      zero outside E and so has weight <= |E|.  Every d - 1 erasures
      therefore decode exactly when the distance is >= d.  A G of rank
      below k has distance_found 0, so erasure_ok is False with rank_ok.
    """
    p = spec.params
    d = predicted_distance(p)
    distance = brute_force_distance(spec, budget)
    slots = slot_polynomials(spec)
    return VerificationReport(
        rank_ok=distance > 0,
        generator_ok=_generator_matches(spec, slots),
        distance_found=distance,
        distance_expected=d,
        locality_ok=verify_locality(spec),
        shortening_ok=_shortening_holds(spec, slots),
        erasure_ok=distance >= d,
        enumerated_words=p.q**p.k - 1,
    )

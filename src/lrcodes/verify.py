"""Independent brute-force oracles for every claim a built code makes.

Nothing here trusts the construction: the stored generator matrix is
compared with the construction's polynomials evaluated directly,
distance comes from enumerating the whole message space, locality from
checking that each repair group's columns of the generator matrix obey
the Lagrange weights that repair uses, shortening from the k unit
messages' parent words (zeros on the dropped points, and the parent's
parity check built from the same Lagrange weights), erasure tolerance
from exhaustive pattern decoding.  Only the erasure oracle samples (one
random message per pattern, from its seed); the others are exact.
Enumeration is budget-gated; a report is either complete or the run
aborts with BudgetExceeded.

Codeword batches are computed with the field's numpy kernels
(Field.matmul, Field.add_vec): prime fields reduce int64 products mod
p, binary fields gather from log/antilog tables of O(q) size, so no
object here grows with q^2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Sequence

import numpy as np

from .bounds import predicted_distance
from .construction import CodeSpec, assemble_polynomial, encode
from .errors import BudgetExceeded, Unrecoverable
from .field import lagrange_weights, poly_eval_vec
from .linalg import rank as _rank
from .repair import apply_erasures, decode_erasures, erasure_pattern, locate_group

DEFAULT_CHUNK_CAP = 1 << 20


@dataclass(frozen=True)
class VerificationReport:
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


def _unit_words(spec: CodeSpec, points: Sequence[int]) -> np.ndarray:
    """k x len(points) array: row i holds the values at *points* of unit
    message i's polynomial from assemble_polynomial (G is never read)."""
    k = spec.params.k
    xs = np.array(points, dtype=np.int64)
    rows = []
    for row in range(k):
        unit = [0] * k
        unit[row] = 1
        rows.append(poly_eval_vec(spec.field, assemble_polynomial(unit, spec), xs))
    return np.array(rows, dtype=np.int64)


def generator_matches(spec: CodeSpec) -> bool:
    """Whether each row of G is its unit message's codeword by the
    polynomial path: assemble the polynomial, evaluate it at the n points.

    encode and decode both use G, so a G that differs from the
    construction round-trips cleanly; only this check sees it.
    """
    return np.array_equal(_unit_words(spec, spec.eval_points), np.array(spec.G, dtype=np.int64))


# -- distance by exhaustive enumeration --------------------------------


def brute_force_distance(
    spec: CodeSpec, budget: int, chunk_cap: int = DEFAULT_CHUNK_CAP
) -> int:
    """Exact minimum weight over all q^k - 1 nonzero codewords.

    Messages are enumerated digit by digit: the low digits are expanded
    into one table of at most chunk_cap symbols (codewords times n), the
    high digits are walked one combination at a time and broadcast
    against that table.  When even one digit's q codewords exceed the
    cap, that digit's table is built and walked in slices of
    chunk_cap // n codewords, so memory stays bounded for any q and n.
    The answer does not depend on chunk_cap (it only shapes the batches).
    """
    weight, _ = minimum_weight_word(spec, budget, chunk_cap)
    return weight


def minimum_weight_word(
    spec: CodeSpec, budget: int, chunk_cap: int = DEFAULT_CHUNK_CAP
) -> tuple[int, list[int]]:
    """Minimum nonzero weight and one message achieving it."""
    F = spec.field
    p = spec.params
    q, k, n = p.q, p.k, p.n
    total = q**k
    if total > budget:
        raise BudgetExceeded(f"distance search needs budget >= {total} (q^k), got {budget}")
    G = np.array(spec.G, dtype=np.int64)
    # digits 0..low-1 go into the in-memory table, the rest are walked
    low = 1
    while low < k and q ** (low + 1) * n <= chunk_cap:
        low += 1
    rows = max(1, chunk_cap // n)
    best_w, best_m = n + 1, None
    # more than one slice only when a single digit's table exceeds the cap
    for start in range(0, q**low, rows):
        # row i encodes the message whose digit d is ((start + i) // q^d) % q
        low_msgs = np.arange(start, min(start + rows, q**low))[:, None] // q ** np.arange(low) % q
        table = F.matmul(low_msgs, G[:low])
        # reversed, so the lowest high digit turns fastest
        for rev_high in product(range(q), repeat=k - low):
            high = rev_high[::-1]
            base = F.matmul(np.array([high], dtype=np.int64), G[low:])
            weights = np.count_nonzero(F.add_vec(base, table), axis=1)
            if start == 0 and not any(high):
                weights[0] = n + 1  # the all-zero message does not count
            i = int(weights.argmin())
            if weights[i] < best_w:
                best_w = int(weights[i])
                best_m = low_msgs[i].tolist() + list(high)
    assert best_m is not None
    return best_w, best_m


# -- locality -----------------------------------------------------------


def verify_locality(spec: CodeSpec) -> bool:
    """Whether every coordinate of the stored G is the Lagrange combination
    of its repair group's helpers, with the weights repair_local uses.

    The known zeros of the short group have no column and contribute
    nothing.  One coordinate per repair group is enough: on the r+1
    points of a block the polynomials of degree <= r-1 satisfy exactly
    one linear relation, sum_j w_j f(x_j) = 0 with the barycentric
    weights w_j = 1/prod_{l != j}(x_j - x_l), and the Lagrange relation
    of every coordinate in the block is a multiple of it.
    """
    F = spec.field
    G = np.array(spec.G, dtype=np.int64)
    pos = {alpha: j for j, alpha in enumerate(spec.eval_points)}
    dropped = set(spec.partition.B)
    for block in spec.partition.blocks:
        x0 = next(x for x in block if x not in dropped)
        _, helpers, zeros = locate_group(spec, pos[x0] + 1)
        weights = lagrange_weights(F, helpers + zeros, x0)
        cols = [pos[x] for x in helpers]
        combo = F.matmul(G[:, cols], np.array(weights[: len(cols)])[:, None])
        if not np.array_equal(combo[:, 0], G[:, pos[x0]]):
            return False
    return True


# -- shortening ---------------------------------------------------------


def verify_shortening(spec: CodeSpec) -> bool:
    """Whether every message embeds into the parent code: its polynomial
    vanishes on the dropped points B, and its values on all n_bar block
    points interpolate to degree <= k' + ceil(k'/r) - 2 (the parent cap).

    Both conditions are linear in the message, so the k unit messages
    decide them for all q^k messages.  The degree test is the parity
    check of the parent: with weights w_j proportional to the barycentric
    1/prod_{l != j}(x_j - x_l), values y on the n_bar distinct points x
    have an interpolant of degree <= cap iff sum_j w_j x_j^e y_j = 0 for
    e = 0 .. n_bar - 2 - cap.
    """
    F = spec.field
    p = spec.params
    points = [x for block in spec.partition.blocks for x in block]
    words = _unit_words(spec, points)
    dropped = set(spec.partition.B)
    if np.count_nonzero(words[:, [j for j, x in enumerate(points) if x in dropped]]):
        return False
    cap = p.k_prime + -(-p.k_prime // p.r) - 2
    # lambda_j = -w_j / w_last predicts the last point from the others
    row = np.array(lagrange_weights(F, points[:-1], points[-1]) + [F.neg(1)], dtype=np.int64)
    x = np.array(points, dtype=np.int64)
    dual = []
    # the rate bound k <= n - m keeps cap <= n_bar - 2: at least one row
    for _ in range(len(points) - 1 - cap):
        dual.append(row)
        row = F.mul_vec(row, x)
    return not np.count_nonzero(F.matmul(words, np.array(dual).T))


# -- erasure decoding ---------------------------------------------------


def exhaustive_erasure_test(
    spec: CodeSpec, e: int, budget: int = 10**6, seed: int = 0
) -> bool:
    """Whether every e-subset of coordinates can be erased and decoded.

    Each pattern is tried on a fresh random codeword; any Unrecoverable
    or wrong round-trip makes the answer False.
    """
    p = spec.params
    patterns = comb(p.n, e)
    if patterns > budget:
        raise BudgetExceeded(f"erasure test needs budget >= {patterns} patterns, got {budget}")
    rng = random.Random(seed)
    for subset in combinations(range(1, p.n + 1), e):
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        received = apply_erasures(encode(msg, spec), erasure_pattern(spec, subset))
        try:
            if decode_erasures(spec, received) != msg:
                return False
        except Unrecoverable:
            return False
    return True


def run_verification(spec: CodeSpec, budget: int, seed: int = 0) -> VerificationReport:
    """All oracles against one spec.  Budget shortfalls raise before any
    check runs, so a returned report always covers everything."""
    p = spec.params
    d = predicted_distance(p)
    if p.q**p.k > budget:
        raise BudgetExceeded(f"distance search needs budget >= {p.q ** p.k} (q^k), got {budget}")
    if comb(p.n, d - 1) > budget:
        raise BudgetExceeded(
            f"erasure check needs budget >= {comb(p.n, d - 1)} patterns, got {budget}"
        )
    return VerificationReport(
        rank_ok=_rank(spec.field, spec.G) == p.k,
        generator_ok=generator_matches(spec),
        distance_found=brute_force_distance(spec, budget),
        distance_expected=d,
        locality_ok=verify_locality(spec),
        shortening_ok=verify_shortening(spec),
        erasure_ok=exhaustive_erasure_test(spec, d - 1, budget, seed),
        enumerated_words=p.q**p.k - 1,
    )

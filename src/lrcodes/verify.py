"""Independent brute-force oracles for every claim a built code makes.

Nothing here trusts the construction: the stored generator matrix is
checked row by row against the slot recurrences (each row the values
of g_tilde or h_B, by Horner on the stored coefficients, or an earlier
row times x or g_tilde(x)), distance from enumerating the whole message
space up to scalar multiples (one message per class of nonzero
multiples), dimension and erasure tolerance from the same walk (G has
rank k exactly when no nonzero message encodes to the zero word, and
every d - 1 erasures decode exactly when no nonzero codeword has weight
below d), locality from checking that each repair group's columns of
the generator matrix obey the Lagrange weights that repair uses,
shortening from the slots' structure (each has a factor g_tilde or
h_B, both zero on the dropped points, and a degree at most the
parent's cap).  Every oracle is exact.  Enumeration is budget-gated;
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

import numpy as np

from .bounds import predicted_distance
from .construction import CodeSpec, degree_cap
from .errors import BudgetExceeded
from .field import lagrange_weights, poly_eval_vec, poly_trim
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


def generator_matches(spec: CodeSpec) -> bool:
    """Whether each row of G is its slot's values at the n points:
    x^i * g_tilde(x)^j for a-slot (i, j), x^b * h_B(x) for b-slot b.

    g_tilde(x) and h_B(x) come from Horner on the stored coefficients.
    Rows (0, 1) and b-slot 0 must equal them; every other row must be
    an earlier row times x ((i - 1, j) for i >= 1, b-slot b - 1) or
    times g_tilde(x) ((0, j - 1)), which by induction makes every row
    its slot's values.  All k comparisons take one F.mul_vec over the
    stacked predecessors: O(k n).  A G of another shape or with a
    symbol outside the field fails, and so does a layout whose slots do
    not chain this way (message_layout's always do).

    encode and decode both use G, so a G that differs from the
    construction round-trips cleanly; only this check sees it.
    """
    F, layout, p = spec.field, spec.layout, spec.params
    G = spec.G
    if G.shape != (p.k, p.n) or G.min() < 0 or G.max() >= F.order:
        return False
    # stacked row 0 is the constant 1, row s + 1 is slot s; multipliers
    # 0, 1 and 2 are x, g_tilde(x) and h_B(x)
    row = {slot: s + 1 for s, slot in enumerate(layout.a_slots)}
    row[0, 0] = 0
    steps = [(row.get((i - 1, j)), 0) if i else (row.get((0, j - 1)), 1) for i, j in layout.a_slots]
    steps += [(len(layout.a_slots) + b, 0) if b else (0, 2) for b in range(layout.b_count)]
    if any(pred is None for pred, _ in steps):
        return False
    preds, mults = zip(*steps)
    x = np.array(spec.eval_points, dtype=np.int64)
    stacked = np.vstack([np.ones_like(x), G])
    factors = np.array([x, poly_eval_vec(F, spec.good.g_tilde, x), poly_eval_vec(F, spec.h_B, x)])
    return np.array_equal(F.mul_vec(stacked[list(preds)], factors[list(mults)]), G)


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

    Both conditions are linear in the message, so the k slot polynomials
    decide them for all q^k messages, and their structure decides them
    without forming one: a-slot (i, j) is x^i * g_tilde^j and b-slot b
    is x^b * h_B.  Every a-slot has j >= 1 and g_tilde vanishes on B,
    and h_B vanishes on B, so every slot does; the largest slot degree,
    from the trimmed g_tilde and h_B, is at most the cap.  g_tilde is
    evaluated only when some a-slot uses it, h_B when some b-slot does.
    """
    F, layout = spec.field, spec.layout
    deg_gt = len(poly_trim(spec.good.g_tilde)) - 1
    deg_hb = len(poly_trim(spec.h_B)) - 1
    degrees = [i + j * deg_gt for i, j in layout.a_slots]
    degrees += [b + deg_hb for b in range(layout.b_count)]
    used = [spec.good.g_tilde] * bool(layout.a_slots) + [spec.h_B] * bool(layout.b_count)
    B = np.array(spec.partition.B, dtype=np.int64)
    return (
        all(j >= 1 for _, j in layout.a_slots)
        and max(degrees) <= degree_cap(spec.params)
        and not any(np.count_nonzero(poly_eval_vec(F, f, B)) for f in used)
    )


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
    return VerificationReport(
        rank_ok=distance > 0,
        generator_ok=generator_matches(spec),
        distance_found=distance,
        distance_expected=d,
        locality_ok=verify_locality(spec),
        shortening_ok=verify_shortening(spec),
        erasure_ok=distance >= d,
        enumerated_words=p.q**p.k - 1,
    )

"""Code construction: parameter validation, message layout, encoding.

The code of length n and locality r lives inside a parent evaluation
code of length n_bar = m(r+1), the smallest multiple of r+1 covering n.
Messages become polynomials built from powers of the block-constant
polynomial g_tilde plus a correction term divisible by h_B, so that
every codeword polynomial vanishes on the t dropped points B; the
codeword is the value vector on the remaining n points.

build_code evaluates that structure once, with the field's vector
kernels, into the generator matrix G: one row per message slot, held
by CodeSpec as one read-only k x n int64 array.  It certifies rank k
from the slots' degrees, with no elimination; the verify module reads
the rank of G off its distance walk, checks G row by row against the
slot recurrences, and checks the shortening from the slots' structure.
encode is msg . G and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    FieldTooSmall,
    InternalInconsistency,
    LengthMismatch,
    LrcError,
    RateBoundViolated,
    SEqualsOne,
)
from .field import Field, poly_eval_vec, poly_from_roots
from .goodpoly import (
    MULTIPLICATIVE,
    GoodPolynomial,
    PartitionSpec,
    SubgroupSpec,
    coset_partition,
    find_subgroup,
    good_polynomial,
    make_partition,
    normalize_gamma,
)


# Cap on k * n, the symbols of the generator matrix: 2^24 of them take
# 128 MiB as int64, before the copies build_code makes.
MAX_GENERATOR_SYMBOLS = 1 << 24


@dataclass(frozen=True)
class CodeParams:
    q: int
    n: int
    k: int
    r: int
    s: int
    t: int
    m_blocks: int
    n_bar: int
    k_prime: int


@dataclass(frozen=True)
class MessageLayout:
    """How the k message symbols map to polynomial coefficients.

    a_slots lists (i, j) pairs, each feeding the coefficient of
    x^i * g_tilde^j, slot_count(k', r, i) of them per i (none when that
    count is negative, as when k+t < r: the b part then absorbs all k
    symbols); the remaining b_count symbols feed h_B * (b_0 + b_1 x + ...).
    """

    a_slots: tuple[tuple[int, int], ...]
    b_count: int


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A built code.  G is its k x n generator matrix: whatever rows it
    is given become one read-only int64 array here, so every consumer
    slices the same array.  A read-only int64 array that owns its data,
    such as the one build_code makes, is kept as it is; anything else is
    copied.  (No value equality: an array field has none.)

    groups holds, per block, the 0-based coordinates of its surviving
    points in ascending order, and group_of the 0-based block of each
    coordinate: the repair groups, of which only the last can be short.
    """

    params: CodeParams
    field: Field
    subgroup: SubgroupSpec
    partition: PartitionSpec
    good: GoodPolynomial
    h_B: tuple[int, ...]
    eval_points: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    group_of: tuple[int, ...]
    layout: MessageLayout
    G: np.ndarray

    def __post_init__(self) -> None:
        G = self.G
        owned = isinstance(G, np.ndarray) and G.dtype == np.int64 and G.base is None
        if owned and not G.flags.writeable:
            return
        G = np.array(G, dtype=np.int64)
        G.flags.writeable = False
        object.__setattr__(self, "G", G)


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) in integer arithmetic, exact for ints of any size."""
    return -(-a // b)


def slot_count(k_prime: int, r: int, i: int) -> int:
    """Slot-count formula: floor(k'/r) for the first k' mod r rows, one less after."""
    return k_prime // r if i < k_prime % r else k_prime // r - 1


def validate_params(q: int, n: int, k: int, r: int) -> CodeParams:
    """Derive (s, t, m, n_bar, k') and enforce every parameter constraint.

    A length divisible by r+1 is remapped to s = r+1, t = 0: nothing is
    dropped from the parent code and the construction degenerates to the
    unshortened one.
    """
    for name, v in (("q", q), ("n", n), ("k", k), ("r", r)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise LrcError(f"{name} must be a positive integer, got {v!r}")
    if r >= n:
        raise LrcError(f"locality r = {r} must be smaller than the length n = {n}")
    s = n % (r + 1)
    if s == 1:
        raise SEqualsOne(f"n = {n}, r = {r}: s = 1 not supported (n mod (r+1) = 1)")
    if s == 0:
        s, t = r + 1, 0
    else:
        t = r + 1 - s
    m = ceil_div(n, r + 1)
    n_bar = m * (r + 1)
    if k * n > MAX_GENERATOR_SYMBOLS:
        raise BudgetExceeded(
            f"k * n = {k * n} generator symbols exceeds the cap of {MAX_GENERATOR_SYMBOLS} (2^24)"
        )
    F = Field(q)
    H = find_subgroup(F, r + 1)
    reachable = q - 1 if H.kind == MULTIPLICATIVE else q
    if n_bar > reachable:
        raise FieldTooSmall(
            f"need {n_bar} evaluation points but the {H.kind} coset space "
            f"of GF({q}) has only {reachable}"
        )
    if k > n - m:
        raise RateBoundViolated(f"k = {k} exceeds n - ceil(n/(r+1)) = {n - m}")
    return CodeParams(q=q, n=n, k=k, r=r, s=s, t=t, m_blocks=m, n_bar=n_bar, k_prime=k + t)


def degree_cap(params: CodeParams) -> int:
    """The parent code's degree cap k' + ceil(k'/r) - 2: no codeword
    polynomial has a higher degree."""
    return params.k_prime + ceil_div(params.k_prime, params.r) - 2


def message_layout(params: CodeParams) -> MessageLayout:
    kp, r = params.k_prime, params.r
    a_slots = tuple((i, j) for i in range(r) for j in range(1, slot_count(kp, r, i) + 1))
    b_count = params.k - len(a_slots)
    if not 0 <= b_count <= params.s - 1 or (kp >= r and b_count != params.s - 1):
        raise InternalInconsistency(
            f"layout miscount: {len(a_slots)} a-slots and {b_count} b-slots for k = {params.k}"
        )
    return MessageLayout(a_slots=a_slots, b_count=b_count)


def _check_message(msg: Sequence[int], spec: CodeSpec) -> None:
    if len(msg) != spec.params.k:
        raise LengthMismatch(f"message length {len(msg)} != k = {spec.params.k}")
    for x in msg:
        spec.field.check(x)


def encode(msg: Sequence[int], spec: CodeSpec) -> list[int]:
    """The codeword msg . G."""
    _check_message(msg, spec)
    return spec.field.matmul([msg], spec.G)[0].tolist()


def _generator_matrix(
    F: Field,
    layout: MessageLayout,
    g_tilde: Sequence[int],
    h_B: Sequence[int],
    eval_points: Sequence[int],
) -> np.ndarray:
    """One row per message slot, valued at the evaluation points x:
    x^i * g_tilde(x)^j for a-slot (i, j), then x^b * h_B(x) for b-slot b,
    as one product of two uint16 stacks indexed per slot: the powers of x,
    and those of g_tilde(x) followed by h_B(x)."""
    x = np.array(eval_points, dtype=np.int64)
    rows_i = [i for i, _ in layout.a_slots] + list(range(layout.b_count))
    max_j = max((j for _, j in layout.a_slots), default=0)
    rows_j = [j for _, j in layout.a_slots] + [max_j + 1] * layout.b_count
    xs = np.ones((max(rows_i) + 1, len(x)), dtype=np.uint16)
    for i in range(1, len(xs)):
        xs[i] = F.mul_vec(xs[i - 1], x)
    gt = poly_eval_vec(F, g_tilde, x)
    right = np.ones((max_j + 2, len(x)), dtype=np.uint16)
    for j in range(1, max_j + 1):
        right[j] = F.mul_vec(right[j - 1], gt)
    right[-1] = poly_eval_vec(F, h_B, x)
    return F.mul_vec(xs[rows_i], right[rows_j])


def build_code(params: CodeParams) -> CodeSpec:
    """Assemble the full code object and certify its dimension by degree.

    Slot polynomials of pairwise distinct degrees are independent.  Each
    vanishes on B: an a-slot has a factor g_tilde (message_layout starts
    j at 1), which is 0 on the last block, which holds B; B is the root
    set of h_B.  A combination zero on the n points thus has n + t =
    n_bar > cap roots (the rate bound keeps cap <= n_bar - 2), so it is
    zero: G has rank k.
    """
    F = Field(params.q)
    H = find_subgroup(F, params.r + 1)
    blocks = coset_partition(F, H, params.m_blocks)
    partition = make_partition(blocks, params.t)
    good = normalize_gamma(F, good_polynomial(F, H), partition)
    h_B = tuple(poly_from_roots(F, partition.B))
    dropped = set(partition.B)
    located = sorted((x, g) for g, block in enumerate(blocks) for x in block if x not in dropped)
    if len(located) != params.n:
        raise InternalInconsistency(
            f"evaluation set has {len(located)} points, expected n = {params.n}"
        )
    eval_points, group_of = zip(*located)
    groups: list[list[int]] = [[] for _ in blocks]
    for j, g in enumerate(group_of):
        groups[g].append(j)
    layout = message_layout(params)
    cap = degree_cap(params)
    deg_gt, deg_hb = len(good.g_tilde) - 1, len(h_B) - 1
    degrees = [i + j * deg_gt for i, j in layout.a_slots]
    degrees += [b + deg_hb for b in range(layout.b_count)]
    if len(set(degrees)) != len(degrees) or max(degrees) > cap:
        raise InternalInconsistency(f"slot degrees are not pairwise distinct and <= {cap}")
    G = _generator_matrix(F, layout, good.g_tilde, h_B, eval_points)
    G.flags.writeable = False
    return CodeSpec(
        params=params,
        field=F,
        subgroup=H,
        partition=partition,
        good=good,
        h_B=h_B,
        eval_points=eval_points,
        groups=tuple(map(tuple, groups)),
        group_of=group_of,
        layout=layout,
        G=G,
    )

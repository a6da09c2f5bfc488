"""Code construction: parameter validation, message layout, encoding.

The code of length n and locality r lives inside a parent evaluation
code of length n_bar = m(r+1), the smallest multiple of r+1 covering n.
Messages become polynomials built from powers of the block-constant
polynomial g_tilde plus a correction term divisible by h_B, so that
every codeword polynomial vanishes on the t dropped points B; the
codeword is the value vector on the remaining n points.

build_code evaluates that structure once, with the field's vector
kernels, into the generator matrix G: one row per message slot.  encode
is msg . G and nothing else; assemble_polynomial is the independent
polynomial path that the verify module checks G and the shortening
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np

from .errors import (
    FieldTooSmall,
    InternalInconsistency,
    LengthMismatch,
    LrcError,
    RateBoundViolated,
    SEqualsOne,
)
from .field import (
    Field,
    poly_add,
    poly_eval_vec,
    poly_from_roots,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_trim,
)
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
from .linalg import rank


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
    x^i * g_tilde^j; the remaining b_count symbols feed
    h_B * (b_0 + b_1 x + ... ).  S_values holds the per-i slot counts
    from the defining formula (which go negative when k+t < r; negative
    counts contribute no slots and the b part absorbs all k symbols).
    """

    a_slots: tuple[tuple[int, int], ...]
    b_count: int
    S_values: tuple[int, ...]


@dataclass(frozen=True)
class CodeSpec:
    params: CodeParams
    field: Field
    subgroup: SubgroupSpec
    partition: PartitionSpec
    good: GoodPolynomial
    h_B: tuple[int, ...]
    eval_points: tuple[int, ...]
    layout: MessageLayout
    G: tuple[tuple[int, ...], ...]


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
    m = ceil(n / (r + 1))
    n_bar = m * (r + 1)
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


def message_layout(params: CodeParams) -> MessageLayout:
    kp, r = params.k_prime, params.r
    S_values = tuple(slot_count(kp, r, i) for i in range(r))
    a_slots = tuple((i, j) for i in range(r) for j in range(1, S_values[i] + 1))
    b_count = params.k - len(a_slots)
    if not 0 <= b_count <= params.s - 1 or (kp >= r and b_count != params.s - 1):
        raise InternalInconsistency(
            f"layout miscount: {len(a_slots)} a-slots and {b_count} b-slots for k = {params.k}"
        )
    return MessageLayout(a_slots=a_slots, b_count=b_count, S_values=S_values)


def _check_message(msg: Sequence[int], spec: CodeSpec) -> None:
    if len(msg) != spec.params.k:
        raise LengthMismatch(f"message length {len(msg)} != k = {spec.params.k}")
    for x in msg:
        spec.field.check(x)


def assemble_polynomial(msg: Sequence[int], spec: CodeSpec) -> list[int]:
    """The codeword polynomial f of the message; deg f <= k' + ceil(k'/r) - 2.

    This is the polynomial path that verify checks the stored G against.
    """
    _check_message(msg, spec)
    F, layout = spec.field, spec.layout
    gt_powers: list[list[int]] = [[1]]
    max_j = max((j for _, j in layout.a_slots), default=0)
    for _ in range(max_j):
        gt_powers.append(poly_mul(F, gt_powers[-1], spec.good.g_tilde))
    f: list[int] = []
    for (i, j), a in zip(layout.a_slots, msg):
        if a:
            f = poly_add(F, f, poly_shift(poly_scale(F, a, gt_powers[j]), i))
    b_part = poly_trim(msg[len(layout.a_slots):])
    if b_part:
        f = poly_add(F, f, poly_mul(F, spec.h_B, b_part))
    return f


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
) -> tuple[tuple[int, ...], ...]:
    """One row per message slot, valued at the evaluation points x:
    x^i * g_tilde(x)^j for a-slot (i, j), then x^b * h_B(x) for b-slot b."""
    x = np.array(eval_points, dtype=np.int64)
    max_i = max([i for i, _ in layout.a_slots] + [layout.b_count - 1])
    max_j = max((j for _, j in layout.a_slots), default=0)
    x_powers = [np.ones_like(x)]
    for _ in range(max_i):
        x_powers.append(F.mul_vec(x_powers[-1], x))
    gt = poly_eval_vec(F, g_tilde, x)
    gt_powers = [np.ones_like(x)]
    for _ in range(max_j):
        gt_powers.append(F.mul_vec(gt_powers[-1], gt))
    hb = poly_eval_vec(F, h_B, x)
    rows = [F.mul_vec(x_powers[i], gt_powers[j]) for i, j in layout.a_slots]
    rows += [F.mul_vec(x_powers[b], hb) for b in range(layout.b_count)]
    return tuple(tuple(row.tolist()) for row in rows)


def build_code(params: CodeParams) -> CodeSpec:
    """Assemble the full code object and certify its dimension."""
    F = Field(params.q)
    H = find_subgroup(F, params.r + 1)
    blocks = coset_partition(F, H, params.m_blocks)
    partition = make_partition(blocks, params.t)
    good = normalize_gamma(F, good_polynomial(F, H), partition)
    h_B = tuple(poly_from_roots(F, partition.B))
    dropped = set(partition.B)
    eval_points = tuple(sorted(x for block in blocks for x in block if x not in dropped))
    if len(eval_points) != params.n:
        raise InternalInconsistency(
            f"evaluation set has {len(eval_points)} points, expected n = {params.n}"
        )
    layout = message_layout(params)
    G = _generator_matrix(F, layout, good.g_tilde, h_B, eval_points)
    if rank(F, G) != params.k:
        raise InternalInconsistency(f"generator matrix rank below k = {params.k}")
    return CodeSpec(
        params=params,
        field=F,
        subgroup=H,
        partition=partition,
        good=good,
        h_B=h_B,
        eval_points=eval_points,
        layout=layout,
        G=G,
    )

"""Local single-coordinate repair and multi-erasure decoding.

Within one block, every codeword polynomial restricts to degree <= r-1,
so any coordinate is the Lagrange combination (field.lagrange_weights)
of the other r values of its repair group.  The short last group has
only s-1 surviving partners, but the t dropped points are known zeros of
the polynomial and stand in for the missing helpers.  verify_locality
checks the same weights against the generator matrix.  Heavier erasure
patterns go through a generic linear solve against the generator matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .construction import CodeSpec
from .errors import IndexOutOfRange, LengthMismatch, LrcError, Unrecoverable
from .field import lagrange_weights
from .linalg import row_reduce

ERASED = None


def _check_index(spec: CodeSpec, i: int) -> None:
    """Refuse anything but an int (not a bool) in [1, n]."""
    n = spec.params.n
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
        raise IndexOutOfRange(f"coordinate {i!r} outside [1, {n}]")


def _check_length(spec: CodeSpec, received: Sequence[int | None]) -> None:
    if len(received) != spec.params.n:
        raise LengthMismatch(f"received word length {len(received)} != n = {spec.params.n}")


def locate_group(spec: CodeSpec, i: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Repair group of coordinate i (1-based): its 1-based block index,
    the helper points (surviving group members), and the points whose
    value is implicitly zero.  Helpers plus zeros always number r."""
    _check_index(spec, i)
    g = spec.group_of[i - 1]
    group = spec.groups[g]
    helpers = tuple(spec.eval_points[j] for j in group if j != i - 1)
    return g + 1, helpers, spec.partition.B if len(group) <= spec.params.r else ()


def repair_local(spec: CodeSpec, i: int, helper_values: Sequence[tuple[int, int]]) -> int:
    """Recover coordinate i from exactly r (point, value) pairs: the
    helpers reported by locate_group plus zeros at the implicit points.

    The value is the dot product of the values with the Lagrange weights
    of the points at coordinate i's point.  Every point and value must be
    a field element (NotAFieldElement otherwise).  Any other set of
    points, or a nonzero value at an implicit point, is refused
    (LrcError): the weights of other points give a wrong symbol.
    """
    r = spec.params.r
    if len(helper_values) != r:
        raise LengthMismatch(f"local repair needs exactly r = {r} values, got {len(helper_values)}")
    _, helpers, zeros = locate_group(spec, i)
    F = spec.field
    xs = [F.check(x) for x, _ in helper_values]
    # repeated points raise DuplicateAbscissa here, before the group check
    weights = lagrange_weights(F, xs, spec.eval_points[i - 1])
    if set(xs) != set(helpers + zeros) or any(y != 0 for x, y in helper_values if x in zeros):
        raise LrcError(f"coordinate {i} is repaired from points {helpers} and zeros at {zeros}")
    acc = 0
    for w, (_, y) in zip(weights, helper_values):
        if F.check(y):
            acc = F.add(acc, F.mul(w, y))
    return acc


def repair_group_values(
    spec: CodeSpec, received: Sequence[int | None], i: int
) -> tuple[int, list[tuple[int, int]]]:
    """Coordinate i's 1-based repair group index and the r (point, value)
    pairs repair_local takes: the helpers' values read from a received
    word, then zeros at the group's dropped points."""
    _check_length(spec, received)
    g_idx, _, zeros = locate_group(spec, i)
    pairs = []
    for j in spec.groups[g_idx - 1]:
        if j != i - 1:
            alpha, v = spec.eval_points[j], received[j]
            if v is ERASED:
                raise Unrecoverable(f"helper at point {alpha} is itself erased")
            pairs.append((alpha, v))
    pairs.extend((beta, 0) for beta in zeros)
    return g_idx, pairs


def repair_coordinate(spec: CodeSpec, received: Sequence[int | None], i: int) -> int:
    """Repair coordinate i of a received word from its repair group."""
    _, pairs = repair_group_values(spec, received, i)
    return repair_local(spec, i, pairs)


def decode_erasures(spec: CodeSpec, received: Sequence[int | None]) -> list[int]:
    """Recover the message from a codeword with erasures (None entries).

    Solves msg @ G = received on the known columns.  Succeeds for every
    pattern of at most d-1 erasures; raises Unrecoverable when the
    surviving columns no longer pin the message down (or contradict it).
    Every known symbol must be a field element (NotAFieldElement
    otherwise), since the elimination kernels index tables with them.
    """
    p = spec.params
    _check_length(spec, received)
    known = [j for j, v in enumerate(received) if v is not ERASED]
    for j in known:
        spec.field.check(received[j])
    # rows of the transposed restricted system: one equation per known column
    augmented = np.column_stack([spec.G[:, known].T, [received[j] for j in known]])
    reduced, pivots = row_reduce(spec.field, augmented)
    if p.k in pivots:
        raise Unrecoverable("received word is not consistent with any codeword")
    if len(pivots) < p.k:
        raise Unrecoverable(
            f"{p.n - len(known)} erasures leave the message underdetermined "
            f"(rank {len(pivots)} < k = {p.k})"
        )
    # the pivots are exactly the k message columns, so row i solves column i
    return reduced[: p.k, p.k].tolist()

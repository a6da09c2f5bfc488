"""Shared fixtures: the acceptance grid and its built codes; the slot
polynomials and the codeword polynomial of a message, the tests'
reference for G and the shortening (reference_generator_matches and
reference_shortening, the Vandermonde form that verify's recurrence and
structure checks replace); the block scan, the tests' reference for
locate_group; rank by elimination, the tests' reference for the rank
the library proves without it."""

from typing import Sequence

import numpy as np
import pytest

from lrcodes import build_code, validate_params
from lrcodes.construction import CodeSpec, _check_message, degree_cap
from lrcodes.errors import LrcError
from lrcodes.field import Field, poly_mul, poly_trim
from lrcodes.linalg import row_reduce

GRID_Q = (13, 16, 17)
GRID_R = (2, 3, 4)
BUDGET = 5_000_000


def derive_grid(budget=BUDGET):
    """Every valid (q, n, k, r) in the acceptance grid: 5 <= n, s != 1,
    k within the rate bound, and q^k <= budget, small enough to enumerate
    by default."""
    grid = []
    for q in GRID_Q:
        for r in GRID_R:
            for n in range(5, q + 1):
                for k in range(1, n + 1):
                    if q**k > budget:
                        break
                    try:
                        grid.append(validate_params(q, n, k, r))
                    except LrcError:
                        continue
    return grid


@pytest.fixture(scope="session")
def grid_params():
    return derive_grid()


@pytest.fixture(scope="session")
def grid_specs(grid_params):
    return [(p, build_code(p)) for p in grid_params]


@pytest.fixture
def ref_spec():
    """The worked reference code: (n, k, r) = (10, 5, 3) over GF(13), d = 4."""
    return build_code(validate_params(13, 10, 5, 3))


def rank(F: Field, rows: Sequence[Sequence[int]]) -> int:
    return len(row_reduce(F, rows)[1])


def poly_add(F: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


def poly_scale(F: Field, c: int, p: Sequence[int]) -> list[int]:
    if c == 0:
        return []
    return poly_trim([F.mul(c, x) for x in p])


def poly_shift(p: Sequence[int], i: int) -> list[int]:
    """Multiply by x^i."""
    if not p:
        return []
    return [0] * i + list(p)


def slot_polynomials(spec: CodeSpec) -> list[list[int]]:
    """One polynomial per message slot: x^i * g_tilde^j for a-slot (i, j),
    then x^b * h_B for b-slot b.  Unit message i's polynomial is entry i."""
    F, layout = spec.field, spec.layout
    gt_powers: list[list[int]] = [[1]]
    max_j = max((j for _, j in layout.a_slots), default=0)
    for _ in range(max_j):
        gt_powers.append(poly_mul(F, gt_powers[-1], spec.good.g_tilde))
    slots = [poly_shift(gt_powers[j], i) for i, j in layout.a_slots]
    slots += [poly_shift(spec.h_B, b) for b in range(layout.b_count)]
    return slots


def unit_words(F: Field, slots: list[list[int]], points: Sequence[int]) -> np.ndarray:
    """k x len(points) array: row i holds slots[i]'s values at *points*,
    as one F.matmul of the k x D slot coefficients with the D x
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


def reference_generator_matches(spec: CodeSpec) -> bool:
    """verify.generator_matches by evaluating every slot polynomial at the
    n points: O(k D n)."""
    words = unit_words(spec.field, slot_polynomials(spec), spec.eval_points)
    return np.array_equal(words, spec.G)


def reference_shortening(spec: CodeSpec) -> bool:
    """verify.verify_shortening from the slot polynomials' coefficients
    (none nonzero above the cap) and their values on B (all zero)."""
    slots = slot_polynomials(spec)
    cap = degree_cap(spec.params)
    above_cap = any(any(slot[cap + 1 :]) for slot in slots)
    return not above_cap and not np.count_nonzero(unit_words(spec.field, slots, spec.partition.B))


def assemble_polynomial(msg: Sequence[int], spec: CodeSpec) -> list[int]:
    """The codeword polynomial f of the message, sum_i msg[i] * slot_i;
    deg f <= degree_cap(spec.params).  The tests check G and the
    shortening against it."""
    _check_message(msg, spec)
    F = spec.field
    f: list[int] = []
    for slot, a in zip(slot_polynomials(spec), msg):
        if a:
            f = poly_add(F, f, poly_scale(F, a, slot))
    return f


def scan_group(spec: CodeSpec, i: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """locate_group(spec, i) by scanning every block of the partition for
    coordinate i's point, with no use of spec.groups or spec.group_of."""
    alpha = spec.eval_points[i - 1]
    dropped = set(spec.partition.B)
    for g_idx, block in enumerate(spec.partition.blocks, start=1):
        if alpha in block:
            helpers = tuple(x for x in block if x != alpha and x not in dropped)
            return g_idx, helpers, spec.partition.B if dropped & set(block) else ()
    raise AssertionError(f"point {alpha} missing from every block")

"""Shared fixtures: the acceptance grid and its built codes; the
codeword polynomial of a message, the tests' reference for G; the
block scan, the tests' reference for locate_group; rank by elimination,
the tests' reference for the rank the library proves without it."""

from typing import Sequence

import pytest

from lrcodes import build_code, validate_params
from lrcodes.construction import CodeSpec, _check_message, slot_polynomials
from lrcodes.errors import LrcError
from lrcodes.field import Field, poly_trim
from lrcodes.linalg import row_reduce

GRID_Q = (13, 16, 17)
GRID_R = (2, 3, 4)
BUDGET = 5_000_000


def derive_grid():
    """Every valid (q, n, k, r) in the acceptance grid: 5 <= n, s != 1,
    k within the rate bound, and q^k small enough to enumerate."""
    grid = []
    for q in GRID_Q:
        for r in GRID_R:
            for n in range(5, q + 1):
                for k in range(1, n + 1):
                    if q**k > BUDGET:
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


def assemble_polynomial(msg: Sequence[int], spec: CodeSpec) -> list[int]:
    """The codeword polynomial f of the message, sum_i msg[i] * slot_i;
    deg f <= degree_cap(spec.params).

    The tests check G and the shortening against it; verify reads
    slot_polynomials directly.
    """
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

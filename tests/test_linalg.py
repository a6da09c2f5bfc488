"""Gaussian elimination over a Field."""

import random
from itertools import product

import numpy as np
import pytest

from lrcodes.field import Field
from lrcodes.linalg import rank, row_reduce


def test_row_reduce_identity():
    F = Field(13)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    reduced, pivots = row_reduce(F, eye)
    assert reduced == eye
    assert pivots == [0, 1, 2]


def test_rank_examples():
    F = Field(13)
    assert rank(F, [[1, 2], [2, 4]]) == 1
    assert rank(F, [[1, 2], [2, 5]]) == 2
    assert rank(F, [[0, 0], [0, 0]]) == 0


@pytest.mark.parametrize("q", [13, 16])
def test_vandermonde_rank(q):
    F = Field(q)
    pts = list(range(1, 7))
    V = [[F.pow(x, i) for x in pts] for i in range(4)]
    assert rank(F, V) == 4


def _kernel_size(F, A, ncols):
    # brute force: how many x in GF(q)^ncols solve A x = 0
    xs = np.array(list(product(range(F.order), repeat=ncols)), dtype=np.int64).T
    return int(np.count_nonzero(~F.matmul(A, xs).any(axis=0)))


@pytest.mark.parametrize("q", [13, 16, 17])
def test_solve_and_nullspace_random(q):
    # rank + nullity = ncols, the nullity counted by enumerating solutions
    F = Field(q)
    rng = random.Random(q * 7)
    for _ in range(60):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 5)
        A = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        assert _kernel_size(F, A, ncols) == q ** (ncols - rank(F, A))


def test_nullspace_of_full_rank_is_empty():
    F = Field(17)
    assert rank(F, [[1, 0], [0, 1]]) == 2
    assert _kernel_size(F, [[1, 0], [0, 1]], 2) == 1

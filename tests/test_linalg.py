"""Gaussian elimination over a Field."""

import random

import numpy as np
import pytest

from lrcodes.field import Field
from lrcodes.linalg import nullspace, rank, row_reduce


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


@pytest.mark.parametrize("q", [13, 16, 17])
def test_solve_and_nullspace_random(q):
    # every nullspace vector solves A x = 0, and rank + nullity = ncols
    F = Field(q)
    rng = random.Random(q * 7)
    for _ in range(60):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        A = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(F, A)
        if basis:
            assert not F.matmul(A, np.array(basis).T).any()
        assert rank(F, A) + len(basis) == ncols


def test_nullspace_of_full_rank_is_empty():
    F = Field(17)
    assert nullspace(F, [[1, 0], [0, 1]]) == []

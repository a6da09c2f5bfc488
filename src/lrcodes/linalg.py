"""Dense linear algebra over a Field: elimination and rank.

Matrices come in and go out as lists of row lists of canonical field
ints.  Everything here is exact.  Elimination runs on an int64 numpy
copy with the field's vector kernels (Field.div_vec, Field.isub_mul):
one vectorised Gauss-Jordan step per pivot over the columns from the
pivot on.

Over GF(p) the steps leave entries unreduced; only the pivot column is
reduced when it is searched.  Each step moves an entry by less than
p^2 < 2^32, and normalising a pivot row multiplies it by less than 2^16,
so int64 stays exact while fewer than 2^15 steps pass between two
reductions of the whole matrix; it is reduced every _REDUCE_EVERY steps
and at the end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import Field

Matrix = list[list[int]]

_REDUCE_EVERY = 1 << 14


def row_reduce(F: Field, rows: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    if not rows:
        return [], []
    m = np.array(rows, dtype=np.int64)
    nrows, ncols = m.shape
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        factors = F.reduce_vec(m[:, col])
        column = factors.tolist()
        pivot_row = rank
        while pivot_row < nrows and not column[pivot_row]:
            pivot_row += 1
        if pivot_row == nrows:
            continue
        # rows from rank down vanish (mod p) left of col, so only columns
        # from col on change
        block = m[:, col:]
        pivot = F.div_vec(block[pivot_row], column[pivot_row])
        if pivot_row != rank:
            # the pivot is written to row rank below, so move that row
            # down instead of swapping the two
            block[pivot_row] = block[rank]
            factors[pivot_row] = column[rank]
        # a zero factor leaves its row as it is; updating every row in one
        # slice beat gathering the nonzero ones on every system measured
        F.isub_mul(block, factors[:, None], pivot)
        block[rank] = pivot
        pivots.append(col)
        if rank + 1 == nrows:
            break
        if len(pivots) % _REDUCE_EVERY == 0:
            m[:] = F.reduce_vec(m)
    return F.reduce_vec(m).tolist(), pivots


def rank(F: Field, rows: Sequence[Sequence[int]]) -> int:
    _, pivots = row_reduce(F, rows)
    return len(pivots)

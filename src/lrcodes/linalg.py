"""Dense linear algebra over a Field: Gauss-Jordan elimination.

Everything here is exact.  Elimination runs on int64 numpy arrays with
the field's vector kernels (Field.div_vec, Field.isub_mul): one
vectorised Gauss-Jordan step per pivot over the columns from the pivot
on.  row_reduce takes one system of canonical field ints, as row lists
or a 2-D array, and returns its canonical int64 reduced matrix and pivots.
solve_stack takes an (m, c, S) array of S systems [A | y] of one shape
and solves them in lockstep, every system pivoting in the same row and
column at each step, which is how the erasure oracle decodes a whole
chunk of patterns at once; it answers only whether each system has
exactly one solution, and which.  A single system stays on row_reduce,
because the stack's step (a pivot search across the stack, fancy-indexed
row swaps, an array inverse by Fermat exponentiation over GF(p)) costs
more than it saves when S = 1.  On a 2-core Xeon (best of 7), a stack
of one took 8.1 ms against row_reduce's 1.9 ms on a 100 x 81 decode
system over GF(65521), and 1.7 ms against 0.97 ms on a 45 x 41 one over
GF(2^16).

Over GF(p) the steps leave entries unreduced; only the pivot column is
reduced when it is searched.  Each step moves an entry by less than
p^2 < 2^32, and normalising a pivot row multiplies it by less than 2^16,
so int64 stays exact while fewer than 2^15 steps pass between two
reductions of the whole matrix; it is reduced every _REDUCE_EVERY steps
and at the end.  The same holds for every system of a stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import Field

_REDUCE_EVERY = 1 << 14


def row_reduce(F: Field, rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of *rows* (row lists or a 2-D array), as
    a new int64 array of canonical elements, and its pivot columns."""
    if len(rows) == 0:
        return np.zeros((0, 0), dtype=np.int64), []
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
    return F.reduce_vec(m), pivots


def solve_stack(F: Field, systems: np.ndarray) -> np.ndarray | None:
    """The (k, S) solutions of S stacked systems [A | y] with k = c - 1
    unknowns, given as an (m, c, S) int64 array of canonical elements,
    the stack axis last; None unless every system has exactly one.

    The systems are eliminated in lockstep, overwriting *systems*: at
    column j every one takes its pivot in row j, swapped up from below
    where its own entry there is zero, so each step is a few vector
    operations of length S.  None is returned as soon as some system
    has fewer than k rows, finds no pivot in a column of A, or has a
    pivot in y (an inconsistent right-hand side).
    """
    k = systems.shape[1] - 1
    m = systems
    for col in range(k):
        column = F.reduce_vec(m[:, col])
        # empty once col passes the last row: too few rows
        candidates = column[col:] != 0
        if not candidates.any(axis=0).all():
            return None
        lower = np.flatnonzero(~candidates[0])
        if len(lower):
            rows = col + candidates[:, lower].argmax(axis=0)
            m[rows, col:, lower], m[col, col:, lower] = m[col, col:, lower], m[rows, col:, lower]
            column[rows, lower], column[col, lower] = column[col, lower], column[rows, lower]
        # as in row_reduce: only columns from col on change
        pivot = F.div_vec(m[col, col:], column[col])
        F.isub_mul(m[:, col:], column[:, None], pivot)
        m[col, col:] = pivot
        if (col + 1) % _REDUCE_EVERY == 0:
            m[:] = F.reduce_vec(m)
    y = F.reduce_vec(m[:, k])
    if y[k:].any():
        return None
    return y[:k]

"""Dense linear algebra over a Field: elimination and rank.

Everything here is exact.  Elimination runs on an int64 numpy copy with
the field's vector kernels (Field.div_vec, Field.isub_mul): one
vectorised Gauss-Jordan step per pivot over the columns from the pivot
on.  row_reduce takes one system of canonical field ints, as row lists
or a 2-D array, and returns lists; row_reduce_stack takes an (S, m, c)
array of S systems of one shape and reduces them all in the same steps,
one per column, which is how the erasure oracle decodes a whole chunk of
patterns at once.  The choice follows from the input shape: a single
system stays on row_reduce, because the stack's per-system bookkeeping
(a pivot search across the stack, fancy-indexed row moves, an array
inverse by Fermat exponentiation over GF(p)) costs more than it saves
when S = 1.  On a 2-core Xeon, a stack of one took 5.7 ms against
row_reduce's 1.55 ms on a 100 x 81 decode system over GF(65521), and
1.3 ms against 0.66 ms on a 45 x 41 one over GF(2^16).

Over GF(p) the steps leave entries unreduced; only the pivot column is
reduced when it is searched.  Each step moves an entry by less than
p^2 < 2^32, and normalising a pivot row multiplies it by less than 2^16,
so int64 stays exact while fewer than 2^15 steps pass between two
reductions of the whole matrix; it is reduced every _REDUCE_EVERY steps
and at the end.  The same holds per system in a stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import Field

Matrix = list[list[int]]

_REDUCE_EVERY = 1 << 14


def row_reduce(F: Field, rows: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    rows is a list of row lists or a 2-D array; the result is lists."""
    if len(rows) == 0:
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


def row_reduce_stack(F: Field, systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every system in an (S, m, c) int64
    array of canonical elements, and an (S, c) boolean pivot mask.

    System s's i-th pivot column (in order) has its pivot in row i, so
    its reduced rows and pivots are row_reduce's for that system alone.
    The work runs on an (m, c, S) copy: with the stack axis last, each
    step is a few vector operations of length S rather than S short
    ones of the systems' widths.  While every system has found a pivot
    in every column so far (the erasure oracle's usual case), all share
    the pivot row, and a step gathers only the systems whose pivot lies
    below it.
    """
    nsys, nrows, ncols = systems.shape
    m = np.ascontiguousarray(systems.transpose(1, 2, 0), dtype=np.int64)
    ranks = np.zeros(nsys, dtype=np.int64)
    pivots = np.zeros((nsys, ncols), dtype=bool)
    below = np.arange(nrows)[:, None]
    for col in range(ncols):
        column = F.reduce_vec(m[:, col])
        candidates = (column != 0) & (below >= ranks)
        found = candidates.any(axis=0)
        if not found.any():
            continue
        r = ranks[0]
        if found.all() and (ranks == r).all():
            # every system pivots into row r: swap the pivot row up where it
            # lies lower, then the step is plain slices
            lower = np.flatnonzero(~candidates[r])
            if len(lower):
                rows = candidates[:, lower].argmax(axis=0)
                m[rows, col:, lower], m[r, col:, lower] = m[r, col:, lower], m[rows, col:, lower]
                column[rows, lower], column[r, lower] = column[r, lower], column[rows, lower]
            pivot = F.div_vec(m[r, col:], column[r])
            F.isub_mul(m[:, col:], column[:, None], pivot)
            m[r, col:] = pivot
            ranks += 1
            pivots[:, col] = True
        else:
            if found.all():
                sel, sub, factors = slice(None), m, column
            else:
                sel = np.flatnonzero(found)
                sub, factors = m[:, :, sel], column[:, sel]
            each = np.arange(sub.shape[2])
            pivot_row = candidates[:, sel].argmax(axis=0)
            rank = ranks[sel]
            # as in row_reduce: the pivot row goes to row rank, whose old row
            # moves down to the pivot's place, and only columns from col on change
            block = sub[:, col:]
            pivot = F.div_vec(block[pivot_row, :, each], factors[pivot_row, each][:, None])
            block[pivot_row, :, each] = block[rank, :, each]
            factors[pivot_row, each] = factors[rank, each]
            F.isub_mul(block, factors[:, None], np.ascontiguousarray(pivot.T))
            block[rank, :, each] = pivot
            if sub is not m:
                m[:, :, sel] = sub
            ranks[sel] += 1
            pivots[sel, col] = True
        if (col + 1) % _REDUCE_EVERY == 0:
            m[:] = F.reduce_vec(m)
    return F.reduce_vec(m).transpose(2, 0, 1), pivots

"""Vector field kernels against the carry-less reference product and the
scalar Field methods, over every supported binary degree and a spread of
prime fields."""

import random

import numpy as np
import pytest

from lrcodes.errors import DivisionByZero
from lrcodes.field import (
    _IRREDUCIBLE,
    _SLICE_SYMBOLS,
    Field,
    binary_log_tables,
    smallest_primitive,
)
from lrcodes import linalg
from lrcodes.linalg import row_reduce
from test_field import gf2_mul, gf2_pow, reference_mul

ORDERS = [1 << e for e in range(2, 17)] + [2, 3, 13, 257, 65521]


def _pairs(q, count, seed):
    """Seeded operand arrays with zeros forced into about one pair in eight."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, count)
    b = rng.integers(0, q, count)
    a[::8] = 0
    b[3::8] = 0
    a[-1] = b[-1] = 0
    return a, b


def _scalar_gauss_jordan(F, rows):
    """Textbook reduced row echelon form with scalar Field calls only."""
    m = [list(r) for r in rows]
    pivots, rank = [], 0
    for col in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return m, pivots


def _scalar_matmul(F, A, B):
    out = [[0] * len(B[0]) if B else [] for _ in A]
    for i, row in enumerate(A):
        for j in range(len(out[i])):
            acc = 0
            for k, a in enumerate(row):
                acc = F.add(acc, F.mul(a, B[k][j]))
            out[i][j] = acc
    return out


@pytest.mark.parametrize("e", range(2, 17))
def test_exp_table_is_a_permutation(e):
    q = 1 << e
    log, exp = binary_log_tables(e)
    assert sorted(exp[: q - 1].tolist()) == list(range(1, q))
    assert not exp.flags.writeable and not log.flags.writeable
    # the tables never replace the modulus codewords depend on
    assert Field(q).modulus == _IRREDUCIBLE[e]
    # exp[i] = g^i under that modulus, by the reference product
    g, powers = int(exp[1]), exp[:q].tolist()
    assert all(gf2_mul(x, g, _IRREDUCIBLE[e]) == y for x, y in zip(powers, powers[1:]))


def _prime_factors(n):
    return [f for f in range(2, n + 1) if n % f == 0 and all(f % d for d in range(2, f))]


@pytest.mark.parametrize("e", range(2, 17))
def test_generator_is_the_smallest_primitive_element(e):
    # x = 2 is not primitive under every modulus: 0x11B and degrees 12 and
    # 16 need 3, degrees 9 and 14 need 7
    q, modulus = 1 << e, _IRREDUCIBLE[e]

    def primitive(g):
        return all(gf2_pow(g, (q - 1) // f, modulus) != 1 for f in _prime_factors(q - 1))

    smallest = next(g for g in range(2, q) if primitive(g))
    assert binary_log_tables(e)[1][1] == smallest
    assert smallest_primitive(Field(q)) == smallest
    assert smallest == {8: 3, 9: 7, 12: 3, 14: 7, 16: 3}.get(e, 2)


def test_gf65536_tables_fit_in_a_mebibyte():
    log, exp = binary_log_tables(16)
    assert log.nbytes + exp.nbytes <= 1 << 20


@pytest.mark.parametrize("q", ORDERS)
def test_mul_div_add_vec_match_scalar(q):
    F = Field(q)
    a, b = _pairs(q, 2000, seed=q)
    got = F.mul_vec(a, b)
    assert got.tolist() == [reference_mul(q, int(x), int(y)) for x, y in zip(a, b)]
    assert F.add_vec(a, b).tolist() == [F.add(int(x), int(y)) for x, y in zip(a, b)]
    c = int(b[b != 0][0])
    c_inv = F.inv(c)
    assert F.div_vec(a, c).tolist() == [F.mul(int(x), c_inv) for x in a]
    # prime fields leave isub_mul unreduced; reduce_vec makes it canonical
    acc = a.copy()
    F.isub_mul(acc, b, c)
    assert F.reduce_vec(acc).tolist() == [F.sub(int(x), F.mul(int(y), c)) for x, y in zip(a, b)]
    with pytest.raises(DivisionByZero):
        F.div_vec(a, 0)


@pytest.mark.parametrize("q", [3, 65521, 256])
def test_unreduced_isub_mul_chain(q):
    # elimination chains isub_mul over many pivots before reducing, and
    # normalises unreduced rows with div_vec
    F = Field(q)
    a, b = _pairs(q, 200, seed=7)
    acc, want = a.copy(), a.tolist()
    for step in range(300):
        c = (step * 7919) % q
        F.isub_mul(acc, b, c)
        want = [F.sub(x, F.mul(int(y), c)) for x, y in zip(want, b)]
    assert F.reduce_vec(acc).tolist() == want
    c_inv = F.inv(q - 1)
    assert F.reduce_vec(F.div_vec(acc, q - 1)).tolist() == [F.mul(x, c_inv) for x in want]


def test_reduce_vec():
    assert Field(13).reduce_vec(np.array([-1, 13, 27, 5])).tolist() == [12, 0, 1, 5]
    a = np.array([0, 7, 255])
    out = Field(256).reduce_vec(a)
    assert out.tolist() == [0, 7, 255] and out is not a


def test_mul_vec_broadcasts():
    F = Field(256)
    col = np.arange(256)[:, None]
    row = np.array([0, 1, 2, 0x53, 255])
    table = F.mul_vec(col, row)
    assert table.shape == (256, 5)
    assert table[0x53, 3] == F.mul(0x53, 0x53)
    assert (table[:, 1] == np.arange(256)).all()


@pytest.mark.parametrize("q", ORDERS)
def test_matmul_matches_triple_loop(q):
    F = Field(q)
    rng = random.Random(q)
    for rows, inner, cols in [(3, 4, 5), (1, 1, 1), (0, 3, 2), (2, 0, 3), (4, 2, 0)]:
        A = [[rng.randrange(q) for _ in range(inner)] for _ in range(rows)]
        B = [[rng.randrange(q) for _ in range(cols)] for _ in range(inner)]
        got = F.matmul(np.array(A, dtype=np.int64).reshape(rows, inner),
                       np.array(B, dtype=np.int64).reshape(inner, cols))
        assert got.shape == (rows, cols)
        if inner:
            assert got.tolist() == _scalar_matmul(F, A, B)
        else:
            assert not got.any()
    with pytest.raises(ValueError):
        F.matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def _loop_matmul(F, A, B):
    """The GF(2^e) product by one gather per inner index: the reference
    for Field.matmul's sliced gathers."""
    log, exp = binary_log_tables(F.extension_degree)
    logs_a, logs_b = log[A], log[B]
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[1]):
        out ^= exp[logs_a[:, i, None] + logs_b[None, i, :]]
    return out


def _slice_width(rows, cols):
    return max(1, _SLICE_SYMBOLS // max(1, rows * cols))


# (rows, inner, cols): several slices with a partial last one, one message
# by a generator in one slice or in three, one inner index per slice (at
# the cap and beyond it), and empty and 1 x 1 products
SLICED_SHAPES = [
    (40, 50, 40),
    (128, 5, 256),
    (1, 40, 62),
    (1, 3000, 62),
    (256, 3, 256),
    (300, 3, 300),
    (1, 1, 1),
    (0, 3, 2),
    (2, 0, 3),
    (4, 2, 0),
]


def test_sliced_shapes_span_partial_and_single_index_slices():
    widths = {shape: _slice_width(shape[0], shape[2]) for shape in SLICED_SHAPES}
    assert widths[(40, 50, 40)] == 40
    assert widths[(128, 5, 256)] == 2
    assert 2 * widths[(1, 3000, 62)] < 3000 < 3 * widths[(1, 3000, 62)]
    assert widths[(256, 3, 256)] == widths[(300, 3, 300)] == 1


@pytest.mark.parametrize("e", range(2, 17))
def test_binary_matmul_matches_inner_index_loop(e):
    q = 1 << e
    F = Field(q)
    rng = np.random.default_rng(e)
    for rows, inner, cols in SLICED_SHAPES:
        A = rng.integers(0, q, (rows, inner))
        B = rng.integers(0, q, (inner, cols))
        A[:, ::7] = 0
        B[1::5] = 0
        A_in, B_in = A.copy(), B.copy()
        got = F.matmul(A, B)
        assert got.dtype == np.int64 and got.shape == (rows, cols)
        assert np.array_equal(got, _loop_matmul(F, A, B))
        assert np.array_equal(A, A_in) and np.array_equal(B, B_in)


@pytest.mark.parametrize("e", range(2, 17))
def test_binary_matmul_of_all_top_elements_with_zeros_on_a_slice_boundary(e):
    q = 1 << e
    F = Field(q)
    rows, inner, cols = 40, 50, 40
    width = _slice_width(rows, cols)
    A = np.full((rows, inner), q - 1, dtype=np.int64)
    B = np.full((inner, cols), q - 1, dtype=np.int64)
    # zeros at the last index of the first slice and the first of the second
    A[::2, width - 1] = 0
    B[width, ::3] = 0
    got = F.matmul(A, B)
    assert got.dtype == np.int64
    assert np.array_equal(got, _loop_matmul(F, A, B))
    # entry (i, j) sums (q - 1)^2 over the inner indices where neither is zero
    terms = inner - (np.arange(rows)[:, None] % 2 == 0) - (np.arange(cols) % 3 == 0)
    assert np.array_equal(got, np.where(terms % 2, F.mul(q - 1, q - 1), 0))


def _low_rank(F, rng, nrows, ncols, rank):
    """A random nrows x ncols matrix of rank at most *rank*."""
    basis = np.array([[rng.randrange(F.order) for _ in range(ncols)] for _ in range(rank)],
                     dtype=np.int64).reshape(rank, ncols)
    coef = np.array([[rng.randrange(F.order) for _ in range(rank)] for _ in range(nrows)],
                    dtype=np.int64).reshape(nrows, rank)
    return F.matmul(coef, basis).tolist()


@pytest.mark.parametrize("q", ORDERS)
def test_row_reduce_matches_scalar_gauss_jordan(q):
    F = Field(q)
    rng = random.Random(q + 1)
    # pivots found below their row, zero rows and zero columns
    sparse = [[0, 1, 2, 3], [0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 2], [0, 0, 0, 0]]
    cases = [[], [[]], [[0, 0, 0]], [[0] * 4 for _ in range(3)]]
    cases.append([[x % q for x in r] for r in sparse])
    for _ in range(4):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = _low_rank(F, rng, nrows, ncols, rng.randrange(0, 5))  # rank-deficient when rank < nrows
        rows.insert(rng.randrange(nrows + 1), [0] * ncols)  # an all-zero row
        cases.append(rows)
        cases.append([[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)])
    for rows in cases:
        reduced, pivots = row_reduce(F, rows)
        assert (reduced.tolist(), pivots) == _scalar_gauss_jordan(F, rows)


def _uniquely_solvable(F, rng, nrows, k):
    """Rows [A | y] with A of rank k, and y = A x for a random x."""
    q = F.order
    while True:
        if rng.random() < 0.5:
            # shuffled identity rows put some pivots below their row
            A = [[int(i == j) for j in range(k)] for i in range(k)]
            A += [[rng.randrange(q) for _ in range(k)] for _ in range(nrows - k)]
            rng.shuffle(A)
        else:
            A = [[rng.randrange(q) for _ in range(k)] for _ in range(nrows)]
            if _scalar_gauss_jordan(F, A)[1] != list(range(k)):
                continue
        x = [rng.randrange(q) for _ in range(k)]
        y = F.matmul(np.array(A, dtype=np.int64), np.array(x, dtype=np.int64)[:, None])
        return [row + [int(v)] for row, v in zip(A, y[:, 0])], x


@pytest.mark.parametrize("q", ORDERS)
def test_row_reduce_stack_of_full_rank_systems(q):
    # decode_erasures reads the solution off column k once the pivots are
    # exactly the k unknowns
    F = Field(q)
    rng = random.Random(q + 2)
    for nrows, k in [(5, 4), (6, 6), (7, 3), (1, 1)]:
        for _ in range(8):
            rows, x = _uniquely_solvable(F, rng, nrows, k)
            reduced, pivots = row_reduce(F, rows)
            assert pivots == list(range(k))
            assert reduced[:k, k].tolist() == x


@pytest.mark.parametrize("q", ORDERS)
def test_solve_stack_refuses_systems_without_one_solution(q):
    # named for the lockstep solver these systems once tested; row_reduce's
    # pivots show each of decode_erasures' two refusals
    F = Field(q)
    rng = random.Random(q + 3)
    nrows, k = 6, 4
    deficient = [row + [0] for row in _low_rank(F, rng, nrows, k, k - 1)]
    # a zero row of A with a nonzero y: a pivot in y
    inconsistent = _uniquely_solvable(F, rng, nrows - 1, k)[0]
    inconsistent.insert(rng.randrange(nrows), [0] * k + [1 + rng.randrange(q - 1)])
    short = _uniquely_solvable(F, rng, k, k)[0][1:]
    for bad in (deficient, inconsistent, short):
        assert row_reduce(F, bad)[1] == _scalar_gauss_jordan(F, bad)[1]
    # a pivot in y, or fewer than k pivots
    assert k in row_reduce(F, inconsistent)[1]
    assert len(row_reduce(F, deficient)[1]) < k
    assert len(row_reduce(F, short)[1]) < k


def test_row_reduce_with_frequent_whole_matrix_reduction(monkeypatch):
    # GF(p) elimination reduces the whole matrix every _REDUCE_EVERY pivots
    monkeypatch.setattr(linalg, "_REDUCE_EVERY", 2)
    rng = random.Random(11)
    for q in (13, 65521, 256):
        F = Field(q)
        rows = [[rng.randrange(q) for _ in range(9)] for _ in range(7)]
        rows.append([F.add(x, y) for x, y in zip(rows[0], rows[1])])  # rank-deficient
        reduced, pivots = row_reduce(F, rows)
        assert (reduced.tolist(), pivots) == _scalar_gauss_jordan(F, rows)

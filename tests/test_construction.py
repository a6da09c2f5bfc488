"""Parameter validation, message layout, and the encoder."""

import random
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lrcodes import construction
from conftest import assemble_polynomial, rank
from lrcodes.construction import (
    MessageLayout,
    build_code,
    encode,
    message_layout,
    slot_count,
    validate_params,
)
from lrcodes.errors import (
    BudgetExceeded,
    FieldTooSmall,
    InternalInconsistency,
    LengthMismatch,
    LrcError,
    NoSubgroup,
    NotAFieldElement,
    RateBoundViolated,
    SEqualsOne,
)
from lrcodes.field import lagrange_weights, poly_eval, poly_eval_vec


def test_validate_params_reference():
    p = validate_params(13, 10, 5, 3)
    assert (p.s, p.t, p.m_blocks, p.n_bar, p.k_prime) == (2, 2, 3, 12, 7)


def test_validate_params_divisible_remap():
    p = validate_params(13, 12, 6, 3)
    assert (p.s, p.t, p.m_blocks, p.n_bar, p.k_prime) == (4, 0, 3, 12, 6)


def test_validate_params_rejections():
    with pytest.raises(SEqualsOne):
        validate_params(13, 9, 5, 3)
    with pytest.raises(RateBoundViolated):
        validate_params(13, 10, 8, 3)
    with pytest.raises(FieldTooSmall):
        validate_params(13, 14, 5, 3)  # n_bar = 16 > 12 reachable points
    with pytest.raises(NoSubgroup):
        validate_params(13, 10, 5, 4)  # 5 divides neither 12 nor a power of 2
    with pytest.raises(LrcError):
        validate_params(13, 4, 2, 4)  # r >= n
    with pytest.raises(LrcError):
        validate_params(13, 10, 0, 3)


@pytest.mark.parametrize(
    "args", [(13, 10, True, 3), (True, 10, 5, 3), (13, True, 1, 3), (13, 10, 5, True)]
)
def test_validate_params_refuses_bools(args):
    # True is an int in Python; (13, 10, True, 3) used to build a k = 1 code
    with pytest.raises(LrcError, match="positive integer"):
        validate_params(*args)


def test_message_layout_reference():
    layout = message_layout(validate_params(13, 10, 5, 3))
    assert [slot_count(7, 3, i) for i in range(3)] == [2, 1, 1]
    assert layout.a_slots == ((0, 1), (0, 2), (1, 1), (2, 1))
    assert layout.b_count == 1


def test_message_layout_divisible():
    layout = message_layout(validate_params(13, 12, 6, 3))
    assert [slot_count(6, 3, i) for i in range(3)] == [1, 1, 1]
    assert len(layout.a_slots) == 3
    assert layout.b_count == 3


def test_message_layout_degenerate_small_k():
    # k < s-1 leaves k' < r: no a-slots, all symbols ride on h_B
    layout = message_layout(validate_params(13, 7, 1, 3))
    assert layout.a_slots == ()
    assert layout.b_count == 1


@pytest.mark.parametrize("q,r", [(13, 2), (13, 3), (16, 3), (17, 3)])
def test_layout_count_identity(q, r):
    for n in range(5, q + 1):
        for k in range(1, n):
            try:
                p = validate_params(q, n, k, r)
            except LrcError:
                continue
            layout = message_layout(p)
            assert len(layout.a_slots) + layout.b_count == k


def test_build_code_reference(ref_spec):
    assert ref_spec.eval_points == (1, 2, 3, 4, 5, 6, 8, 10, 11, 12)
    assert ref_spec.partition.B == (7, 9)
    assert ref_spec.h_B == (11, 10, 1)  # x^2 + 10x + 11
    assert ref_spec.good.g_tilde == (4, 0, 0, 0, 1)  # x^4 + 4


def test_build_code_divisible_has_trivial_h_B():
    spec = build_code(validate_params(13, 12, 6, 3))
    assert spec.partition.B == ()
    assert spec.h_B == (1,)
    assert len(spec.eval_points) == 12


def test_generator_rank_is_k(grid_specs):
    for p, spec in grid_specs:
        assert rank(spec.field, spec.G) == p.k


def _rowwise_generator(F, layout, g_tilde, h_B, eval_points):
    """G by one mul_vec per slot: the reference for _generator_matrix's
    single product of index-selected stacks."""
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
    return np.array(rows, dtype=np.int64)


# the repair and degraded benchmark codes, and two of the certify codes
BENCH_CODES = [(65536, 62, 40, 7), (65521, 118, 80, 4), (16, 14, 5, 3), (1024, 8, 2, 2)]


def test_generator_matrix_matches_rowwise_reference(grid_specs):
    specs = [spec for _, spec in grid_specs]
    specs += [build_code(validate_params(*code)) for code in BENCH_CODES]
    for spec in specs:
        args = (spec.field, spec.layout, spec.good.g_tilde, spec.h_B, spec.eval_points)
        want = _rowwise_generator(*args)
        got = construction._generator_matrix(*args)
        assert np.array_equal(got, want)
        assert spec.G.dtype == np.int64 and spec.G.tobytes() == want.tobytes()


# In the reference code deg g_tilde = 4, deg h_B = 2 and the cap is 8.
# Both layouts below have five slot polynomials that are independent and
# vanish on B, so G still has rank 5 and an elimination would accept it;
# only the degree certificate refuses them.
@pytest.mark.parametrize(
    "a_slots",
    [
        ((0, 2), (4, 1), (1, 1), (2, 1)),  # g_tilde^2 and x^4 g_tilde: both degree 8
        ((0, 1), (1, 2), (1, 1), (2, 1)),  # x g_tilde^2: degree 9, one over the cap
    ],
)
def test_degree_certificate_refuses_layout(monkeypatch, a_slots):
    monkeypatch.setattr(
        construction, "message_layout", lambda params: MessageLayout(a_slots, b_count=1)
    )
    with pytest.raises(InternalInconsistency, match="slot degrees"):
        build_code(validate_params(13, 10, 5, 3))


def test_validate_params_refuses_a_huge_generator_at_once():
    # k * n = 1.97e9 symbols, about 15 GiB as int64
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded, match="2\\^24"):
            validate_params(65536, 65534, 30000, 15)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_readme_long_code_is_under_the_size_cap():
    # k * n = 8e6 <= 2^24: the README's long code still builds
    p = validate_params(65536, 4000, 2000, 15)
    assert p.k * p.n <= construction.MAX_GENERATOR_SYMBOLS
    assert build_code(p).G.shape == (2000, 4000)


@pytest.mark.parametrize("q", [65521, 65536])
def test_build_code_peak_is_about_one_generator_and_a_half(q):
    # 8 MiB of int64 symbols.  Over GF(p) the product once cast both uint16
    # stacks to int64 before multiplying, and CodeSpec copied the result:
    # 2.57 G at this size, and either fix alone leaves it above 2 G.
    p = validate_params(q, 2048, 512, 15)
    tracemalloc.start()
    try:
        spec = build_code(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * spec.G.nbytes


def test_code_spec_keeps_its_own_generator_and_copies_a_writable_one():
    built = build_code(validate_params(13, 10, 5, 3))
    assert replace(built, G=built.G).G is built.G
    G = built.G.copy()
    spec = replace(built, G=G)
    G[0, 0] += 1
    assert np.array_equal(spec.G, built.G) and not spec.G.flags.writeable


def test_build_long_code_is_fast():
    # an elimination over G took about 4.6 s on a 2-core machine; the degree
    # certificate is O(k)
    start = time.perf_counter()
    spec = build_code(validate_params(65536, 1600, 800, 15))
    assert time.perf_counter() - start < 1.0
    assert spec.G.shape == (800, 1600)


def test_assemble_zero_message(ref_spec):
    assert assemble_polynomial([0, 0, 0, 0, 0], ref_spec) == []


def test_assemble_b_only_message(ref_spec):
    # only b_0 = 1: the polynomial is h_B itself
    assert assemble_polynomial([0, 0, 0, 0, 1], ref_spec) == [11, 10, 1]


def test_assemble_top_slot_hits_degree_cap(ref_spec):
    # a_{0,2} = 1: f = (x^4 + 4)^2, degree 8 = k' + ceil(k'/r) - 2
    f = assemble_polynomial([0, 1, 0, 0, 0], ref_spec)
    assert f == [3, 0, 0, 0, 8, 0, 0, 0, 1]
    assert len(f) - 1 == 8


def test_encode_rejects_bool_and_out_of_range(ref_spec):
    for msg in ([True, 0, 0, 0, 0], [0, 0, 0, 0, 13], [0, -1, 0, 0, 0]):
        with pytest.raises(NotAFieldElement):
            encode(msg, ref_spec)


def test_assemble_rejects_wrong_length(ref_spec):
    with pytest.raises(LengthMismatch):
        assemble_polynomial([0, 0, 0], ref_spec)


def test_encode_reference_values(ref_spec):
    assert encode([0] * 5, ref_spec) == [0] * 10
    cw = encode([0, 0, 0, 0, 1], ref_spec)
    pts = ref_spec.eval_points
    assert cw[pts.index(4)] == 2
    assert cw[pts.index(6)] == 3
    assert cw[pts.index(1)] == 9


def test_encode_agrees_with_generator_matrix(ref_spec):
    F = ref_spec.field
    rng = random.Random(7)
    for _ in range(50):
        msg = [rng.randrange(13) for _ in range(5)]
        cw = encode(msg, ref_spec)
        by_rows = [0] * 10
        for a, row in zip(msg, ref_spec.G):
            for j, x in enumerate(row):
                by_rows[j] = F.add(by_rows[j], F.mul(a, x))
        assert cw == by_rows


@pytest.mark.parametrize("q,n,k,r", [(13, 10, 5, 3), (16, 10, 5, 3), (13, 12, 6, 3)])
def test_encode_linearity(q, n, k, r):
    spec = build_code(validate_params(q, n, k, r))
    F = spec.field
    rng = random.Random(q + n)
    for _ in range(100):
        u = [rng.randrange(q) for _ in range(k)]
        v = [rng.randrange(q) for _ in range(k)]
        a, b = rng.randrange(q), rng.randrange(q)
        combo = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(u, v)]
        expect = [
            F.add(F.mul(a, x), F.mul(b, y))
            for x, y in zip(encode(u, spec), encode(v, spec))
        ]
        assert encode(combo, spec) == expect


@pytest.mark.parametrize("q,n,k,r", [(13, 10, 5, 3), (16, 10, 5, 3), (13, 12, 6, 3)])
def test_degree_cap_random_messages(q, n, k, r):
    spec = build_code(validate_params(q, n, k, r))
    p = spec.params
    cap = p.k_prime + -(-p.k_prime // p.r) - 2
    rng = random.Random(q * n)
    for _ in range(10_000):
        msg = [rng.randrange(q) for _ in range(k)]
        assert len(assemble_polynomial(msg, spec)) - 1 <= cap


def test_extend_to_parent_reference(ref_spec):
    msg = [0, 0, 0, 0, 1]
    f = assemble_polynomial(msg, ref_spec)
    # parent order is block order; the dropped points 7 and 9 sit in the
    # last block (4, 6, 7, 9) and must read zero
    parent_points = [x for block in ref_spec.partition.blocks for x in block]
    word = [poly_eval(ref_spec.field, f, x) for x in parent_points]
    assert len(word) == 12
    assert word[parent_points.index(7)] == 0
    assert word[parent_points.index(9)] == 0
    # restriction to the surviving points is the codeword
    cw = encode(msg, ref_spec)
    surviving = {p: v for p, v in zip(ref_spec.eval_points, cw)}
    for point, value in zip(parent_points, word):
        if point in surviving:
            assert value == surviving[point]


def test_block_restriction_has_low_degree(grid_specs):
    # within any single block, every codeword polynomial looks like a
    # polynomial of degree <= r-1: that is what makes local repair work.
    # On the r+1 block points that is the same as the first r values
    # predicting the last one by Lagrange interpolation.
    rng = random.Random(5)
    sample = rng.sample(grid_specs, 12)
    for p, spec in sample:
        F = spec.field
        for _ in range(20):
            msg = [rng.randrange(p.q) for _ in range(p.k)]
            f = assemble_polynomial(msg, spec)
            for block in spec.partition.blocks:
                values = [poly_eval(F, f, x) for x in block]
                weights = lagrange_weights(F, block[:-1], block[-1])
                predicted = 0
                for w, v in zip(weights, values):
                    predicted = F.add(predicted, F.mul(w, v))
                assert predicted == values[-1]

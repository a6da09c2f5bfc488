"""Parameter validation, message layout, and the encoder."""

import random

import pytest

from lrcodes.construction import (
    assemble_polynomial,
    build_code,
    encode,
    message_layout,
    validate_params,
)
from lrcodes.errors import (
    FieldTooSmall,
    LengthMismatch,
    LrcError,
    NoSubgroup,
    NotAFieldElement,
    RateBoundViolated,
    SEqualsOne,
)
from lrcodes.field import lagrange_weights, poly_eval
from lrcodes.linalg import rank


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
    assert layout.S_values == (2, 1, 1)
    assert layout.a_slots == ((0, 1), (0, 2), (1, 1), (2, 1))
    assert layout.b_count == 1


def test_message_layout_divisible():
    layout = message_layout(validate_params(13, 12, 6, 3))
    assert layout.S_values == (1, 1, 1)
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

"""Local repair and erasure decoding."""

import random
from itertools import combinations

import pytest

from lrcodes.construction import build_code, encode, validate_params
from lrcodes.errors import (
    DuplicateAbscissa,
    IndexOutOfRange,
    LengthMismatch,
    NotAFieldElement,
    Unrecoverable,
)
from lrcodes.repair import (
    apply_erasures,
    decode_erasures,
    erasure_pattern,
    locate_group,
    repair_coordinate,
    repair_local,
)
from lrcodes.verify import minimum_weight_word


def test_locate_group_full_block(ref_spec):
    i = ref_spec.eval_points.index(5) + 1
    g_idx, helpers, zeros = locate_group(ref_spec, i)
    assert g_idx == 1
    assert set(helpers) == {1, 8, 12}
    assert zeros == ()


def test_locate_group_short_block(ref_spec):
    i = ref_spec.eval_points.index(4) + 1
    g_idx, helpers, zeros = locate_group(ref_spec, i)
    assert g_idx == 3
    assert helpers == (6,)
    assert zeros == (7, 9)


def test_locate_group_always_r_known_values(grid_specs):
    for p, spec in grid_specs[::7]:
        for i in range(1, p.n + 1):
            _, helpers, zeros = locate_group(spec, i)
            assert len(helpers) + len(zeros) == p.r


def test_locate_group_range(ref_spec):
    for bad in (0, 11, True, 1.0, "1"):
        with pytest.raises(IndexOutOfRange):
            locate_group(ref_spec, bad)


def test_repair_local_zero_codeword(ref_spec):
    i = ref_spec.eval_points.index(5) + 1
    assert repair_local(ref_spec, i, [(1, 0), (8, 0), (12, 0)]) == 0


def test_repair_local_reference(ref_spec):
    i = ref_spec.eval_points.index(4) + 1
    assert repair_local(ref_spec, i, [(6, 3), (7, 0), (9, 0)]) == 2


def test_repair_local_requires_exactly_r(ref_spec):
    i = ref_spec.eval_points.index(4) + 1
    with pytest.raises(LengthMismatch):
        repair_local(ref_spec, i, [(6, 3), (7, 0)])
    with pytest.raises(LengthMismatch):
        repair_local(ref_spec, i, [(6, 3), (7, 0), (9, 0), (1, 1)])


def test_repair_local_duplicate_points(ref_spec):
    i = ref_spec.eval_points.index(4) + 1
    with pytest.raises(DuplicateAbscissa):
        repair_local(ref_spec, i, [(6, 3), (6, 3), (9, 0)])


def test_repair_local_rejects_non_field_symbols():
    spec = build_code(validate_params(16, 10, 5, 3))
    i = 1
    _, helpers, zeros = locate_group(spec, i)
    pairs = [(x, 1000) for x in helpers] + [(b, 0) for b in zeros]
    with pytest.raises(NotAFieldElement):
        repair_local(spec, i, pairs)
    for bad in (16, -1, True):
        with pytest.raises(NotAFieldElement):
            repair_local(spec, i, [(bad, 0)] + pairs[1:])


def test_repair_coordinate_rejects_non_field_helper():
    spec = build_code(validate_params(16, 10, 5, 3))
    received = encode([1, 2, 3, 4, 5], spec)
    received[0] = None
    _, helpers, _ = locate_group(spec, 1)
    received[spec.eval_points.index(helpers[0])] = 99
    with pytest.raises(NotAFieldElement):
        repair_coordinate(spec, received, 1)


def test_repair_coordinate_length_check(ref_spec):
    with pytest.raises(LengthMismatch):
        repair_coordinate(ref_spec, [None, 0, 0], 1)


def test_repair_coordinate_round_trip():
    for q, n, k, r in [(13, 10, 5, 3), (16, 10, 5, 3), (13, 12, 6, 3), (17, 14, 7, 3), (16, 13, 6, 4)]:
        spec = build_code(validate_params(q, n, k, r))
        rng = random.Random(q + n + k)
        for _ in range(30):
            msg = [rng.randrange(q) for _ in range(k)]
            cw = encode(msg, spec)
            for i in range(1, n + 1):
                received = list(cw)
                received[i - 1] = None
                assert repair_coordinate(spec, received, i) == cw[i - 1]


def test_repair_coordinate_erased_helper(ref_spec):
    cw = encode([1, 2, 3, 4, 5], ref_spec)
    received = apply_erasures(cw, erasure_pattern(ref_spec, [1, 5]))
    # coordinates 1 (point 1) and 5 (point 5) share a group
    with pytest.raises(Unrecoverable):
        repair_coordinate(ref_spec, received, 1)


def test_decode_no_erasures(ref_spec):
    rng = random.Random(3)
    for _ in range(25):
        msg = [rng.randrange(13) for _ in range(5)]
        assert decode_erasures(ref_spec, encode(msg, ref_spec)) == msg


def test_decode_small_patterns(ref_spec):
    rng = random.Random(4)
    for e in (1, 2):
        for subset in combinations(range(1, 11), e):
            msg = [rng.randrange(13) for _ in range(5)]
            received = apply_erasures(encode(msg, ref_spec), erasure_pattern(ref_spec, subset))
            assert decode_erasures(ref_spec, received) == msg


def test_decode_unrecoverable_on_min_weight_support(ref_spec):
    # erasing the support of a minimum-weight codeword wipes all the
    # information that distinguishes it from zero
    _, msg = minimum_weight_word(ref_spec, 5_000_000)
    cw = encode(msg, ref_spec)
    support = [j + 1 for j, v in enumerate(cw) if v]
    received = apply_erasures(cw, erasure_pattern(ref_spec, support))
    with pytest.raises(Unrecoverable):
        decode_erasures(ref_spec, received)


def test_decode_rejects_non_codeword(ref_spec):
    cw = encode([1, 2, 3, 4, 5], ref_spec)
    cw[0] = (cw[0] + 1) % 13
    with pytest.raises(Unrecoverable):
        decode_erasures(ref_spec, cw)


@pytest.mark.parametrize("bad", [-1, 13, True, 2.0, "3"])
def test_decode_rejects_non_field_symbols(ref_spec, bad):
    # a negative symbol would otherwise index a log table from its end
    received = apply_erasures(encode([1, 2, 3, 4, 5], ref_spec), erasure_pattern(ref_spec, [2]))
    received[4] = bad
    with pytest.raises(NotAFieldElement):
        decode_erasures(ref_spec, received)


def test_decode_rejects_non_field_symbols_binary():
    spec = build_code(validate_params(16, 10, 5, 3))
    received = encode([1, 2, 3, 4, 5], spec)
    received[0] = None
    for bad in (-1, 16):
        received[1] = bad
        with pytest.raises(NotAFieldElement):
            decode_erasures(spec, received)


def test_decode_length_check(ref_spec):
    with pytest.raises(LengthMismatch):
        decode_erasures(ref_spec, [0] * 9)


def test_erasure_pattern_validation(ref_spec):
    with pytest.raises(IndexOutOfRange):
        erasure_pattern(ref_spec, [0])
    with pytest.raises(IndexOutOfRange):
        erasure_pattern(ref_spec, [11])
    from lrcodes.errors import LrcError

    with pytest.raises(LrcError):
        erasure_pattern(ref_spec, [3, 3])


def test_coordinates_refuse_bools(ref_spec):
    # True == 1, but it is not a coordinate
    with pytest.raises(IndexOutOfRange):
        erasure_pattern(ref_spec, [True])
    with pytest.raises(IndexOutOfRange):
        locate_group(ref_spec, True)
    with pytest.raises(IndexOutOfRange):
        repair_local(ref_spec, True, [(5, 0), (8, 0), (12, 0)])

"""Local repair and erasure decoding."""

import random
import time
from itertools import chain, combinations

import pytest

from conftest import rank, scan_group
from lrcodes.bounds import predicted_distance
from lrcodes.construction import build_code, encode, validate_params
from lrcodes.errors import (
    DuplicateAbscissa,
    IndexOutOfRange,
    LengthMismatch,
    LrcError,
    NotAFieldElement,
    Unrecoverable,
)
from lrcodes.repair import decode_erasures, locate_group, repair_coordinate, repair_local
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


@pytest.fixture(scope="module")
def group_specs(grid_specs):
    """The grid codes, two benchmark codes (t = 2) and one with t = 0."""
    extra = ((65536, 62, 40, 7), (65521, 118, 80, 4), (13, 12, 5, 3))
    return [spec for _, spec in grid_specs] + [build_code(validate_params(*c)) for c in extra]


def test_locate_group_matches_block_scan(group_specs):
    for spec in group_specs:
        for i in range(1, spec.params.n + 1):
            assert locate_group(spec, i) == scan_group(spec, i), (spec.params, i)


def test_groups_are_the_blocks_without_b(group_specs):
    for spec in group_specs:
        p, blocks, B = spec.params, spec.partition.blocks, spec.partition.B
        assert sorted(chain.from_iterable(spec.groups)) == list(range(p.n))
        assert len(spec.groups) == len(blocks) == p.m_blocks
        for g, (group, block) in enumerate(zip(spec.groups, blocks)):
            assert tuple(spec.eval_points[j] for j in group) == tuple(
                x for x in block if x not in B
            )
            assert all(spec.group_of[j] == g for j in group)
            # only the last group is short, and only when t > 0
            short = g == len(blocks) - 1 and p.t > 0
            assert len(group) == (p.s if short else p.r + 1)
        assert len(spec.group_of) == p.n


def test_repair_time_does_not_grow_with_n():
    # a repair reads only its own group: at the parent, which scanned
    # every block and indexed all n points, n = 20,003 took 52x n = 118
    cases = []
    for n in (118, 20_003):
        spec = build_code(validate_params(65521, n, 80, 4))
        received = encode(list(range(80)), spec)
        expected, received[n - 1] = received[n - 1], None
        cases.append((spec, received, n, expected))
    best = [float("inf")] * len(cases)
    for _ in range(20):
        for c, (spec, received, i, expected) in enumerate(cases):
            start = time.perf_counter()
            value = repair_coordinate(spec, received, i)
            best[c] = min(best[c], time.perf_counter() - start)
            assert value == expected
    assert best[1] <= 3 * best[0], best


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


def test_repair_local_refuses_points_outside_the_group(ref_spec):
    # r distinct field points that are not coordinate 4's group would give 3, not cw[3] = 10
    cw = encode([1, 2, 3, 4, 5], ref_spec)
    assert cw[3] == 10
    with pytest.raises(LrcError):
        repair_local(ref_spec, 4, [(1, cw[0]), (5, cw[4]), (8, cw[6])])
    # the group's points in any order are accepted; its known zeros must carry 0
    assert repair_local(ref_spec, 4, [(9, 0), (6, cw[5]), (7, 0)]) == 10
    with pytest.raises(LrcError):
        repair_local(ref_spec, 4, [(6, cw[5]), (7, 1), (9, 0)])


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
    received = [None if j in (1, 5) else v for j, v in enumerate(cw, 1)]
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
            received = [None if j in subset else v for j, v in enumerate(encode(msg, ref_spec), 1)]
            assert decode_erasures(ref_spec, received) == msg


def test_decode_returns_python_ints(ref_spec):
    for spec in (ref_spec, build_code(validate_params(16, 14, 5, 3))):
        received = encode([1, 2, 3, 4, 5], spec)
        received[0] = received[3] = None
        got = decode_erasures(spec, received)
        assert got == [1, 2, 3, 4, 5] and all(type(x) is int for x in got)


def test_decode_unrecoverable_on_min_weight_support(ref_spec):
    # erasing the support of a minimum-weight codeword wipes all the
    # information that distinguishes it from zero
    _, msg = minimum_weight_word(ref_spec, 5_000_000)
    cw = encode(msg, ref_spec)
    support = [j + 1 for j, v in enumerate(cw) if v]
    received = [None if j in support else v for j, v in enumerate(cw, 1)]
    with pytest.raises(Unrecoverable):
        decode_erasures(ref_spec, received)


# the repair and degraded benchmark codes
BENCH_CODES = [(65536, 62, 40, 7), (65521, 118, 80, 4)]


def _erase(spec, msg, erased):
    return [None if j in erased else v for j, v in enumerate(encode(msg, spec))]


def test_decode_succeeds_exactly_when_the_known_columns_have_rank_k(grid_specs):
    # beyond d - 1 erasures msg . G = received still pins msg down whenever
    # the known columns of G have rank k: random patterns of every size
    # from d to n - k, three per size on the grid codes, four on the others
    rng = random.Random(31)
    specs = [(spec, 3) for _, spec in grid_specs]
    specs += [(build_code(validate_params(*code)), 4) for code in BENCH_CODES]
    decoded = {True: 0, False: 0}
    for spec, tries in specs:
        p = spec.params
        for size in range(predicted_distance(p), p.n - p.k + 1):
            for _ in range(tries):
                msg = [rng.randrange(p.q) for _ in range(p.k)]
                erased = set(rng.sample(range(p.n), size))
                received = _erase(spec, msg, erased)
                known = [j for j in range(p.n) if j not in erased]
                full_rank = rank(spec.field, spec.G[:, known].T) == p.k
                decoded[full_rank] += 1
                if full_rank:
                    assert decode_erasures(spec, received) == msg
                else:
                    with pytest.raises(Unrecoverable):
                        decode_erasures(spec, received)
    assert min(decoded.values()) > 50, decoded


def test_one_erasure_in_every_group_decodes(grid_specs):
    # each erased symbol is fixed by its group's other r values (helpers
    # and known zeros), so the known symbols determine the codeword
    rng = random.Random(37)
    specs = [spec for _, spec in grid_specs]
    specs += [build_code(validate_params(*code)) for code in BENCH_CODES + [(257, 200, 120, 7)]]
    for spec in specs:
        p = spec.params
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        erased = {rng.choice(group) for group in spec.groups}
        assert decode_erasures(spec, _erase(spec, msg, erased)) == msg


def test_decode_rejects_non_codeword(ref_spec):
    cw = encode([1, 2, 3, 4, 5], ref_spec)
    cw[0] = (cw[0] + 1) % 13
    with pytest.raises(Unrecoverable):
        decode_erasures(ref_spec, cw)


@pytest.mark.parametrize("bad", [-1, 13, True, 2.0, "3"])
def test_decode_rejects_non_field_symbols(ref_spec, bad):
    # a negative symbol would otherwise index a log table from its end
    received = encode([1, 2, 3, 4, 5], ref_spec)
    received[1] = None
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


def test_decode_all_erased_is_unrecoverable(ref_spec):
    # no known column: an empty system of rank 0 < k
    with pytest.raises(Unrecoverable):
        decode_erasures(ref_spec, [None] * 10)


def test_decode_length_check(ref_spec):
    with pytest.raises(LengthMismatch):
        decode_erasures(ref_spec, [0] * 9)


def test_coordinates_refuse_bools(ref_spec):
    # True == 1, but it is not a coordinate
    with pytest.raises(IndexOutOfRange):
        locate_group(ref_spec, True)
    with pytest.raises(IndexOutOfRange):
        repair_local(ref_spec, True, [(5, 0), (8, 0), (12, 0)])

"""The brute-force oracles themselves, checked against slower re-derivations."""

import random
import time
from itertools import product

import pytest

from lrcodes.construction import build_code, encode, extend_to_parent, validate_params
from lrcodes.errors import BudgetExceeded
from lrcodes.field import Field
from lrcodes.verify import (
    brute_force_distance,
    exhaustive_erasure_test,
    generator_matches,
    group_dual_vector,
    locality_holds,
    minimum_weight_word,
    parent_word_ok,
    repair_groups,
    run_verification,
    verify_locality,
    verify_shortening,
)


def _naive_distance(spec):
    # independent oracle: walk the whole message space with scalar field
    # arithmetic, no numpy, no chunking
    F = spec.field
    p = spec.params
    best = p.n + 1
    for msg in product(range(p.q), repeat=p.k):
        if not any(msg):
            continue
        w = sum(1 for v in encode(list(msg), spec) if v)
        best = min(best, w)
    return best


@pytest.mark.parametrize("q,n,k,r", [(13, 5, 2, 2), (13, 8, 3, 3), (16, 7, 3, 3), (17, 7, 2, 3)])
def test_distance_matches_naive_enumeration(q, n, k, r):
    spec = build_code(validate_params(q, n, k, r))
    assert brute_force_distance(spec, 5_000_000) == _naive_distance(spec)


def test_distance_reference_values(ref_spec):
    assert brute_force_distance(ref_spec, 5_000_000) == 4
    spec = build_code(validate_params(13, 12, 6, 3))
    assert brute_force_distance(spec, 5_000_000) == 6


def test_distance_chunk_invariance(ref_spec):
    for cap in (7, 64, 1 << 16):
        assert brute_force_distance(ref_spec, 5_000_000, chunk_cap=cap) == 4


def test_distance_budget(ref_spec):
    with pytest.raises(BudgetExceeded, match="371293"):
        brute_force_distance(ref_spec, 1000)


def test_distance_at_least_two(grid_specs):
    rng = random.Random(11)
    for p, spec in rng.sample(grid_specs, 10):
        assert brute_force_distance(spec, 5_000_000) >= 2


def test_minimum_weight_word_is_witness(ref_spec):
    w, msg = minimum_weight_word(ref_spec, 5_000_000)
    assert w == 4
    cw = encode(msg, ref_spec)
    assert sum(1 for v in cw if v) == 4


def test_generator_matches_the_polynomial_path(grid_specs):
    # build_code's G, from pointwise powers, against the assembled polynomials
    for p, spec in grid_specs:
        assert generator_matches(spec)
    for code in ((65536, 62, 40, 7), (65521, 118, 80, 4), (1024, 120, 60, 10)):
        assert generator_matches(build_code(validate_params(*code)))


def test_verify_locality_on_built_codes(grid_specs):
    rng = random.Random(13)
    for p, spec in rng.sample(grid_specs, 15):
        assert verify_locality(spec)


def test_locality_fails_for_mds_control():
    # a Reed-Solomon generator matrix has no dual word of weight r+1 < k+1,
    # so no grouping of size r+1 can pass
    F = Field(13)
    k, n, r = 5, 10, 2
    G = [[F.pow(x, i) for x in range(1, n + 1)] for i in range(k)]
    groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert not locality_holds(F, G, groups)


def test_last_group_dual_weight_is_s():
    # n = 11, r = 3 gives s = 3: the short group carries one constraint
    # touching all s of its coordinates
    spec = build_code(validate_params(13, 11, 5, 3))
    groups = repair_groups(spec)
    assert len(groups[-1]) == 3
    v = group_dual_vector(spec.field, spec.G, groups[-1])
    assert v is not None
    assert all(x != 0 for x in v)


def test_dual_vector_annihilates_codewords(ref_spec):
    F = ref_spec.field
    rng = random.Random(17)
    for cols in repair_groups(ref_spec):
        v = group_dual_vector(F, ref_spec.G, cols)
        assert v is not None
        for _ in range(20):
            msg = [rng.randrange(13) for _ in range(5)]
            cw = encode(msg, ref_spec)
            acc = 0
            for c, x in zip(cols, v):
                acc = F.add(acc, F.mul(cw[c], x))
            assert acc == 0


def test_verify_shortening(ref_spec):
    assert verify_shortening(ref_spec, 1000)


def test_parent_word_checks(ref_spec):
    msg = [3, 1, 4, 1, 5]
    word = extend_to_parent(msg, ref_spec)
    assert parent_word_ok(ref_spec, word)
    # perturbing a dropped-point coordinate must be caught
    parent_points = [x for b in ref_spec.partition.blocks for x in b]
    bad = list(word)
    bad[parent_points.index(7)] = 1
    assert not parent_word_ok(ref_spec, bad)
    # perturbing any other coordinate breaks the degree cap
    bad = list(word)
    bad[0] = (bad[0] + 1) % 13
    assert not parent_word_ok(ref_spec, bad)


def test_exhaustive_erasure(ref_spec):
    assert exhaustive_erasure_test(ref_spec, 0)
    assert exhaustive_erasure_test(ref_spec, 3)
    assert not exhaustive_erasure_test(ref_spec, 4)
    with pytest.raises(BudgetExceeded):
        exhaustive_erasure_test(ref_spec, 3, budget=10)


def test_run_verification_report(ref_spec):
    report = run_verification(ref_spec, budget=5_000_000)
    assert report.rank_ok
    assert report.generator_ok
    assert report.distance_found == 4
    assert report.distance_expected == 4
    assert report.locality_ok
    assert report.shortening_ok
    assert report.erasure_ok
    assert report.enumerated_words == 13**5 - 1
    assert report.all_ok


def test_run_verification_budget_preflight(ref_spec):
    with pytest.raises(BudgetExceeded):
        run_verification(ref_spec, budget=100)


def test_verify_k1_gf65536_needs_no_q_squared_table():
    # k = 1 passes the q^k budget at q = 2^16; a q x q multiply table would need 32 GiB
    spec = build_code(validate_params(65536, 6, 1, 3))
    start = time.perf_counter()
    report = run_verification(spec, budget=5_000_000)
    elapsed = time.perf_counter() - start
    assert report.all_ok
    assert report.distance_found == 6
    assert elapsed < 5.0

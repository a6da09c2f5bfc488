"""The brute-force oracles themselves, checked against slower re-derivations."""

import random
import time
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from lrcodes.construction import assemble_polynomial, build_code, encode, validate_params
from lrcodes.errors import BudgetExceeded
from lrcodes.field import lagrange_weights, poly_eval, poly_mul
from lrcodes.linalg import rank
from lrcodes.repair import locate_group, repair_coordinate
from lrcodes.verify import (
    brute_force_distance,
    exhaustive_erasure_test,
    generator_matches,
    minimum_weight_word,
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
    # caps in symbols: one digit in two slices, one digit whole, four digits
    for cap in (70, 640, 655360):
        assert brute_force_distance(ref_spec, 5_000_000, chunk_cap=cap) == 4


def test_distance_memory_is_capped_for_k1():
    # q codewords of n symbols would be a 20 MiB table; the cap slices it
    spec = build_code(validate_params(4096, 300, 1, 2))
    tracemalloc.start()
    try:
        assert brute_force_distance(spec, 5_000_000, chunk_cap=1 << 16) == 300
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
    for code in ((65536, 62, 40, 7), (65521, 118, 80, 4), (1024, 120, 60, 10)):
        assert verify_locality(build_code(validate_params(*code)))


def test_locality_fails_for_column_scaled_generator(ref_spec):
    # G with column 1 doubled still has rank k and the same dual dimension,
    # but repair_coordinate no longer returns symbol 1 of its codewords
    F = ref_spec.field
    G = tuple((F.mul(2, row[0]),) + row[1:] for row in ref_spec.G)
    spec = replace(ref_spec, G=G)
    cw = encode([1, 2, 3, 4, 5], spec)
    assert repair_coordinate(spec, [None] + cw[1:], 1) != cw[0]
    assert not verify_locality(spec)


def test_locality_fails_for_mds_control(ref_spec):
    # a Reed-Solomon generator matrix on the same points has no dual word
    # of weight r+1 < k+1, so no repair group's relation can hold
    F = ref_spec.field
    G = tuple(tuple(F.pow(x, i) for x in ref_spec.eval_points) for i in range(5))
    assert not verify_locality(replace(ref_spec, G=G))


def _group_relations(spec):
    """For each coordinate i (1-based): the helper columns and the
    Lagrange weights on them that give column i."""
    pos = {alpha: j for j, alpha in enumerate(spec.eval_points)}
    for i in range(1, spec.params.n + 1):
        _, helpers, zeros = locate_group(spec, i)
        weights = lagrange_weights(spec.field, helpers + zeros, spec.eval_points[i - 1])
        yield i, [pos[x] for x in helpers], weights[: len(helpers)]


def test_last_group_dual_weight_is_s():
    # n = 11, r = 3 gives s = 3: the short group carries one constraint
    # touching all s of its coordinates
    spec = build_code(validate_params(13, 11, 5, 3))
    F = spec.field
    G = np.array(spec.G)
    short = [(i, cols, w) for i, cols, w in _group_relations(spec) if len(cols) < 3]
    assert len(short) == 3
    for i, cols, w in short:
        assert len(cols) + 1 == 3
        assert all(x != 0 for x in w)
        assert (F.matmul(G[:, cols], np.array(w)[:, None])[:, 0] == G[:, i - 1]).all()


def test_dual_vector_annihilates_codewords(ref_spec):
    F = ref_spec.field
    rng = random.Random(17)
    relations = list(_group_relations(ref_spec))
    for _ in range(20):
        cw = encode([rng.randrange(13) for _ in range(5)], ref_spec)
        for i, cols, w in relations:
            acc = F.neg(cw[i - 1])
            for c, x in zip(cols, w):
                acc = F.add(acc, F.mul(cw[c], x))
            assert acc == 0


def test_verify_shortening(ref_spec):
    assert verify_shortening(ref_spec)


def _tampered_specs(spec):
    F = spec.field
    # B is no longer the root set of h_B: the words miss zeros on B
    other_B = spec.partition.blocks[0][:2]
    yield replace(spec, partition=replace(spec.partition, B=other_B))
    # x * g_tilde still vanishes on B, but the top slot exceeds the degree cap
    g_tilde = tuple(poly_mul(F, [0, 1], spec.good.g_tilde))
    yield replace(spec, good=replace(spec.good, g_tilde=g_tilde))
    # r + 1 lowers the cap k' + ceil(k'/r) - 2 to one below the top slot's degree
    yield replace(spec, params=replace(spec.params, r=spec.params.r + 1))


def test_verify_shortening_rejects_tampered_spec(ref_spec):
    for bad in _tampered_specs(ref_spec):
        assert not verify_shortening(bad)


def _embeds_by_rank(spec):
    # independent oracle: scalar evaluation of every unit message's
    # polynomial on all block points; the words must be zero on B and lie
    # in the column space of the Vandermonde matrix of degrees 0..cap
    F, p = spec.field, spec.params
    points = [x for block in spec.partition.blocks for x in block]
    cap = p.k_prime + -(-p.k_prime // p.r) - 2
    words = []
    for row in range(p.k):
        f = assemble_polynomial([int(i == row) for i in range(p.k)], spec)
        words.append([poly_eval(F, f, x) for x in points])
    if any(w[points.index(b)] for w in words for b in spec.partition.B):
        return False
    vandermonde = [[F.pow(x, e) for e in range(cap + 1)] for x in points]
    augmented = [v + [w[j] for w in words] for j, v in enumerate(vandermonde)]
    return rank(F, augmented) == rank(F, vandermonde)


def test_verify_shortening_matches_rank_reference(grid_specs, ref_spec):
    specs = [spec for _, spec in random.Random(11).sample(grid_specs, 25)]
    specs += [build_code(validate_params(*c)) for c in ((65536, 62, 40, 7), (65521, 118, 80, 4))]
    for spec in specs:
        assert _embeds_by_rank(spec)
        assert verify_shortening(spec)
    for bad in _tampered_specs(ref_spec):
        assert not _embeds_by_rank(bad)
        assert not verify_shortening(bad)


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

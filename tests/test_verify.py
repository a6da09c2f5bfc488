"""The brute-force oracles themselves, checked against slower re-derivations."""

import random
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import (
    assemble_polynomial,
    derive_grid,
    rank,
    reference_generator_matches,
    reference_shortening,
)
from lrcodes import verify
from lrcodes.bounds import predicted_distance
from lrcodes.construction import build_code, encode, validate_params
from lrcodes.errors import BudgetExceeded, Unrecoverable
from lrcodes.field import lagrange_weights, poly_eval, poly_mul
from lrcodes.repair import decode_erasures, locate_group, repair_coordinate
from lrcodes.verify import (
    brute_force_distance,
    generator_matches,
    minimum_weight_word,
    run_verification,
    verify_locality,
    verify_shortening,
)


# the repair and degraded benchmark codes, and a GF(2^10) code
MID_CODES = [(65536, 62, 40, 7), (65521, 118, 80, 4), (1024, 120, 60, 10)]


def _naive_distance(spec):
    # independent oracle: encode every nonzero message of the whole q^k
    # space, message i having the base-q digits of i, 2^14 messages per
    # F.matmul; no scalar classes and no digit table
    F, p = spec.field, spec.params
    total, powers = p.q**p.k, p.q ** np.arange(p.k)
    best = p.n + 1
    for start in range(1, total, 1 << 14):
        msgs = np.arange(start, min(start + (1 << 14), total))[:, None] // powers % p.q
        best = min(best, int(np.count_nonzero(F.matmul(msgs, spec.G), axis=1).min()))
    return best


@pytest.mark.parametrize("q,n,k,r", [(13, 5, 2, 2), (13, 8, 3, 3), (16, 7, 3, 3), (17, 7, 2, 3)])
def test_distance_matches_naive_enumeration(q, n, k, r):
    spec = build_code(validate_params(q, n, k, r))
    assert brute_force_distance(spec, 5_000_000) == _naive_distance(spec)


def test_distance_reference_values(ref_spec):
    assert brute_force_distance(ref_spec, 5_000_000) == 4
    spec = build_code(validate_params(13, 12, 6, 3))
    assert brute_force_distance(spec, 5_000_000) == 6


def test_distance_chunk_invariance(ref_spec, monkeypatch):
    # caps in symbols: one digit in two slices, one digit whole, four digits
    for cap in (70, 640, 655360):
        monkeypatch.setattr(verify, "DEFAULT_CHUNK_CAP", cap)
        assert brute_force_distance(ref_spec, 5_000_000) == 4


def test_distance_memory_is_capped_for_k1(monkeypatch):
    # q codewords of n symbols would be a 20 MiB table; the cap slices it
    spec = build_code(validate_params(4096, 300, 1, 2))
    monkeypatch.setattr(verify, "DEFAULT_CHUNK_CAP", 1 << 16)
    tracemalloc.start()
    try:
        assert brute_force_distance(spec, 5_000_000) == 300
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


# k = 1 .. 5; the last is ref_spec's code
@pytest.mark.parametrize(
    "q,n,k,r", [(13, 5, 1, 2), (13, 5, 2, 2), (13, 8, 3, 3), (16, 10, 4, 3), (13, 10, 5, 3)]
)
def test_scalar_class_walk_matches_full_walk(q, n, k, r, monkeypatch):
    # caps in symbols: a sliced digit-0 table (1, 20, 70), then tables of
    # one, two and every digit below the top one
    spec = build_code(validate_params(q, n, k, r))
    expected = _naive_distance(spec)
    for cap in (1, 20, 70, 640, 4096, 1 << 20):
        monkeypatch.setattr(verify, "DEFAULT_CHUNK_CAP", cap)
        w, msg = minimum_weight_word(spec, 5_000_000)
        assert w == expected, cap
        assert sum(1 for v in encode(msg, spec) if v) == w
        assert [v for v in msg if v][-1] == 1


def test_distance_of_rank_deficient_generator_is_zero(ref_spec, monkeypatch):
    # row j+1 = 5 * row j: the message with 8 at digit j and 1 at digit
    # j+1 encodes to 0.  At cap 70 the table holds digit 0 only, so j = 1
    # puts the zero word on a walked digit; at 2^20 both are in the table.
    F = ref_spec.field
    for j in (0, 1):
        G = list(ref_spec.G)
        G[j + 1] = tuple(F.mul(5, v) for v in G[j])
        spec = replace(ref_spec, G=tuple(G))
        for cap in (70, 1 << 20):
            monkeypatch.setattr(verify, "DEFAULT_CHUNK_CAP", cap)
            w, msg = minimum_weight_word(spec, 5_000_000)
            assert w == 0
            assert any(msg) and not any(encode(msg, spec))
        # the report reads rank_ok off the same walk; elimination is the reference
        report = run_verification(spec, budget=5_000_000)
        assert report.rank_ok == (rank(F, spec.G) == spec.params.k)
        assert not report.rank_ok and not report.all_ok


# the certify benchmark's codes: (weight, witness) as the walk over an
# int64 table that summed and reduced every candidate returned them
CERTIFY_WITNESSES = [
    ((13, 10, 5, 3), 4, [6, 1, 0, 0, 0]),
    ((13, 11, 5, 2), 5, [4, 1, 4, 1, 0]),
    ((16, 14, 5, 3), 8, [7, 1, 0, 0, 0]),
    ((16, 14, 4, 3), 10, [0, 1, 1, 0]),
    ((17, 15, 5, 3), 10, [1, 0, 1, 0, 0]),
    ((256, 14, 2, 4), 13, [1, 1]),
    ((1024, 8, 2, 2), 6, [1, 0]),
]


@pytest.mark.parametrize("code,weight,witness", CERTIFY_WITNESSES)
def test_minimum_weight_word_is_pinned(code, weight, witness):
    assert minimum_weight_word(build_code(validate_params(*code)), 5_000_000) == (weight, witness)


def test_distance_table_memory_at_default_cap():
    # 16^4 low messages of 14 symbols: 15.5 MiB when their words and each
    # candidate's sum were int64 tables
    spec = build_code(validate_params(16, 14, 5, 3))
    tracemalloc.start()
    try:
        assert brute_force_distance(spec, 5_000_000) == 8
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


@pytest.mark.parametrize("q,n,k,r,d", [(4096, 300, 2, 2, 299), (256, 200, 3, 2, 197)])
def test_distance_memory_is_capped_above_k1(q, n, k, r, d, monkeypatch):
    # k = 2: q codewords of n symbols exceed the cap, so digit 0's table
    # is built and read in slices; k = 3: digit 0's table fits but a
    # two-digit one (100 MiB) would not.  Both stay under the k = 1 bound.
    spec = build_code(validate_params(q, n, k, r))
    monkeypatch.setattr(verify, "DEFAULT_CHUNK_CAP", 1 << 16)
    tracemalloc.start()
    try:
        assert brute_force_distance(spec, 10**8) == d
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _every_grid_code():
    """All 340 valid codes of the acceptance grid, q^k unbounded."""
    return [build_code(p) for p in derive_grid(budget=float("inf"))]


def _generator_tamperings(spec):
    """G with one entry changed, a column scaled by 2, the last row
    times x (the wrong power of x), and the first and last rows swapped."""
    F, G = spec.field, spec.G
    k, n = G.shape
    changed = G.copy()
    changed[k // 2, n // 2] = F.add(int(G[k // 2, n // 2]), 1)
    scaled = G.copy()
    scaled[:, n // 3] = F.mul_vec(G[:, n // 3], 2)
    shifted = G.copy()
    shifted[-1] = F.mul_vec(G[-1], np.array(spec.eval_points))
    swapped = [G[[k - 1, *range(1, k - 1), 0]]] if k > 1 else []
    return [replace(spec, G=bad) for bad in [changed, scaled, shifted, *swapped]]


def test_generator_matches_the_polynomial_path():
    # the recurrences against the Vandermonde reference, as built and tampered
    specs = _every_grid_code()
    assert len(specs) == 340
    specs += [build_code(validate_params(*code)) for code in MID_CODES]
    for spec in specs:
        assert generator_matches(spec) and reference_generator_matches(spec)
        for bad in _generator_tamperings(spec):
            assert generator_matches(bad) == reference_generator_matches(bad)


def test_generator_matches_long_codes(long_specs):
    # the reference takes 1.5 s and 4.2 s on these; the recurrences about 0.02 s
    for spec in long_specs:
        assert generator_matches(spec)
        for bad in _generator_tamperings(spec):
            assert not generator_matches(bad)


def test_generator_matches_refuses_a_misshapen_or_foreign_generator(ref_spec):
    # a symbol outside [0, q) would index past GF(2^e)'s log table
    for spec in (ref_spec, build_code(validate_params(16, 14, 5, 3))):
        G, q = spec.G, spec.field.order
        for bad in (G[:, :-1], G[:-1], np.where(G == G[0, 0], q, G), np.where(G == G[1, 1], -1, G)):
            assert not generator_matches(replace(spec, G=bad))


def test_verify_locality_on_built_codes(grid_specs):
    rng = random.Random(13)
    for p, spec in rng.sample(grid_specs, 15):
        assert verify_locality(spec)
    for code in MID_CODES:
        assert verify_locality(build_code(validate_params(*code)))


def test_locality_fails_for_column_scaled_generator(ref_spec):
    # G with column 1 doubled still has rank k and the same dual dimension,
    # but repair_coordinate no longer returns symbol 1 of its codewords
    F = ref_spec.field
    G = ref_spec.G.copy()
    G[:, 0] = F.mul_vec(G[:, 0], 2)
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


@pytest.fixture(scope="module")
def long_specs():
    """The two 1,598-symbol codes (t = 2, d = 746), over GF(65521) and GF(2^16)."""
    return [build_code(validate_params(q, 1598, 800, 15)) for q in (65521, 65536)]


def test_verify_shortening(ref_spec, long_specs):
    for spec in [ref_spec, *long_specs]:
        assert verify_shortening(spec)


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


def test_verify_shortening_rejects_tampered_spec(ref_spec, long_specs):
    for bad in _tampered_specs(ref_spec):
        assert not verify_shortening(bad)
    for spec in long_specs:
        *_, raised_r = _tampered_specs(spec)
        assert not verify_shortening(raised_r)
    # x * g_tilde lifts the top slot of (13, 11, 6, 2) to degree 12 = n_bar.
    # x^12 = 1 on all 12 block points, so its word is that of a polynomial
    # of degree <= 9: the words embed, and only the slot's degree is wrong.
    spec = build_code(validate_params(13, 11, 6, 2))
    _, lifted, _ = _tampered_specs(spec)
    assert _embeds_by_rank(lifted)
    assert not verify_shortening(lifted)


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


def test_verify_shortening_agrees_with_the_coefficient_reference(long_specs):
    specs = _every_grid_code() + long_specs
    specs += [build_code(validate_params(*code)) for code in MID_CODES]
    for spec in specs:
        assert verify_shortening(spec) and reference_shortening(spec)
        for bad in _tampered_specs(spec):
            assert verify_shortening(bad) == reference_shortening(bad)


def _erasure_reference(spec, e):
    # the per-pattern oracle: one decode_erasures call per e-subset, on
    # messages from its own random.Random; only verdicts are compared
    p = spec.params
    rng = random.Random(0)
    for subset in combinations(range(1, p.n + 1), e):
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        received = [None if j in subset else v for j, v in enumerate(encode(msg, spec), 1)]
        try:
            if decode_erasures(spec, received) != msg:
                return False
        except Unrecoverable:
            return False
    return True


def _tampered_generators(spec):
    G = spec.G
    zeroed = G.copy()
    zeroed[:, 0] = 0
    duplicated = G.copy()
    duplicated[-1] = G[0]
    # column 1 becomes column 0, so a word zero on one is zero on both
    overwritten = G.copy()
    overwritten[:, 1] = G[:, 0]
    return [replace(spec, G=tampered) for tampered in (zeroed, duplicated, overwritten)]


def test_exhaustive_erasure(ref_spec):
    # e erasures all decode exactly when the minimum weight exceeds e
    weight, _ = minimum_weight_word(ref_spec, 5_000_000)
    for e in (0, 3, 4):
        assert (weight > e) == _erasure_reference(ref_spec, e) == (e < 4)


def test_exhaustive_erasure_matches_per_pattern_reference(grid_specs, ref_spec):
    small = [spec for p, spec in grid_specs if comb(p.n, predicted_distance(p)) <= 1500]
    specs = [ref_spec] + random.Random(19).sample(small, 6)
    specs += [build_code(validate_params(*c)) for c in ((256, 14, 2, 4), (1024, 8, 2, 2))]
    for spec in specs + [bad for spec in specs for bad in _tampered_generators(spec)]:
        d = predicted_distance(spec.params)
        assert run_verification(spec, 5_000_000).erasure_ok == _erasure_reference(spec, d - 1)
        assert (minimum_weight_word(spec, 5_000_000)[0] > d) == _erasure_reference(spec, d)
    # a zeroed column still round-trips every pattern that erases it, but
    # some 3-pattern then leaves rank 4 < k
    zeroed = _tampered_generators(ref_spec)[0]
    assert not run_verification(zeroed, 5_000_000).erasure_ok


def test_erasure_oracle_passes_on_grid_codes(grid_specs):
    # the walk's verdict on every grid code, checked with the decoder from
    # both sides: d - 1 random erasures decode, and erasing the support of
    # a minimum-weight word leaves two messages that agree elsewhere
    rng = random.Random(23)
    for p, spec in grid_specs:
        d = predicted_distance(p)
        weight, witness = minimum_weight_word(spec, 5_000_000)
        assert weight >= d
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        erased = set(rng.sample(range(p.n), d - 1))
        received = [None if j in erased else v for j, v in enumerate(encode(msg, spec))]
        assert decode_erasures(spec, received) == msg
        cw = encode(witness, spec)
        with pytest.raises(Unrecoverable):
            decode_erasures(spec, [None if v else 0 for v in cw])


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

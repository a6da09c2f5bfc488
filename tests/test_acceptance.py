"""Acceptance suite: one test per claimed guarantee, each printing a
visible PASS/FAIL line.

The grid covers q in {13, 16, 17} and r in {2, 3, 4}: every (n, k) with
5 <= n, s != 1, k within the rate bound, and q^k small enough to
enumerate exhaustively.  Combinations where the field has no subgroup
of size r+1 are skipped by construction.
"""

import json
import random
from itertools import combinations
from math import ceil

from lrcodes.bounds import optimality_report, predicted_distance, singleton_like_bound
from lrcodes.cli import main
from lrcodes.construction import build_code, encode, validate_params
from lrcodes.errors import Unrecoverable
from lrcodes.linalg import rank
from lrcodes.repair import apply_erasures, decode_erasures, erasure_pattern, locate_group, repair_local
from lrcodes.verify import (
    brute_force_distance,
    exhaustive_erasure_test,
    minimum_weight_word,
    verify_locality,
    verify_shortening,
)

BUDGET = 5_000_000


def report(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {label}")
    assert not failures, failures[:10]


def test_criterion_1_distance_optimality(grid_specs, capsys):
    failures = []
    for p, spec in grid_specs:
        d = brute_force_distance(spec, BUDGET)
        expected = p.n - p.k - ceil((p.k + p.t) / p.r) + 2
        if d != expected:
            failures.append((p, d, expected))
    report(capsys, 1, f"exact distance on all {len(grid_specs)} grid codes", failures)


def test_criterion_2_delta_dichotomy(capsys):
    failures = []
    for r in range(2, 9):
        for s in range(2, r + 1):
            t = r + 1 - s
            for k in range(1, 101):
                delta = ceil((k + t) / r) - ceil(k / r)
                condition = k % r == 0 or k % r >= s
                if delta not in (0, 1) or (delta == 1) != condition:
                    failures.append((r, s, k, delta))
    report(capsys, 2, "delta in {0,1} and delta = 1 iff r|k or k mod r >= s", failures)


def test_criterion_3_locality(grid_specs, capsys):
    failures = []
    repairs = 0
    for p, spec in grid_specs:
        if not verify_locality(spec):
            failures.append((p, "Lagrange-weight check"))
            continue
        rng = random.Random(1000 + 37 * p.n + p.k)
        pos = {alpha: j for j, alpha in enumerate(spec.eval_points)}
        groups = [locate_group(spec, i) for i in range(1, p.n + 1)]
        for _ in range(200):
            msg = [rng.randrange(p.q) for _ in range(p.k)]
            cw = encode(msg, spec)
            for i in range(1, p.n + 1):
                _, helpers, zeros = groups[i - 1]
                pairs = [(a, cw[pos[a]]) for a in helpers] + [(b, 0) for b in zeros]
                repairs += 1
                if repair_local(spec, i, pairs) != cw[i - 1]:
                    failures.append((p, i))
    report(capsys, 3, f"locality verified; {repairs} single-erasure repairs exact", failures)


def test_criterion_4_dimension(grid_specs, capsys):
    failures = [(p, "rank") for p, spec in grid_specs if rank(spec.field, spec.G) != p.k]
    report(capsys, 4, "generator matrix rank k on every grid code", failures)


def test_criterion_5_shortening(grid_specs, capsys):
    failures = []
    for p, spec in grid_specs:
        if not verify_shortening(spec):
            failures.append(p)
    report(capsys, 5, "every message of every code embeds into the parent code", failures)


def test_criterion_6_erasure_decoding(ref_spec, capsys):
    failures = []
    rng = random.Random(6)
    for subset in combinations(range(1, 11), 3):
        msg = [rng.randrange(13) for _ in range(5)]
        received = apply_erasures(encode(msg, ref_spec), erasure_pattern(ref_spec, subset))
        try:
            if decode_erasures(ref_spec, received) != msg:
                failures.append(subset)
        except Unrecoverable:
            failures.append(subset)
    _, witness_msg = minimum_weight_word(ref_spec, BUDGET)
    cw = encode(witness_msg, ref_spec)
    support = [j + 1 for j, v in enumerate(cw) if v]
    try:
        decode_erasures(ref_spec, apply_erasures(cw, erasure_pattern(ref_spec, support)))
        failures.append(("no unrecoverable 4-pattern", support))
    except Unrecoverable:
        pass
    if exhaustive_erasure_test(ref_spec, 4, budget=BUDGET):
        failures.append("exhaustive 4-erasure test unexpectedly passed")
    report(capsys, 6, "all 120 3-erasure patterns decode; a 4-pattern fails", failures)


def test_criterion_7_divisible_regression(capsys):
    failures = []
    for k in range(2, 7):
        p = validate_params(13, 12, k, 3)
        rep = optimality_report(p)
        spec = build_code(p)
        d = brute_force_distance(spec, BUDGET)
        if rep.delta != 0:
            failures.append((k, "delta", rep.delta))
        if d != singleton_like_bound(12, k, 3) or d != predicted_distance(p):
            failures.append((k, "distance", d))
        if spec.partition.B != () or spec.h_B != (1,):
            failures.append((k, "not the unshortened construction"))
    report(capsys, 7, "(13,12,k,3) reproduces the unshortened codes, delta = 0", failures)


def test_criterion_8_determinism(grid_specs, tmp_path, capsys):
    failures = []
    sample = random.Random(8).sample(grid_specs, 10)
    for idx, (p, _) in enumerate(sample):
        outs = []
        for run in (0, 1):
            path = tmp_path / f"{idx}-{run}.json"
            code = main(["construct", "--q", str(p.q), "--n", str(p.n),
                         "--k", str(p.k), "--r", str(p.r), "--out", str(path)])
            if code != 0:
                failures.append((p, "construct failed"))
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            failures.append((p, "bytes differ"))
    report(capsys, 8, "construct emits byte-identical files, 10 sampled configs", failures)

"""Property tests: every oracle passes on valid codes across the whole
supported field range, the report's rank agrees with elimination, and
the decoder recovers d - 1 erasures but not the support of a
minimum-weight word; the generator and shortening oracles agree with
the tests' polynomial reference, also on a G with one entry changed."""

import random
from dataclasses import replace
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rank, reference_generator_matches, reference_shortening
from lrcodes import Unrecoverable, build_code, decode_erasures, encode, validate_params
from lrcodes.verify import (
    generator_matches,
    minimum_weight_word,
    run_verification,
    verify_shortening,
)

MAX_N = 24
BUDGET = 200_000

_SIEVE = bytearray([1]) * ((1 << 16) + 1)
_SIEVE[:2] = b"\x00\x00"
for _d in range(2, 1 << 8):
    if _SIEVE[_d]:
        _SIEVE[_d * _d :: _d] = bytearray(len(_SIEVE[_d * _d :: _d]))
PRIMES = [p for p, is_prime in enumerate(_SIEVE) if is_prime]
# small primes are a branch of their own: only they leave room for k > 1
SMALL_PRIMES = [p for p in PRIMES if p < 1 << 9]
POWERS_OF_TWO = [1 << e for e in range(2, 17)]


@st.composite
def code_params(draw):
    """A valid (q, n, k, r) with n <= MAX_N and q^k <= BUDGET, drawn
    without rejection."""
    q = draw(st.sampled_from(draw(st.sampled_from([SMALL_PRIMES, PRIMES, POWERS_OF_TWO]))))
    # r + 1 is a subgroup size: a divisor of q - 1, or a power of two <= q over GF(2^e)
    binary = q & (q - 1) == 0
    sizes = [
        h for h in range(2, MAX_N + 1)
        if (q - 1) % h == 0 or (binary and h & (h - 1) == 0 and h <= q)
    ]
    r = draw(st.sampled_from(sizes)) - 1
    points = q - 1 if (q - 1) % (r + 1) == 0 else q
    lengths = [
        n for n in range(r + 1, MAX_N + 1)
        if n % (r + 1) != 1 and ceil(n / (r + 1)) * (r + 1) <= points
    ]
    n = draw(st.sampled_from(lengths))
    k_max = n - ceil(n / (r + 1))
    k = draw(st.sampled_from([k for k in range(1, k_max + 1) if q**k <= BUDGET]))
    return q, n, k, r


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(code_params(), st.data())
def test_every_oracle_passes_and_rank_matches_elimination(code, data):
    spec = build_code(validate_params(*code))
    F, (q, n, k) = spec.field, code[:3]
    report = run_verification(spec, BUDGET)
    assert report.all_ok, (code, report)
    assert report.rank_ok == (rank(F, spec.G) == k)
    # seeded from the code, not drawn: a hypothesis draw here cut the 200
    # examples to about 50 distinct codes
    rng = random.Random(repr(code))
    msg = [rng.randrange(q) for _ in range(k)]
    erased = set(rng.sample(range(n), report.distance_expected - 1))
    word = encode(msg, spec)
    assert decode_erasures(spec, [None if j in erased else v for j, v in enumerate(word)]) == msg
    witness = encode(minimum_weight_word(spec, BUDGET)[1], spec)
    with pytest.raises(Unrecoverable):
        decode_erasures(spec, [None if v else 0 for v in witness])
    if k >= 2:
        G = spec.G.copy()
        G[data.draw(st.integers(1, k - 1), label="duplicate row")] = G[0]
        deficient = run_verification(replace(spec, G=G), BUDGET)
        assert deficient.rank_ok == (rank(F, G) == k)
        assert not deficient.all_ok


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(code_params(), st.data())
def test_generator_and_shortening_oracles_match_the_reference(code, data):
    spec = build_code(validate_params(*code))
    q, n, k = code[:3]
    i = data.draw(st.integers(0, k - 1), label="row")
    j = data.draw(st.integers(0, n - 1), label="column")
    G = spec.G.copy()
    G[i, j] = data.draw(st.sampled_from([v for v in (0, 1, q - 1) if v != G[i, j]]), label="value")
    for each in (spec, replace(spec, G=G)):
        assert generator_matches(each) == reference_generator_matches(each)
        assert verify_shortening(each) == reference_shortening(each)
    assert generator_matches(spec) and not generator_matches(replace(spec, G=G))

"""Property test: every oracle passes on valid codes across the whole
supported field range, and the report's rank agrees with elimination."""

from dataclasses import replace
from math import ceil, comb

from hypothesis import given, settings, strategies as st

from conftest import rank
from lrcodes import build_code, validate_params
from lrcodes.verify import run_verification

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
    """A valid (q, n, k, r) with n <= MAX_N, q^k <= BUDGET and at most
    BUDGET erasure patterns of d - 1 symbols, drawn without rejection."""
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
    t = -n % (r + 1)

    def fits(k):
        d = n - k - ceil((k + t) / r) + 2
        return q**k <= BUDGET and comb(n, d - 1) <= BUDGET

    k = draw(st.sampled_from([k for k in range(1, n - ceil(n / (r + 1)) + 1) if fits(k)]))
    return q, n, k, r


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(code_params(), st.data())
def test_every_oracle_passes_and_rank_matches_elimination(code, data):
    spec = build_code(validate_params(*code))
    F, k = spec.field, spec.params.k
    report = run_verification(spec, BUDGET)
    assert report.all_ok, (code, report)
    assert report.rank_ok == (rank(F, spec.G) == k)
    if k >= 2:
        G = spec.G.copy()
        G[data.draw(st.integers(1, k - 1), label="duplicate row")] = G[0]
        deficient = run_verification(replace(spec, G=G), BUDGET)
        assert deficient.rank_ok == (rank(F, G) == k)
        assert not deficient.all_ok

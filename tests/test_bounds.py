"""Distance bounds, the delta dichotomy, and the optimality verdict."""

import json

import pytest

from lrcodes.bounds import (
    NOT_APPLICABLE,
    improved_bound,
    optimality_report,
    predicted_distance,
    rate_bound_holds,
    singleton_like_bound,
)
from lrcodes.cli import main
from lrcodes.construction import validate_params


def test_singleton_like_bound():
    assert singleton_like_bound(10, 5, 3) == 5
    assert singleton_like_bound(12, 6, 3) == 6
    # with r = k this is the ordinary Singleton bound
    for n, k in [(10, 4), (8, 3), (15, 7)]:
        assert singleton_like_bound(n, k, k) == n - k + 1


# float division rounded ceil(k / r) here: the command line printed
# d_singleton 24 for the first, and the second read ...497
@pytest.mark.parametrize(
    "n,k,r,d",
    [(10**18 + 1, 666666666666666667, 2, 2), (10**20, 10**19 + 1, 3, 86666666666666666667)],
)
def test_bounds_are_exact_for_huge_integers(capsys, n, k, r, d):
    def up(a, b):
        return (a + b - 1) // b

    assert singleton_like_bound(n, k, r) == n - k - up(k, r) + 2 == d
    assert main(["bounds", "--n", str(n), "--k", str(k), "--r", str(r)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_singleton"] == d
    assert doc["d_improved"] == improved_bound(n, k, r)
    assert doc["rate_bound_holds"] == rate_bound_holds(n, k, r) == (k <= n - up(n, r + 1))


def test_rate_bound():
    assert rate_bound_holds(10, 7, 3)
    assert not rate_bound_holds(10, 8, 3)
    for n, r in [(10, 3), (8, 2), (12, 5)]:
        assert not rate_bound_holds(n, n, r)


def test_improved_bound():
    assert improved_bound(10, 5, 3) == 4  # k mod r = 2 >= s = 2
    assert improved_bound(10, 6, 3) == 3  # r | k
    assert improved_bound(10, 4, 3) is NOT_APPLICABLE  # k mod r = 1 < s
    assert improved_bound(12, 6, 3) is NOT_APPLICABLE  # s = 0
    assert improved_bound(9, 4, 3) is NOT_APPLICABLE  # s = 1


def test_predicted_distance():
    assert predicted_distance(validate_params(13, 10, 5, 3)) == 4
    assert predicted_distance(validate_params(13, 12, 6, 3)) == 6
    assert predicted_distance(validate_params(13, 10, 6, 3)) == 3


def test_optimality_report_reference():
    rep = optimality_report(validate_params(13, 10, 5, 3))
    assert rep.d_singleton == 5
    assert rep.d_improved == 4
    assert rep.delta == 1
    assert rep.d_predicted == 4
    assert rep.optimal


def test_optimality_report_divisible():
    rep = optimality_report(validate_params(13, 12, 6, 3))
    assert rep.d_singleton == 6
    assert rep.delta == 0
    assert rep.d_predicted == 6
    assert rep.optimal


def test_optimality_report_delta_zero():
    # k mod r = 1 < s = 2 and r does not divide k, so the strengthened
    # bound does not apply and the gap is zero: d = 10 - 4 - 2 + 2 = 6
    rep = optimality_report(validate_params(13, 10, 4, 3))
    assert rep.d_singleton == 6
    assert rep.d_improved is NOT_APPLICABLE
    assert rep.delta == 0
    assert rep.d_predicted == 6


def test_delta_dichotomy_small_sweep():
    # the full exhaustive sweep is an acceptance criterion; this spot
    # check keeps the unit suite self-contained
    from math import ceil

    for r in range(2, 6):
        for s in range(2, r + 1):
            t = r + 1 - s
            for k in range(1, 40):
                delta = ceil((k + t) / r) - ceil(k / r)
                assert delta in (0, 1)
                assert (delta == 1) == (k % r == 0 or k % r >= s)


def test_report_consistency_across_grid(grid_params):
    for p in grid_params:
        rep = optimality_report(p)
        assert rep.d_predicted == rep.d_singleton - rep.delta
        assert rep.d_predicted >= 2
        if rep.delta == 1:
            assert rep.d_improved == rep.d_predicted

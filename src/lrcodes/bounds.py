"""Distance and rate bounds, and the optimality verdict for built codes.

Two upper bounds compete: the locality-aware Singleton analogue
d <= n - k - ceil(k/r) + 2, and a strengthening by one that kicks in
exactly when r | k or k mod r >= s.  The construction's distance is
n - k - ceil((k+t)/r) + 2, and the gap delta between the two ceilings
is always 0 or 1, landing the code on whichever bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from .construction import CodeParams, ceil_div
from .errors import InternalInconsistency

NOT_APPLICABLE = None


@dataclass(frozen=True)
class BoundsReport:
    d_singleton: int
    d_improved: int | None
    delta: int
    d_predicted: int
    optimal: bool
    applicable_reason: str


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """d <= n - k - ceil(k/r) + 2 for any code with locality r."""
    return n - k - ceil_div(k, r) + 2


def rate_bound_holds(n: int, k: int, r: int) -> bool:
    """Whether k <= n - ceil(n/(r+1)), necessary for locality r with
    disjoint repair groups."""
    return k <= n - ceil_div(n, r + 1)


def improved_bound(n: int, k: int, r: int) -> int | None:
    """d <= n - k - ceil(k/r) + 1, valid for codes whose repair groups are
    disjoint with a short last group of size s = n mod (r+1) >= 2.

    Returns NOT_APPLICABLE (None) when the hypothesis fails: s in {0, 1},
    or neither r | k nor k mod r >= s.
    """
    s = n % (r + 1)
    if s in (0, 1):
        return NOT_APPLICABLE
    if k % r != 0 and k % r < s:
        return NOT_APPLICABLE
    return n - k - ceil_div(k, r) + 1


def predicted_distance(params: CodeParams) -> int:
    """The built code's exact minimum distance: n - k - ceil(k'/r) + 2."""
    return params.n - params.k - ceil_div(params.k_prime, params.r) + 2


def optimality_report(params: CodeParams) -> BoundsReport:
    """Match the predicted distance against the applicable upper bound.

    delta = ceil((k+t)/r) - ceil(k/r) decides the branch: 0 means the
    general bound is met with equality, 1 means the strengthened bound
    is (and applies).  Either way the code is distance-optimal.
    """
    n, k, r, s, t = params.n, params.k, params.r, params.s, params.t
    d_sing = singleton_like_bound(n, k, r)
    d_pred = predicted_distance(params)
    delta = ceil_div(params.k_prime, r) - ceil_div(k, r)
    if delta not in (0, 1):
        raise InternalInconsistency(f"delta = {delta} outside {{0, 1}} for {params}")
    if d_sing - d_pred != delta:
        raise InternalInconsistency(f"distance gap {d_sing - d_pred} != delta = {delta}")
    if t > 0:
        condition = k % r == 0 or k % r >= s
        if (delta == 1) != condition:
            raise InternalInconsistency(
                f"dichotomy violated: delta = {delta} but r|k or k mod r >= s is {condition}"
            )
    d_impr = improved_bound(n, k, r)
    if delta == 1:
        if d_impr != d_pred:
            raise InternalInconsistency(
                f"strengthened bound {d_impr} != predicted distance {d_pred}"
            )
        if k % r == 0:
            reason = "delta = 1 (r divides k): meets the strengthened bound with equality"
        else:
            reason = "delta = 1 (k mod r >= s): meets the strengthened bound with equality"
    else:
        reason = "delta = 0: meets the general locality bound with equality"
    return BoundsReport(
        d_singleton=d_sing,
        d_improved=d_impr,
        delta=delta,
        d_predicted=d_pred,
        optimal=True,
        applicable_reason=reason,
    )

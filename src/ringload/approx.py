"""Approximation algorithms with certified additive bounds.

Three routes from a crossing instance to an unsplittable solution:

  * ssw_three_halves: single forward greedy walk from D/2; the classical
    3/2 * D guarantee.
  * medium_demand_solve: if some demand d_i lies in [delta*D, (1-delta)*D],
    rotate it last, build a backward greedy walk for the remaining demands
    ending at (D + d_i)/2 - v_i, and extend by whichever final step keeps
    the start/end pair balanced; guarantee (3/2 - delta/2) * D.
  * small_big_solve: for instances whose demands all lie in
    [0, 2D/7] u [5D/7, D], combine up to three greedy walks (forward from
    5D/14, backward to 3D/7, forward from 11D/14) directly or through a
    crossover at a D/7-closeness witness; guarantee 19/14 * D.

solve_19_14 dispatches: a widest margin min(d, D - d) of at least 2D/7
goes the medium route with that margin, otherwise the small/big route; the
bound never exceeds 19/14 * D.  medium_solve takes the widest margin at any
size, or ssw when there is no demand.  ROUTES maps each `solve --alg` name
of these routes (ssw, medium, smallbig, auto) to its function.

Every report carries the exact performance and the a-priori bound; the
bound is rechecked against the exact value, and a failure raises
InternalGuaranteeViolation (a bug, never an input problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    InternalGuaranteeViolation,
    MediumDemandPresent,
    NotMedium,
)
from .model import CCW, CW, UnsplitRouting
from .patterns import (
    Pattern,
    backward_greedy,
    crossover,
    find_close,
    forward_greedy,
    performance,
    walk_points,
)
from .reduction import CrossingInstance, rotated
from .scaled import Scaled, exact_div, halve, rational_str


@dataclass(frozen=True)
class SolveReport:
    z: UnsplitRouting
    perf: Scaled
    bound: Scaled
    branch: str
    pattern: Pattern


def solution_from_pattern(pattern: Pattern) -> UnsplitRouting:
    """CW where the pattern steps up: a step is +v > 0 or -u < 0."""
    points = pattern.points
    return UnsplitRouting(tuple(CW if b > a else CCW for a, b in zip(points, points[1:])))


def _report(pattern: Pattern, bound: Scaled, branch: str) -> SolveReport:
    """Recheck the bound and read the directions off the pattern."""
    perf = performance(pattern)
    if perf > bound:
        raise InternalGuaranteeViolation(
            f"branch {branch}: performance {rational_str(perf)} exceeds "
            f"certified bound {rational_str(bound)}"
        )
    return SolveReport(solution_from_pattern(pattern), perf, bound, branch, pattern)


def ssw_three_halves(cross: CrossingInstance) -> SolveReport:
    """Forward greedy from D/2; additive performance at most 3/2 * D."""
    pattern = Pattern(cross, walk_points(cross.pairs, cross.D, halve(cross.D), True))
    return _report(pattern, 3 * halve(cross.D), "ssw")


def medium_demand_solve(
    cross: CrossingInstance, i: int, delta_d: Scaled
) -> SolveReport:
    """Medium-demand route; delta_d is delta * D (scaled).

    Requires d_i in [delta_d, D - delta_d]; certified bound
    (3/2 - delta/2) * D = 3D/2 - delta_d/2.
    """
    D = cross.D
    if not 0 <= i < cross.m:
        raise NotMedium(f"no demand #{i}")
    if delta_d < 0:
        raise NotMedium("the margin delta * D must be nonnegative")
    d_i = cross.demand_value(i)
    if not delta_d <= d_i <= D - delta_d:
        raise NotMedium(f"demand #{i} value outside [delta*D, (1-delta)*D]")

    r = (cross.m - 1 - i) % cross.m
    pairs = rotated(cross.pairs, r)
    u_m, v_m = pairs[-1]

    target = halve(D + d_i) - v_m
    assert 0 <= target <= D, "d_i <= D and v_m <= d_i keep the target in [0, D]"
    points = walk_points(pairs[:-1], D, target, forward=False)
    last = target + v_m if 2 * points[0] <= D else target - u_m
    steps = [b - a for a, b in zip(points, points[1:])] + [last - target]
    bound = 3 * halve(D) - halve(delta_d)

    # Undo the rotation: old demands 0..m-r-1 sit at positions r.., the
    # last r old demands at positions 0..r-1 with u and v swapped, so
    # their steps change sign.
    steps = steps[r:] + [-step for step in steps[:r]]
    pattern = Pattern(cross, tuple(accumulate(steps, initial=0)))
    return _report(pattern, bound, "medium")


def widest_margin_demand(cross: CrossingInstance) -> tuple[int, Scaled] | None:
    """The demand k maximizing min(d_k, D - d_k), with that margin.

    The first such demand wins ties; None when m = 0.
    """
    D = cross.D
    margins = [d if 2 * d <= D else D - d for d in map(sum, cross.pairs)]
    if not margins:
        return None
    widest = max(margins)
    return margins.index(widest), widest


def _small_big_bounds(D: Scaled) -> tuple[Scaled, Scaled]:
    """Demand classes for delta = 2/7: small <= 2D/7, big >= 5D/7."""
    small = exact_div(2 * D, 7)
    return small, D - small


def small_big_solve(cross: CrossingInstance) -> SolveReport:
    """The 19/14 * D route for instances with small and big demands only."""
    D = cross.D
    small, big = _small_big_bounds(D)
    for k in range(cross.m):
        if small < cross.demand_value(k) < big:
            raise MediumDemandPresent(f"demand #{k} is of medium size")

    bound = exact_div(19 * D, 14)
    eps = exact_div(2 * D, 14)  # D/7-closeness enables the crossover

    pattern_a = forward_greedy(cross, exact_div(5 * D, 14))
    if pattern_a.end >= exact_div(4 * D, 14):
        return _report(pattern_a, bound, "smallbig-a")

    pattern_b = backward_greedy(cross, exact_div(6 * D, 14))
    witness_ab = find_close(pattern_a, pattern_b, eps)
    if witness_ab is not None:
        return _report(crossover(pattern_a, pattern_b, witness_ab), bound, "smallbig-crossAB")
    if pattern_b.start > exact_div(3 * D, 14):
        return _report(pattern_b, bound, "smallbig-b")

    pattern_c = forward_greedy(cross, exact_div(11 * D, 14))
    if pattern_c.end <= exact_div(8 * D, 14):
        return _report(pattern_c, bound, "smallbig-c")

    # Start order is b, a, c; end order a, b, c: not a cyclic shift, so a
    # D/7-close pair exists, and (a, b) was ruled out above.
    witness_ca = find_close(pattern_c, pattern_a, eps)
    if witness_ca is not None:
        return _report(crossover(pattern_c, pattern_a, witness_ca), bound, "smallbig-ca")
    witness_cb = find_close(pattern_c, pattern_b, eps)
    if witness_cb is not None:
        return _report(crossover(pattern_c, pattern_b, witness_cb), bound, "smallbig-cb")
    raise InternalGuaranteeViolation("no close pair among the three greedy walks")


def medium_solve(cross: CrossingInstance) -> SolveReport:
    """The medium route with the widest margin; ssw when there is no demand."""
    choice = widest_margin_demand(cross)
    return ssw_three_halves(cross) if choice is None else medium_demand_solve(cross, *choice)


def solve_19_14(cross: CrossingInstance) -> SolveReport:
    """Dispatcher: medium route when the widest margin reaches 2D/7, small/big otherwise."""
    small, _ = _small_big_bounds(cross.D)
    choice = widest_margin_demand(cross)
    if choice is not None and choice[1] >= small:
        return medium_demand_solve(cross, *choice)
    return small_big_solve(cross)


ROUTES = {"ssw": ssw_three_halves, "medium": medium_solve,
          "smallbig": small_big_solve, "auto": solve_19_14}

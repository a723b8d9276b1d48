"""Patterns: prefix-sum walks encoding unsplittable solutions.

A pattern is the sequence p(0..m) with steps p(k) - p(k-1) in {v_k, -u_k};
it encodes an unsplittable solution up to vertical shift.  With start x,
end y and strip [a, b] = [min p, max p], the additive performance of the
encoded solution is exactly

    max{2b - x - y, x + y - 2a}  =  (b - a) + |y - (a + b - x)|.

The greedy walk, walk_points, keeps all points inside [0, D] and, where
both steps stay inside, takes the one nearer to D/2, breaking ties toward
+v_k.  forward_greedy and backward_greedy make a Pattern of it whose start
(forward) or end (backward) point keeps a margin of D/14 from the strip
boundary; that margin (a quarter of the small/big demand split at 2/7) is
what the closeness guarantees of the small/big analysis rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .errors import (
    EndOutOfRange,
    InvalidWitness,
    OddEpsilon,
    OwnerMismatch,
    StartOutOfRange,
)
from .reduction import CrossingInstance
from .scaled import Scaled, exact_div, halve


@dataclass(frozen=True)
class Pattern:
    owner: CrossingInstance
    points: tuple[Scaled, ...]

    def __post_init__(self) -> None:
        if len(self.points) != self.owner.m + 1:
            raise ValueError(f"pattern needs m+1 = {self.owner.m + 1} points")
        points = self.points
        for k, (u, v), here, there in zip(count(), self.owner.pairs, points, points[1:]):
            step = there - here
            if step != v and step != -u:
                raise ValueError(f"step #{k} is {step}, admissible: {v} or {-u}")

    @property
    def start(self) -> Scaled:
        return self.points[0]

    @property
    def end(self) -> Scaled:
        return self.points[-1]

    @property
    def strip(self) -> tuple[Scaled, Scaled]:
        return min(self.points), max(self.points)


def performance(pattern: Pattern) -> Scaled:
    """max{2b - x - y, x + y - 2a}; shift-invariant, 0 for empty patterns."""
    lo, hi = pattern.strip
    x, y = pattern.start, pattern.end
    return max(2 * hi - x - y, x + y - 2 * lo)


def margin_interval(D: Scaled) -> tuple[Scaled, Scaled]:
    """Admissible greedy start/end points: [D/14, 13D/14]."""
    lo = exact_div(D, 14)
    return lo, D - lo


def walk_points(
    pairs: tuple[tuple[Scaled, Scaled], ...], D: Scaled, point: Scaled, forward: bool
) -> tuple[Scaled, ...]:
    """Greedy walk on bare pairs (u, v > 0, u + v <= D) from point in [0, D].

    Forward: point = p(0), steps k = 1..m.  Backward: point = p(m),
    steps k = m..1 with p(k-1) = p(k) - z_k.  Each step takes whichever
    of its two candidates inside [0, D] is nearer to D/2, and z_k = +v_k
    on ties, by one direct comparison: forward, +v_k lands above -u_k, so
    it is at least as near to D/2 exactly when the two average at most
    D/2, and it is taken when it also stays at or below D; backward
    mirrors this.  Otherwise the other step is taken, and it must stay
    inside [0, D] (d_k <= D guarantees that one step does).
    """
    here = point
    points = [here]
    if forward:
        for u, v in pairs:
            if here + v <= D and 2 * here + v - u <= D:
                here += v
            else:
                here -= u
                assert here >= 0, "d_k <= D guarantees a feasible step"
            points.append(here)
    else:
        for u, v in reversed(pairs):
            if here >= v and 2 * here + u - v >= D:
                here -= v
            else:
                here += u
                assert here <= D, "d_k <= D guarantees a feasible step"
            points.append(here)
        points.reverse()
    return tuple(points)


def forward_greedy(cross: CrossingInstance, x: Scaled) -> Pattern:
    lo, hi = margin_interval(cross.D)
    if not lo <= x <= hi:
        raise StartOutOfRange(f"start must lie in [D/14, 13D/14] = [{lo}, {hi}]")
    return Pattern(cross, walk_points(cross.pairs, cross.D, x, True))


def backward_greedy(cross: CrossingInstance, y: Scaled) -> Pattern:
    lo, hi = margin_interval(cross.D)
    if not lo <= y <= hi:
        raise EndOutOfRange(f"end must lie in [D/14, 13D/14] = [{lo}, {hi}]")
    return Pattern(cross, walk_points(cross.pairs, cross.D, y, False))


def find_close(p1: Pattern, p2: Pattern, eps: Scaled) -> int | None:
    """Smallest index k with |p1(k) - p2(k)| <= eps, the closeness witness, else None."""
    if p1.owner != p2.owner:
        raise OwnerMismatch("patterns belong to different instances")
    for k, (a, b) in enumerate(zip(p1.points, p2.points)):
        if abs(a - b) <= eps:
            return k
    return None


def crossover(p1: Pattern, p2: Pattern, k: int) -> Pattern:
    """Splice p1's steps up to index k with p2's steps after it.

    With eps' = p1(k) - p2(k) it starts at x1 - eps'/2, ends at y2 + eps'/2,
    and lives on a sub-strip of [min(a1,a2) - |eps'|/2, max(b1,b2) +
    |eps'|/2]; its start plus end equals p1.start + p2.end exactly.
    """
    if p1.owner != p2.owner:
        raise OwnerMismatch("patterns belong to different instances")
    if not 0 <= k <= p1.owner.m:
        raise InvalidWitness(f"witness index {k} out of range")
    eps_prime = p1.points[k] - p2.points[k]
    if eps_prime % 2:
        raise OddEpsilon("half of an odd gap is not on the 1/28 grid")
    shift = halve(eps_prime)
    points = tuple(p - shift for p in p1.points[: k + 1]) + tuple(
        p + shift for p in p2.points[k + 1 :]
    )
    return Pattern(p1.owner, points)

"""Ring instances, routings, and exact load computation.

Conventions (used throughout the package):

  * Nodes are numbered 1..n clockwise; every demand is stored with
    endpoints i < j.
  * Edge k = {k, k+1} for k = 1..n-1, edge n = {n, 1}.  Load vectors are
    tuples indexed 0..n-1 in this edge order.
  * The clockwise path of demand (i, j) runs i, i+1, ..., j and covers
    edges i..j-1; the counterclockwise path covers the complement.
  * All quantities are scaled integers on the 1/28 grid (see scaled.py).

All types are immutable; all operations are pure functions.  Rings check
themselves on construction (3 <= n <= sys.maxsize; 1 <= i < j <= n and
d >= 0 per demand); a split is checked once, by validate_instance, where
it enters.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .errors import (
    IndexMismatch,
    NegativeDemand,
    NodeOutOfRange,
    SplitExceedsDemand,
)
from .scaled import Scaled

CW = "cw"
CCW = "ccw"

#: Edge loads, one scaled value per edge in edge order.
LoadVector = tuple[Scaled, ...]


@dataclass(frozen=True)
class Demand:
    i: int
    j: int
    d: Scaled  # scaled demand value, >= 0


@dataclass(frozen=True)
class RingInstance:
    n: int
    demands: tuple[Demand, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise NodeOutOfRange(f"ring must have at least 3 nodes, got n={self.n}")
        if self.n > sys.maxsize:  # edge loads are indexed by edge
            raise NodeOutOfRange(f"ring must have at most sys.maxsize = {sys.maxsize} nodes")
        for pos, dem in enumerate(self.demands):
            if not (1 <= dem.i < dem.j <= self.n):
                raise NodeOutOfRange(
                    f"demand #{pos} endpoints ({dem.i},{dem.j}) violate 1 <= i < j <= {self.n}"
                )
            if dem.d < 0:
                raise NegativeDemand(f"demand #{pos} has negative value")

    @property
    def max_demand(self) -> Scaled:
        """D, the maximum demand value (0 for an empty demand list)."""
        return max((dem.d for dem in self.demands), default=0)


@dataclass(frozen=True)
class SplitRouting:
    """Clockwise amount per demand; the counterclockwise remainder is d - cw."""

    cw: tuple[Scaled, ...]


@dataclass(frozen=True)
class UnsplitRouting:
    """Direction flag per demand, each CW or CCW."""

    dirs: tuple[str, ...]

    def __post_init__(self) -> None:
        for flag in self.dirs:
            if flag not in (CW, CCW):
                raise ValueError(f"direction must be {CW!r} or {CCW!r}, got {flag!r}")


def validate_instance(inst: RingInstance, split: SplitRouting) -> None:
    """Check a caller's split (one amount in [0, d] per demand), once at entry."""
    if len(split.cw) != len(inst.demands):
        raise IndexMismatch(f"split has {len(split.cw)} entries for {len(inst.demands)} demands")
    for pos, (dem, cw) in enumerate(zip(inst.demands, split.cw)):
        if not (0 <= cw <= dem.d):
            raise SplitExceedsDemand(f"demand #{pos}: clockwise amount outside [0, d]")


def path_loads(n: int, paths: Iterable[tuple[int, int, Scaled, Scaled]]) -> LoadVector:
    """Per-edge loads of (i, j, cw_amount, ccw_amount) paths on an n-node ring.

    cw_amount covers edges i..j-1 and ccw_amount the rest: every edge gets
    ccw_amount, and edges i..j-1 get cw_amount - ccw_amount on top, through
    a difference array and one running sum, O(n + len(paths)).
    """
    diff = [0] * n
    for i, j, cw, ccw in paths:
        diff[0] += ccw
        diff[i - 1] += cw - ccw
        diff[j - 1] -= cw - ccw
    return tuple(accumulate(diff))


def edge_loads(inst: RingInstance, routing: SplitRouting | UnsplitRouting) -> LoadVector:
    """Per-edge loads of a routing; split amounts are taken as given."""
    is_split = isinstance(routing, SplitRouting)
    entries = routing.cw if is_split else routing.dirs
    if len(entries) != len(inst.demands):
        raise IndexMismatch(f"routing has {len(entries)} entries for {len(inst.demands)} demands")
    if is_split:
        paths = ((dem.i, dem.j, cw, dem.d - cw) for dem, cw in zip(inst.demands, entries))
    else:
        paths = (
            (dem.i, dem.j, dem.d, 0) if flag == CW else (dem.i, dem.j, 0, dem.d)
            for dem, flag in zip(inst.demands, entries)
        )
    return path_loads(inst.n, paths)


def additive_increase(
    inst: RingInstance, split: SplitRouting, unsplit: UnsplitRouting
) -> Scaled:
    """Maximum over edges of (load under unsplit) - (load under split)."""
    return load_increase(edge_loads(inst, split), edge_loads(inst, unsplit))


def load_increase(before: LoadVector, after: LoadVector) -> Scaled:
    """Maximum over edges of after - before."""
    return max(map(sub, after, before))

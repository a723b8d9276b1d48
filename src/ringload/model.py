"""Ring instances, routings, and exact load computation.

Conventions (used throughout the package):

  * Nodes are numbered 1..n clockwise; every demand is stored with
    endpoints i < j.
  * Edge k = {k, k+1} for k = 1..n-1, edge n = {n, 1}.  Load vectors are
    tuples indexed 0..n-1 in this edge order.
  * The clockwise path of demand (i, j) runs i, i+1, ..., j and covers
    edges i..j-1; the counterclockwise path covers the complement.
  * All quantities are scaled integers on the 1/28 grid (see scaled.py).

A ring stores its demands as three columns, tuples of Python ints: i, j
and d, so values past int64 and past int()'s digit limit stay exact, and
every stage reads the columns directly.  RingInstance.demands is a
read-only view of Demand records, built from the columns on first access
for callers that want one record per demand; nothing in the package reads
it.

All types are immutable; all operations are pure functions.  Rings check
themselves once, on construction (3 <= n <= sys.maxsize; then demand by
demand 1 <= i < j <= n and d >= 0); a split is checked once, by
validate_instance, where it enters.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import le, lt, sub

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
    """One demand as a record; a ring stores its demands as columns instead."""

    i: int
    j: int
    d: Scaled  # scaled demand value, >= 0


@dataclass(frozen=True, init=False)
class RingInstance:
    """A ring of n nodes whose demand k runs from node i[k] to node j[k]
    with scaled value d[k]: three tuples of ints, checked on construction.

    RingInstance(n, demands) takes Demand records, from_columns the three
    columns; equal columns make equal rings.
    """

    n: int
    i: tuple[int, ...]
    j: tuple[int, ...]
    d: tuple[Scaled, ...]

    def __init__(self, n: int, demands: Iterable[Demand]) -> None:
        demands = tuple(demands)
        self._init(
            n,
            tuple(dem.i for dem in demands),
            tuple(dem.j for dem in demands),
            tuple(dem.d for dem in demands),
        )

    @classmethod
    def from_columns(
        cls, n: int, i: Sequence[int], j: Sequence[int], d: Sequence[Scaled]
    ) -> RingInstance:
        """The ring whose demand k runs from node i[k] to node j[k] with value d[k]."""
        inst = cls.__new__(cls)
        inst._init(n, tuple(i), tuple(j), tuple(d))
        return inst

    def _init(self, n: int, i: tuple, j: tuple, d: tuple) -> None:
        if n < 3:
            raise NodeOutOfRange(f"ring must have at least 3 nodes, got n={n}")
        if n > sys.maxsize:  # edge loads are indexed by edge
            raise NodeOutOfRange(f"ring must have at most sys.maxsize = {sys.maxsize} nodes")
        if not len(i) == len(j) == len(d):
            raise IndexMismatch(f"columns i, j and d have {len(i)}, {len(j)} and {len(d)} entries")
        # Whole-column checks first; only a ring that fails them is walked
        # demand by demand, to name the first demand at fault.
        if d and not (min(i) >= 1 and max(j) <= n and all(map(lt, i, j)) and min(d) >= 0):
            for pos, (a, b, value) in enumerate(zip(i, j, d)):
                if not 1 <= a < b <= n:
                    raise NodeOutOfRange(
                        f"demand #{pos} endpoints ({a},{b}) violate 1 <= i < j <= {n}"
                    )
                if value < 0:
                    raise NegativeDemand(f"demand #{pos} has negative value")
        for name, value in (("n", n), ("i", i), ("j", j), ("d", d)):
            object.__setattr__(self, name, value)

    @cached_property
    def demands(self) -> tuple[Demand, ...]:
        """The demands as records, built from the columns on first access."""
        return tuple(map(Demand, self.i, self.j, self.d))

    @property
    def max_demand(self) -> Scaled:
        """D, the maximum demand value (0 for an empty demand list)."""
        return max(self.d, default=0)


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
    cw = split.cw
    if len(cw) != len(inst.d):
        raise IndexMismatch(f"split has {len(cw)} entries for {len(inst.d)} demands")
    if cw and not (min(cw) >= 0 and all(map(le, cw, inst.d))):
        for pos, (amount, value) in enumerate(zip(cw, inst.d)):
            if not 0 <= amount <= value:
                raise SplitExceedsDemand(f"demand #{pos}: clockwise amount outside [0, d]")


def path_loads(
    n: int, i: Sequence[int], j: Sequence[int], cw: Sequence[Scaled], ccw: Sequence[Scaled]
) -> LoadVector:
    """Per-edge loads on an n-node ring of paths given as columns.

    Path k carries cw[k] on its clockwise arc, edges i[k]..j[k]-1, and
    ccw[k] on the rest: every edge gets the sum of ccw, and edges
    i[k]..j[k]-1 get cw[k] - ccw[k] on top, through a difference array
    and one running sum, O(n + len(i)).
    """
    diff = [0] * n
    if n:
        diff[0] = sum(ccw)
    for a, b, delta in zip(i, j, map(sub, cw, ccw)):
        diff[a - 1] += delta
        diff[b - 1] -= delta
    return tuple(accumulate(diff))


def edge_loads(inst: RingInstance, routing: SplitRouting | UnsplitRouting) -> LoadVector:
    """Per-edge loads of a routing; split amounts are taken as given."""
    is_split = isinstance(routing, SplitRouting)
    entries = routing.cw if is_split else routing.dirs
    if len(entries) != len(inst.d):
        raise IndexMismatch(f"routing has {len(entries)} entries for {len(inst.d)} demands")
    cw = entries if is_split else [d if flag == CW else 0 for d, flag in zip(inst.d, entries)]
    return path_loads(inst.n, inst.i, inst.j, cw, list(map(sub, inst.d, cw)))


def additive_increase(
    inst: RingInstance, split: SplitRouting, unsplit: UnsplitRouting
) -> Scaled:
    """Maximum over edges of (load under unsplit) - (load under split)."""
    return load_increase(edge_loads(inst, split), edge_loads(inst, unsplit))


def load_increase(before: LoadVector, after: LoadVector) -> Scaled:
    """Maximum over edges of after - before."""
    return max(map(sub, after, before))

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

The record types here and in the other modules are slotted subclasses of
Record: immutable, compared and hashed by class and field values, and
picklable; importing them generates no code.  All but Demand and
RingInstance are built and unpickled by Record's one constructor, which
checks them; Record._trusted skips the check, for the few sites that build
a record from data already checked, each saying why it holds.  All
operations are pure functions.  Rings check themselves once, on
construction (3 <= n <= sys.maxsize; then demand by demand 1 <= i < j <= n
and d >= 0); a split is checked once, by validate_instance, where it
enters.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import accumulate
from operator import le, lt, sub

from .errors import (
    IndexMismatch,
    NegativeDemand,
    NodeOutOfRange,
    SplitExceedsDemand,
    ValidationError,
)
from .scaled import Scaled

CW = "cw"
CCW = "ccw"

#: Edge loads, one scaled value per edge in edge order.
LoadVector = tuple[Scaled, ...]


class Record:
    """An immutable record whose fields are its classes' __slots__, base first.

    Record(*values, **named) takes the fields by position or by name, the
    trailing ones left out from the class's _defaults, raises TypeError for
    a missing, unknown, repeated or surplus field, then calls _check.
    Records are equal when their classes and fields are equal, hash by their
    field values, print as Name(field=value, ...) and are unpickled by their
    constructor, so checked.  Assigning or deleting an attribute raises
    AttributeError.  A "__dict__" slot is not a field: it lets a class cache
    derived views.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        own = (name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")
        cls._fields = (*cls._fields, *own)

    def __init__(self, *values: object, **named: object) -> None:
        if named or len(values) != len(self._fields):
            values = self._arranged(values, named)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self._check()

    @classmethod
    def _trusted(cls, *values: object) -> Record:
        """The record of these fields, all by position, without _check: only for
        fields built from data already checked, each call saying why they hold."""
        record = cls.__new__(cls)
        for name, value in zip(cls._fields, values, strict=True):
            object.__setattr__(record, name, value)
        return record

    def _arranged(self, values: tuple, named: dict) -> tuple:
        """The fields in order: values by position, named by name, the rest from _defaults."""
        fields, cls = self._fields, self.__class__.__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{cls} takes {len(fields)} fields, got {len(values)}")
        for name in named:
            if name not in fields:
                raise TypeError(f"{cls} has no field {name!r}")
            if fields.index(name) < len(values):
                raise TypeError(f"{cls} got field {name!r} by position and by name")
        given = {**self._defaults, **dict(zip(fields, values)), **named}
        missing = [name for name in fields if name not in given]
        if missing:
            raise TypeError(f"{cls} is missing field(s) {', '.join(missing)}")
        return tuple(map(given.__getitem__, fields))

    def _check(self) -> None:
        """Raise if the fields, already set, do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: records are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: records are immutable")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class Demand(Record):
    """One demand as a record; a ring stores its demands as columns instead."""

    __slots__ = ("i", "j", "d")  # d: scaled demand value, >= 0

    def __init__(self, i: int, j: int, d: Scaled) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "d", d)


class RingInstance(Record):
    """A ring of n nodes whose demand k runs from node i[k] to node j[k]
    with scaled value d[k]: three tuples of ints, checked on construction.

    RingInstance(n, demands) takes Demand records, from_columns the three
    columns; equal columns make equal rings.
    """

    __slots__ = ("n", "i", "j", "d", "__dict__")  # __dict__ caches demands

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "d", d)

    def __reduce__(self) -> tuple:
        return self.from_columns, self._values()

    @cached_property
    def demands(self) -> tuple[Demand, ...]:
        """The demands as records, built from the columns on first access."""
        return tuple(map(Demand, self.i, self.j, self.d))

    @property
    def max_demand(self) -> Scaled:
        """D, the maximum demand value (0 for an empty demand list)."""
        return max(self.d, default=0)


class SplitRouting(Record):
    """SplitRouting(cw): the clockwise amount per demand; d - cw goes counterclockwise."""

    __slots__ = ("cw",)


class UnsplitRouting(Record):
    """UnsplitRouting(dirs): the direction flag per demand, each CW or CCW."""

    __slots__ = ("dirs",)

    def _check(self) -> None:
        for flag in self.dirs:
            if flag not in (CW, CCW):
                raise ValidationError(f"direction must be {CW!r} or {CCW!r}, got {flag!r}")


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


def split_and_unsplit_loads(
    inst: RingInstance, split: SplitRouting, unsplit: UnsplitRouting
) -> tuple[LoadVector, LoadVector]:
    """edge_loads of the split and of the unsplit routing, in one pass over the demands.

    As in path_loads, but with one difference array per routing, indexed by
    node: demand (i, j) adds its clockwise minus counterclockwise amount at
    node i and takes it off at node j, and entry 0 holds the routing's
    counterclockwise total, where each running sum starts.
    """
    values = inst.d
    for entries in (split.cw, unsplit.dirs):
        if len(entries) != len(values):
            raise IndexMismatch(f"routing has {len(entries)} entries for {len(values)} demands")
    before = [0] * (inst.n + 1)
    after = before.copy()
    ccw_total = 0
    for a, b, d, x, flag in zip(inst.i, inst.j, values, split.cw, unsplit.dirs):
        x += x - d  # clockwise minus counterclockwise
        before[a] += x
        before[b] -= x
        if flag != CW:
            ccw_total += d
            d = -d
        after[a] += d
        after[b] -= d
    before[0] = sum(values) - sum(split.cw)
    after[0] = ccw_total
    return tuple(accumulate(before))[1:], tuple(accumulate(after))[1:]


def additive_increase(
    inst: RingInstance, split: SplitRouting, unsplit: UnsplitRouting
) -> Scaled:
    """Maximum over edges of (load under unsplit) - (load under split)."""
    return load_increase(*split_and_unsplit_loads(inst, split, unsplit))


def load_increase(before: LoadVector, after: LoadVector) -> Scaled:
    """Maximum over edges of after - before."""
    return max(map(sub, after, before))

"""Built-in instances, the equalizing extension, optimality certificates,
and random instance generation.

The built-ins are the six reference instances used throughout:

  fig1  ring of 4, two crossing demands of value 2, split half/half.
  fig2  ring of 16, eight crossing demands, D = 10, max edge load 37.
  fig5  ring of 24, twelve crossing demands, D = 100; the classical
        lower-bound instance (min increase at least 101).
  fig6  ring of 16, eight crossing demands, D = 10; min increase 11.
  fig7  fig2 plus one demand per deficient edge, routed along that edge,
        equalizing all loads at 37 (an optimum split routing); optimum
        unsplittable 46 = L* + 9 (48 if the added demands stay on their
        edges).
  fig8  ring of 16 with 18 demands (8 diameters, 4 neighbor pairs, 6 at
        distance two); optimum split load 39, optimum unsplittable 50.

The built-ins are data: `builtin` only builds them, so building or
generating an instance needs no solver.  `ringload verify` re-checks every
recorded fact (loads, certificates, minimum increases and optima) and
reports a wrong digit as a failed check; the acceptance tests pin the same
facts.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import InfeasibleParams, UnknownName
from .model import (
    RingInstance,
    SplitRouting,
    edge_loads,
    validate_instance,
)
from .reduction import CrossingInstance, standalone_crossing
from .scaled import Scaled, from_int

# Crossing-form transcriptions as (v_k, u_k) pairs in ring order; u_k is
# the clockwise amount of demand k, which connects nodes k and k+m.
_CROSSING_VU = {
    "fig2": ((3, 3), (4, 6), (4, 4), (6, 4), (3, 3), (6, 4), (3, 1), (6, 4)),
    "fig5": (
        (71, 23), (25, 75), (71, 21), (23, 77), (75, 21), (76, 24),
        (21, 73), (75, 25), (21, 71), (73, 27), (25, 71), (33, 67),
    ),
    "fig6": ((2, 2), (3, 7), (7, 1), (3, 7), (2, 2), (4, 6), (4, 4), (6, 4)),
}

# fig8 demands as (i, j, d, cw); the 8 diameters carry the fig6 split
# rotated 11 node positions, the 10 short demands ride their short arcs.
_FIG8_DEMANDS = (
    (1, 9, 10, 6), (2, 10, 8, 4), (3, 11, 10, 4), (4, 12, 4, 2),
    (5, 13, 10, 3), (6, 14, 8, 7), (7, 15, 10, 3), (8, 16, 4, 2),
    (5, 6, 10, 10), (6, 7, 4, 4), (13, 14, 4, 4), (14, 15, 10, 10),
    (1, 3, 4, 4), (3, 5, 6, 6), (7, 9, 8, 8), (9, 11, 10, 10),
    (11, 13, 8, 8), (1, 15, 6, 0),
)

BUILTIN_NAMES = ("fig1", "fig2", "fig5", "fig6", "fig7", "fig8")


@dataclass(frozen=True)
class ExtensionResult:
    """The extended ring and split; its last `added` demands are the new ones."""

    instance: RingInstance
    split: SplitRouting
    added: int
    all_within_max_demand: bool


def equalize_extension(inst: RingInstance, split: SplitRouting) -> ExtensionResult:
    """Add one demand per deficient edge, routed along it, to level all loads.

    For each edge e with load below the maximum M, a demand of value
    M - load(e) between e's endpoints is appended, routed entirely along
    e.  The result reports whether every added value stays within the
    original maximum demand D (it does not for fig5).
    """
    validate_instance(inst, split)
    loads = edge_loads(inst, split)
    peak = max(loads)
    n = inst.n
    i, j, d, cw = list(inst.i), list(inst.j), list(inst.d), list(split.cw)
    for k, load in enumerate(loads, 1):
        if load == peak:
            continue
        # Edge k < n is the clockwise arc of (k, k + 1), edge n the
        # counterclockwise arc of (1, n).
        i.append(k if k < n else 1)
        j.append(k + 1 if k < n else n)
        d.append(peak - load)
        cw.append(peak - load if k < n else 0)
    result = ExtensionResult(
        RingInstance.from_columns(n, i, j, d),
        SplitRouting(tuple(cw)),
        len(d) - len(inst.d),
        max(d[len(inst.d):], default=0) <= inst.max_demand,
    )
    assert len(set(edge_loads(result.instance, result.split))) == 1
    return result


def certify_split_optimal(inst: RingInstance, split: SplitRouting) -> Scaled | None:
    """The common load M = L* if the split routing is provably optimum.

    Certificate: every demand uses only direction(s) of minimum path
    length (ties allow both), and all edge loads are equal.  Then the
    average edge load is minimum and equals the maximum, so no routing
    does better.  None means no claim either way.
    """
    validate_instance(inst, split)
    n = inst.n
    for i, j, d, cw in zip(inst.i, inst.j, inst.d, split.cw):
        if d == 0:
            continue
        len_cw = j - i
        len_ccw = n - len_cw
        if len_cw < len_ccw and cw != d:
            return None
        if len_ccw < len_cw and cw != 0:
            return None
    loads = edge_loads(inst, split)
    if len(set(loads)) != 1:
        return None
    return loads[0]


@lru_cache(maxsize=None)
def builtin(name: str) -> tuple[RingInstance, SplitRouting]:
    """A built-in reference instance with its split routing."""
    if name in _CROSSING_VU:
        return standalone_crossing(
            tuple((from_int(u), from_int(v)) for v, u in _CROSSING_VU[name])
        ).to_ring()
    if name == "fig1":
        inst = RingInstance.from_columns(4, (1, 2), (3, 4), (from_int(2), from_int(2)))
        return inst, SplitRouting((from_int(1), from_int(1)))
    if name == "fig7":
        ext = equalize_extension(*builtin("fig2"))
        return ext.instance, ext.split
    if name == "fig8":
        i, j, d, cw = zip(*_FIG8_DEMANDS)
        inst = RingInstance.from_columns(16, i, j, tuple(map(from_int, d)))
        return inst, SplitRouting(tuple(map(from_int, cw)))
    raise UnknownName(f"no built-in instance named {name!r}")


def _pair_list(m: int) -> list[tuple[int, int]]:
    """A list of m pairs to fill, allocated at once.

    Where m pairs are beyond memory this raises MemoryError before any
    work, instead of a loop growing a list until the system runs out; a
    list holds at most sys.maxsize items.
    """
    if m > sys.maxsize:
        raise InfeasibleParams(f"need m <= sys.maxsize = {sys.maxsize}")
    return [(0, 0)] * m


def random_crossing(m: int, D: int, seed: int, structured: bool = False) -> CrossingInstance:
    """Deterministic random crossing instance.

    Unstructured: integer pairs with u, v >= 1, u + v <= D and max d = D.
    Structured: the lower-bound family — u + v even, every other demand
    pinned to D, and an odd clockwise total.
    """
    if m < 1 or D < 2:
        raise InfeasibleParams("need m >= 1 and D >= 2")
    rng = random.Random(seed)
    if structured:
        pairs = structured_member(m, D, rng)
    else:
        pairs = _pair_list(m)
        for pos in range(m):
            d = rng.randint(2, D)
            u = rng.randint(1, d - 1)
            pairs[pos] = (u, d - u)
        pin = rng.randrange(m)
        u = rng.randint(1, D - 1)
        pairs[pin] = (u, D - u)
    return standalone_crossing(
        tuple((from_int(u), from_int(v)) for u, v in pairs), from_int(D)
    )


def structured_member(m: int, D: int, rng: random.Random) -> list[tuple[int, int]]:
    """One member of the structured family, uniform choices per position.

    Positions 1, 3, 5, ... (0-based) carry the mandatory value-D demands;
    the clockwise total is nudged by one where possible to make it odd.
    """
    if m % 2 or D % 2:
        raise InfeasibleParams("structured family needs even m and even D")
    pairs = _pair_list(m)
    for pos in range(m):
        if pos % 2:
            u = rng.randint(1, D - 1)
            pairs[pos] = (u, D - u)
        else:
            d = 2 * rng.randint(1, D // 2)
            u = rng.randint(1, d - 1)
            pairs[pos] = (u, d - u)
    if sum(u for u, _ in pairs) % 2 == 0:
        for pos, (u, v) in enumerate(pairs):
            if u + 1 <= u + v - 1:
                pairs[pos] = (u + 1, v - 1)
                break
            if u - 1 >= 1:
                pairs[pos] = (u - 1, v + 1)
                break
        else:
            raise InfeasibleParams("cannot reach an odd clockwise total")
    return pairs

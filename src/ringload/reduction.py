"""Reduction of an instance plus split routing to canonical crossing form.

Crossing form: a ring of 2m nodes carrying m demands, demand k connecting
nodes k and k+m, every pair of demands crossing, and every demand strictly
split (u_k clockwise, v_k counterclockwise, both positive).  The reduction

  1. uncrosses parallel demand pairs (rerouting flow so that one of the
     two becomes unsplittable, never increasing any edge load) in one
     pair sweep, which stops at the suffix of demands that cross pairwise,
     since none of its pairs can ever be uncrossed; the suffix grows as
     the sweep leaves demands unsplit,
  2. fixes every unsplittably routed demand in its direction,
  3. contracts nodes that are no endpoint of a remaining demand (their two
     incident edges carry equal remaining load), and
  4. relabels nodes so demand k connects k and k+m.

Every step reads the ring's columns (i, j, d) and the split's amounts
directly; the split is checked once, on entry to reduce_to_crossing.

The CrossingInstance remembers what lifting needs to take any
crossing-form solution back to the original ring: the ring (origin), its
post-uncrossing split (uncrossed) and the demand relabeling (demand_map).
A demand left unsplit keeps the direction uncrossed gives it, a crossing
demand takes its solution's direction.  Lifted solutions increase an
original edge exactly as much as the crossing-form solution increases the
reduced edge it was contracted into, measured against the post-uncrossing
split; against the routing originally given the increase can only be
smaller, since uncrossing never raises a load.  That contraction is legal
is a lemma, not rechecked here; `ringload solve` checks each reported
increase against the value its solver claims instead.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from operator import lt

from .errors import IndexMismatch, InfeasibleParams, ValidationError
from .model import (
    CCW,
    CW,
    Record,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    validate_instance,
)
from .scaled import Scaled


class CrossingInstance(Record):
    """CrossingInstance(pairs, D, origin=None, uncrossed=None, demand_map=None):
    the canonical reduced form; may also be built standalone (no origin).

    pairs[k] = (u_k, v_k), both positive scaled values, d_k = u_k + v_k <= D.
    D is the maximum demand of the *original* instance.  For reduced
    instances, origin is the original ring, uncrossed its split after
    uncrossing (whose unsplit demands keep their direction when lifted),
    and demand_map lists the original demand index behind each crossing
    demand, in order of its endpoint i.
    """

    __slots__ = ("pairs", "D", "origin", "uncrossed", "demand_map")
    _defaults = {"origin": None, "uncrossed": None, "demand_map": None}

    def _check(self) -> None:
        D = self.D
        for k, (u, v) in enumerate(self.pairs):
            if u <= 0 or v <= 0:
                raise ValidationError(f"crossing demand #{k}: u and v must be positive")
            if u + v > D:
                raise ValidationError(f"crossing demand #{k}: d exceeds D")
        if D < 0:
            raise ValidationError("D must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.pairs)

    def demand_value(self, k: int) -> Scaled:
        u, v = self.pairs[k]
        return u + v

    def to_ring(self) -> tuple[RingInstance, SplitRouting]:
        """The crossing instance as a plain ring instance with its split."""
        if self.m < 2:
            raise InfeasibleParams("a ring needs at least 3 nodes; m must be >= 2")
        m = self.m
        ring = RingInstance.from_columns(
            2 * m, range(1, m + 1), range(m + 1, 2 * m + 1), [u + v for u, v in self.pairs]
        )
        return ring, SplitRouting(tuple(u for u, _ in self.pairs))


def standalone_crossing(pairs: tuple[tuple[Scaled, Scaled], ...], D: Scaled | None = None) -> CrossingInstance:
    """A crossing instance that is its own original (D defaults to max d)."""
    if D is None:
        D = max((u + v for u, v in pairs), default=0)
    return CrossingInstance(pairs=tuple(pairs), D=D)


def rotated(pairs: tuple[tuple[int, int], ...], shift: int) -> tuple[tuple[int, int], ...]:
    """Node rotation by `shift` (mod m); wrapped entries swap u and v.

    Entry k moves to position k + shift; an entry that wraps past the ring
    seam has its stored endpoint moved past the seam, so u and v swap.
    """
    m = len(pairs)
    cut = m - shift % m if m else 0
    return tuple((v, u) for u, v in pairs[cut:]) + tuple(pairs[:cut])


def _crossing_suffix(
    inst: RingInstance, cw: list[Scaled], start: int, lows: list[int], highs: list[int]
) -> int:
    """Smallest s such that the demands split from index s on cross pairwise.

    Walks down from start; a fresh walk starts at len(cw) with empty lists.
    The endpoints of t pairwise-crossing chords, sorted by i, run i_1 < ...
    < i_t < j_1 < ... < j_t, so a new chord (i, j) sharing no endpoint
    crosses them all exactly when it takes the same place p among the i's
    as among the j's, with i < j_1 where p = t and j > i_t where p = 0.
    lows and highs hold the -i and the -j ascending, of the split demands
    from start on; the walk extends them in place, so the sweep can resume
    it.  One bisect pair per chord finds its places, but the usual new
    chord, below all found so far, is appended after three comparisons: a
    ring of split chords in ring order, as CrossingInstance.to_ring lists
    them, takes one bisect, for its last chord.
    """
    I, J, values = inst.i, inst.j, inst.d
    low = high = top = 0  # the smallest i, smallest j and largest i found
    if lows:
        low, high, top = -lows[-1], -highs[-1], -lows[0]
    for s in range(start - 1, -1, -1):
        x = cw[s]
        if x == 0 or x == values[s]:
            continue
        i, j = I[s], J[s]
        if i < low and top < j < high:
            lows.append(-i)
            highs.append(-j)
            low, high = i, j
            continue
        t = len(lows)
        above = bisect_left(lows, -i)  # the i's above i
        if t and (
            above != bisect_left(highs, -j)
            or (above < t and (lows[above] == -i or highs[above] == -j))
            or (above == 0 and -i <= highs[-1])
            or (above == t and -j >= lows[0])
        ):
            return s + 1
        lows.insert(above, -i)
        highs.insert(above, -j)
        low, high, top = -lows[-1], -highs[-1], -lows[0]
    return 0


def _uncross_all(inst: RingInstance, split: SplitRouting) -> SplitRouting:
    # One lexicographic pair sweep.  Uncrossing (a, b) leaves a or b
    # unsplit, an unsplit demand is never touched again and crossing is
    # fixed, so every pair already skipped stays skipped: rescanning
    # from the start after a change would find nothing new.  The sweep
    # ends at the crossing suffix: a demand only goes from split to
    # unsplit, so at a row at or past its start every split b > a is a
    # suffix member and crosses a.  The suffix only grows: after a row
    # whose scan unsplits a member (it leaves lows and highs by one
    # bisect) or the blocking row start - 1, the walk resumes there.
    cw = list(split.cw)
    lows: list[int] = []
    highs: list[int] = []
    k = len(cw)
    start = _crossing_suffix(inst, cw, k, lows, highs)
    I, J, values = inst.i, inst.j, inst.d
    for a in range(k):
        if a >= start:
            break
        x_a, d_a = cw[a], values[a]
        if x_a == 0 or x_a == d_a:
            continue
        i, j = I[a], J[a]
        resume = False
        for b in range(a + 1, k):
            x_b, d_b = cw[b], values[b]
            if x_b == 0 or x_b == d_b:
                continue
            p, q = I[b], J[b]
            # Flow min{x_b1, x_b2} moves onto the first edge-disjoint path
            # pair in the order cw/cw, cw_a/ccw_b, ccw_a/cw_b (a's clockwise
            # arc first, for determinism); two counterclockwise arcs always
            # share edge n, and crossing demands have no disjoint pair.
            if j <= p or q <= i:
                shift = min(d_a - x_a, d_b - x_b)
                x_a += shift
                x_b += shift
            elif p <= i and j <= q:
                shift = min(d_a - x_a, x_b)
                x_a += shift
                x_b -= shift
            elif i <= p and q <= j:
                shift = min(x_a, d_b - x_b)
                x_a -= shift
                x_b += shift
            else:
                continue
            cw[b] = x_b
            if (x_b == 0 or x_b == d_b) and b >= start - 1:
                resume = True
                if b >= start:
                    at = bisect_left(lows, -p)
                    del lows[at], highs[at]
            if x_a == 0 or x_a == d_a:
                break
        cw[a] = x_a
        if resume:
            start = _crossing_suffix(inst, cw, start, lows, highs)
    return SplitRouting(tuple(cw))


def reduce_to_crossing(
    inst: RingInstance, split: SplitRouting
) -> tuple[CrossingInstance, SplitRouting]:
    """Reduce to crossing form; returns the instance and its split (u_k)."""
    validate_instance(inst, split)
    uncrossed = _uncross_all(inst, split)

    # Crossing index k goes to the k-th smallest endpoint i.  Split demands
    # that cross pairwise, sharing no endpoint, have endpoints running
    # i_0 < ... < i_{m-1} < j_0 < ... < j_{m-1}: the reduced ring's nodes
    # in clockwise order, demand k from node k to node k + m, cw still cw.
    cw, values = uncrossed.cw, inst.d
    still_split = [idx for idx, x, d in zip(count(), cw, values) if x and x != d]
    demand_map = sorted(still_split, key=inst.i.__getitem__)
    nodes = [inst.i[idx] for idx in demand_map] + [inst.j[idx] for idx in demand_map]
    assert all(map(lt, nodes, nodes[1:])), "split demands must cross pairwise"
    us = [cw[idx] for idx in demand_map]
    vs = [values[idx] - cw[idx] for idx in demand_map]
    # Trusted: a demand still split has u = cw and v = d - cw positive, and
    # u + v = d <= max d = D.
    cross = CrossingInstance._trusted(
        tuple(zip(us, vs)), inst.max_demand, inst, uncrossed, tuple(demand_map)
    )
    return cross, SplitRouting(tuple(us))


def lift_solution(cross: CrossingInstance, z: UnsplitRouting) -> UnsplitRouting:
    """Translate a crossing-form solution back to the original instance."""
    if len(z.dirs) != cross.m:
        raise IndexMismatch(f"z has {len(z.dirs)} entries for m={cross.m}")
    if cross.origin is None:
        return z
    assert cross.uncrossed is not None and cross.demand_map is not None
    dirs = [CW if cw == d else CCW for d, cw in zip(cross.origin.d, cross.uncrossed.cw)]
    for idx, flag in zip(cross.demand_map, z.dirs):
        dirs[idx] = flag
    return UnsplitRouting._trusted(tuple(dirs))  # CW, CCW and z's flags, which z checked

"""Exact solvers: branch and bound over all routings and a pseudo-polynomial DP.

Brute force minimizes over all 2^k direction vectors for the k nonzero
demands by a depth-first branch and bound with subset-sum table leaves.
Loads are kept per segment between consecutive demand endpoints (at
most 2k+1 columns, whatever n is).  The search branches on all but the
last _CHUNK_BITS demands of its order; a leaf holds the loads of every
routing of those last demands as row sums of per-demand load deltas, so
a ring of at most _CHUNK_BITS demands is one table.  Nodes are cut by
the two-column cut bound: a demand that separates columns e and f loads
exactly one of them whichever way it is routed, so with cur the loads
placed so far, some column ends at ceil((cur_e + cur_f + R_ef) / 2) or
more, where R_ef sums the unplaced demands separating e and f (the cut
condition of Okamura and Seymour, JCTB 1981).  A value pass takes the
demands by decreasing value and cuts nodes that cannot beat the best
routing found; a witness pass in the original order, clockwise first,
stops at the first leaf that reaches that value.  Direction vectors are
ordered lexicographically with demand 0 as the most significant
position and clockwise before counterclockwise, so ties resolve to the
lexicographically smallest vector.  The arithmetic is exact integer
arithmetic: int64 while every bound sum stays below 2^63 (2 max|offset|
+ 3 sum(d) + 1 < 2^63), numpy object arrays of Python ints otherwise.

The DP runs in the grid unit g = gcd(SCALE, D, every u and v), in which
all crossing data are integers (g = SCALE for integer splits, SCALE/2
for half-integer ones).  For a target increase t it decides whether a
pattern with p(0) = 0 and p(m) = y exists whose every point k >= 1
satisfies (y-t)/2 <= p(k) <= (y+t)/2; this window condition is exactly
max_k |2 p(k) - y| <= t, the additive performance for x = 0.  Reachable
point sets per level are bitmasks over the integer window, and
predecessor choices are rebuilt by walking the masks backward.  The
minimum increase is found by binary search on t (the window only grows
with t), scanning y over integers in [-t, t] whose parity the step
vectors can reach.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InvalidSetting, TooManyDemands
from .model import (
    CCW,
    CW,
    LoadVector,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    edge_loads,
    validate_instance,
)
from .reduction import CrossingInstance
from .scaled import SCALE, Scaled, exact_div

DEFAULT_BRUTE_CAP = 26
_CHUNK_BITS = 12


def _brute_cap() -> int:
    value = os.environ.get("RINGLOAD_BRUTE_CAP")
    if not value:
        return DEFAULT_BRUTE_CAP
    if not (value.isascii() and value.isdigit()):
        raise InvalidSetting(
            f"RINGLOAD_BRUTE_CAP must be a non-negative integer, got {value!r}"
        )
    return int(value)


def _subset_sums(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row x is start plus the sum of rows[p] over the set bits len(rows)-1-p of x."""
    table = np.empty((1 << len(rows), len(start)), dtype=rows.dtype)
    table[0] = start
    for bit, row in enumerate(rows[::-1]):
        np.add(table[: 1 << bit], row, out=table[1 << bit : 2 << bit])
    return table


def _cut_bound(cur: np.ndarray, sep: np.ndarray) -> int:
    """Lower bound on the objective of every completion of a search node.

    cur holds the column loads of the placed demands minus the offset, and
    sep[e, f] the total value of the unplaced demands that separate columns
    e and f.  Each of those loads exactly one of e and f, whichever way it
    is routed, so one of the two ends at (cur_e + cur_f + sep_ef) / 2 or
    more: the cut condition on a ring.  The diagonal, where sep is 0, is
    the single-column bound.
    """
    return int(-(-(cur[:, None] + cur[None, :] + sep).max() // 2))


class _Plan:
    """One search order: a branching prefix and a subset-sum table leaf.

    The first len(order) - _CHUNK_BITS demands of order are branched on,
    choices[t] holding the column loads of the demand at position t routed
    clockwise (bit 0) and counterclockwise (bit 1).  The rest form the
    leaf table, whose row x routes leaf demand r counterclockwise when bit
    leaf_bits-1-r of x is set.  remaining[t] sums the separation matrices
    of the demands from position t of order on; a plan without branching
    needs none.
    """

    def __init__(self, order: list[int], d: np.ndarray, inside: np.ndarray):
        depth = max(len(order) - _CHUNK_BITS, 0)
        d, inside = d[order, None], inside[order]
        cw = np.where(inside, d, 0)
        ccw = d - cw
        self.choices = list(zip(cw[:depth], ccw[:depth]))
        self.leaf_bits = len(order) - depth
        self.leaf = _subset_sums(cw[depth:].sum(axis=0), ccw[depth:] - cw[depth:])
        self.remaining = None
        if depth:
            sep = np.where(inside[:, :, None] != inside[:, None, :], d[:, :, None], 0)
            suffix = np.cumsum(sep[::-1], axis=0)[::-1]
            self.remaining = np.concatenate([suffix, np.zeros_like(sep[:1])])[: depth + 1]


def _least_value(plan: _Plan, root: np.ndarray, best: int) -> int:
    """The least objective below best over all routings, or best if none is.

    Depth first, the child with the smaller bound first, so the first leaf
    reached is a greedy routing; a node is cut once its bound reaches the
    best value found so far.
    """

    def visit(t: int, cur: np.ndarray) -> None:
        nonlocal best
        if t == len(plan.choices):
            best = min(best, int((plan.leaf + cur).max(axis=1).min()))
            return
        children = [(_cut_bound(child, plan.remaining[t + 1]), child)
                    for child in (cur + row for row in plan.choices[t])]
        if children[1][0] < children[0][0]:
            children.reverse()
        for bound, child in children:
            if bound < best:
                visit(t + 1, child)

    if _cut_bound(root, plan.remaining[0]) < best:
        visit(0, root)
    return best


def _first_at_most(plan: _Plan, root: np.ndarray, value: int | None) -> tuple[int, int]:
    """The first routing in plan order whose objective is at most value.

    Returns its objective and its index (bit k-1-t is the flag of the
    demand at position t of the order).  Depth first, clockwise first,
    cutting nodes whose bound exceeds value; within a leaf the first
    argmin wins.  value may be None only when the root is the leaf.
    """

    def visit(t: int, cur: np.ndarray, prefix: int) -> tuple[int, int] | None:
        if t == len(plan.choices):
            objective = (plan.leaf + cur).max(axis=1)
            pos = int(np.argmin(objective))
            if value is None or objective[pos] <= value:
                return int(objective[pos]), prefix << plan.leaf_bits | pos
            return None
        for bit, row in enumerate(plan.choices[t]):
            child = cur + row
            if _cut_bound(child, plan.remaining[t + 1]) <= value:
                found = visit(t + 1, child, 2 * prefix + bit)
                if found is not None:
                    return found
        return None

    return visit(0, root, 0)


def _enumerate_min(
    inst: RingInstance, active: list[int], offset: LoadVector
) -> tuple[UnsplitRouting, Scaled]:
    """Minimize max over edges of (loads of the routing - offset).

    Edges between consecutive endpoints of active demands carry equal
    loads under every routing, so one column per such segment suffices.
    Rings of at most _CHUNK_BITS demands are one subset-sum table.  Larger
    ones are searched twice: for the optimal value with demands by
    decreasing value, then for the lexicographically smallest routing
    that reaches it, in the original order.
    """
    dems = [inst.demands[idx] for idx in active]
    cols = sorted({0}.union(*((dem.i - 1, dem.j - 1) for dem in dems)))
    total = sum(dem.d for dem in dems)
    exact_in_int64 = 2 * max(abs(offset[c]) for c in cols) + 3 * total + 1 < 2**63
    dtype = np.int64 if exact_in_int64 else object
    d = np.array([dem.d for dem in dems], dtype=dtype)
    inside = np.array(
        [[dem.i - 1 <= c < dem.j - 1 for c in cols] for dem in dems], dtype=bool
    ).reshape(len(dems), len(cols))
    root = np.array([-offset[c] for c in cols], dtype=dtype)

    value = None
    if len(dems) > _CHUNK_BITS:
        by_value = sorted(range(len(dems)), key=lambda p: -dems[p].d)
        all_cw = int((np.where(inside, d[:, None], 0).sum(axis=0) + root).max())
        value = _least_value(_Plan(by_value, d, inside), root, all_cw)
    value, index = _first_at_most(_Plan(list(range(len(dems))), d, inside), root, value)
    dirs = [CW] * len(inst.demands)
    for row, idx in enumerate(active):
        if (index >> (len(active) - 1 - row)) & 1:
            dirs[idx] = CCW
    return UnsplitRouting(tuple(dirs)), value


def _active_demands(inst: RingInstance) -> list[int]:
    active = [idx for idx, dem in enumerate(inst.demands) if dem.d > 0]
    cap = _brute_cap()
    if len(active) > cap:
        raise TooManyDemands(f"{len(active)} nonzero demands exceed the cap of {cap}")
    return active


def brute_force_min_increase(
    inst: RingInstance, split: SplitRouting
) -> tuple[UnsplitRouting, Scaled]:
    """Minimizer of the additive increase over all 2^k direction vectors."""
    validate_instance(inst, split)
    return _enumerate_min(inst, _active_demands(inst), edge_loads(inst, split))


def brute_force_optimum_L(inst: RingInstance) -> tuple[UnsplitRouting, Scaled]:
    """Minimum over all routings of the maximum edge load (the value L)."""
    validate_instance(inst)
    return _enumerate_min(inst, _active_demands(inst), (0,) * inst.n)


def _unit_pairs(cross: CrossingInstance) -> tuple[int, list[tuple[int, int]]]:
    """The grid unit g = gcd(SCALE, D, every u and v) and the pairs in units of g."""
    g = math.gcd(SCALE, cross.D, *(x for pair in cross.pairs for x in pair))
    return g, [(u // g, v // g) for u, v in cross.pairs]


def _reachable_parities(pairs: list[tuple[int, int]]) -> set[int]:
    base = sum(v for _, v in pairs) & 1
    if any((u + v) & 1 for u, v in pairs):
        return {0, 1}
    return {base}


def _window(t, y):
    """The window [lo, hi] = [ceil((y-t)/2), floor((y+t)/2)] for points p(k), k >= 1.

    Works elementwise when t or y is a numpy array.
    """
    return -((t - y) // 2), (y + t) // 2


def _dp_masks(pairs: list[tuple[int, int]], t: int, y: int) -> list[int] | None:
    """Reachable-point bitmasks per level, or None when p(m) = y is unreachable.

    Level k >= 1 points are confined to [ceil((y-t)/2), floor((y+t)/2)];
    bit b of masks[k] stands for point lo + b.  p(0) = 0 is unconstrained.
    """
    lo, hi = _window(t, y)
    if lo > hi:
        return None
    width = hi - lo + 1
    full = (1 << width) - 1
    masks = [0] * (len(pairs) + 1)
    if not pairs:
        return masks if y == 0 else None

    u0, v0 = pairs[0]
    first = 0
    for cand in (v0, -u0):
        if lo <= cand <= hi:
            first |= 1 << (cand - lo)
    masks[1] = first
    for k in range(1, len(pairs)):
        u, v = pairs[k]
        prev = masks[k]
        masks[k + 1] = ((prev << v) | (prev >> u)) & full
    if not (masks[len(pairs)] >> (y - lo)) & 1:
        return None
    return masks


def _dp_solution(
    pairs: list[tuple[int, int]], t: int, y: int, masks: list[int]
) -> UnsplitRouting:
    """Walk the masks backward from p(m) = y, preferring clockwise steps."""
    m = len(pairs)
    lo, hi = _window(t, y)
    dirs = [CW] * m
    point = y
    for k in range(m, 0, -1):
        u, v = pairs[k - 1]
        prev_cw = point - v
        if k == 1:
            reachable_cw = prev_cw == 0
        else:
            reachable_cw = lo <= prev_cw <= hi and (masks[k - 1] >> (prev_cw - lo)) & 1
        if reachable_cw:
            dirs[k - 1] = CW
            point = prev_cw
        else:
            dirs[k - 1] = CCW
            point = point + u
    assert point == 0
    return UnsplitRouting(tuple(dirs))


def dp_feasible(cross: CrossingInstance, t: Scaled, y: Scaled) -> UnsplitRouting | None:
    """A solution with p(0)=0, p(m)=y and increase at most t, if one exists."""
    g, pairs = _unit_pairs(cross)
    t_g, y_g = exact_div(t, g), exact_div(y, g)
    if abs(y_g) > t_g:
        return None
    masks = _dp_masks(pairs, t_g, y_g)
    if masks is None:
        return None
    return _dp_solution(pairs, t_g, y_g, masks)


def dp_feasible_any_y(
    pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...], t: int
) -> tuple[int, list[int]] | None:
    """Smallest end point y and its DP masks for increase at most t, if any.

    Takes plain-integer (u, v) pairs; an increase of at most t is
    achievable exactly when this returns a value (never for t < 0).
    """
    parities = _reachable_parities(pairs)
    for y in range(-t, t + 1):
        if (y & 1) not in parities:
            continue
        masks = _dp_masks(pairs, t, y)
        if masks is not None:
            return y, masks
    return None


def dp_feasible_block(U: np.ndarray, V: np.ndarray, t: int) -> np.ndarray:
    """Row-wise `dp_feasible_any_y(pairs, t) is not None` for (rows, m) arrays.

    Row r stands for the pairs (U[r, k], V[r, k]).  All end points y in
    [-t, t] run at once as columns; a row is feasible when the mask of some
    y of a reachable parity has bit y - lo set.  The masks are int64 while
    every shifted bit stays below the sign bit (a window of at most t + 1
    bits, shifted left by at most max V) and Python ints otherwise.
    """
    rows, m = U.shape
    if m == 0:
        return np.full(rows, t >= 0)
    dtype = np.int64 if t + 1 + int(V.max(initial=0)) <= 62 else object
    ys = np.arange(-t, t + 1)
    lo, hi = _window(t, ys)
    full = np.array([(1 << int(w)) - 1 for w in hi - lo + 1], dtype=dtype)
    mask = np.zeros((rows, len(ys)), dtype=dtype)
    for cand in (V[:, :1], -U[:, :1]):
        inside = (lo <= cand) & (cand <= hi)
        shift = np.where(inside, cand - lo, 0).astype(dtype)
        mask |= np.where(inside, 1 << shift, 0).astype(dtype)
    for k in range(1, m):
        mask = ((mask << V[:, k : k + 1]) | (mask >> U[:, k : k + 1])) & full
    end = ((mask >> (ys - lo).astype(dtype)) & 1) == 1
    parity = V.sum(axis=1, keepdims=True) & 1
    reach = ((U + V) & 1).any(axis=1, keepdims=True) | (parity == (ys & 1))
    return (end & reach).any(axis=1)


def dp_min_increase(cross: CrossingInstance) -> tuple[UnsplitRouting, Scaled]:
    """Minimum possible additive increase, by binary search over t."""
    g, pairs = _unit_pairs(cross)
    if not pairs:
        return UnsplitRouting(()), 0
    D = cross.D // g
    hi = (3 * D + 1) // 2  # feasible: the 3/2 * D guarantee
    lo = 0
    assert dp_feasible_any_y(pairs, hi) is not None
    while lo < hi:
        mid = (lo + hi) // 2
        if dp_feasible_any_y(pairs, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    y, masks = dp_feasible_any_y(pairs, lo)  # type: ignore[misc]
    return _dp_solution(pairs, lo, y, masks), lo * g

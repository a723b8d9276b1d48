"""Exact solvers: branch and bound over all routings and a pseudo-polynomial DP.

Brute force minimizes over all 2^k direction vectors for the k nonzero
demands by a depth-first branch and bound with subset-sum table leaves.
Loads are kept per segment between consecutive demand endpoints (at
most 2k+1 columns, whatever n is).  The search branches on all but the
last _CHUNK_BITS demands of its order; a leaf holds the loads of every
routing of those last demands as column sums of per-demand load deltas
(column x routes them by the bits of x; row c holds segment column c), so
a ring of at most _CHUNK_BITS demands is one table.  A leaf's objective
is an elementwise maximum down its rows.  Nodes are cut by the
two-column cut bound: a demand that separates columns e and f loads
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
arithmetic in one type per search: the first of int16, int32 and int64
whose maximum holds every bound sum (2 max|offset| + 3 sum(d) + 1), numpy
object arrays of Python ints past int64.

The DP runs in the grid unit g = gcd(SCALE, D, every u and v), in which
all crossing data are integers (g = SCALE for integer splits, SCALE/2
for half-integer ones).  For a target increase t it decides whether a
pattern with p(0) = 0 and p(m) = y exists whose every point k >= 1
satisfies (y-t)/2 <= p(k) <= (y+t)/2; this window condition is exactly
max_k |2 p(k) - y| <= t, the additive performance for x = 0.  Two
layouts of the same shift-or recurrence serve the callers.  Column-major,
level_masks runs a block of rows (pairs sequences) for every end point
y in [-t, t] at once, in uint64 words over each window per (row, y), at
any t, forward from p(0) = 0 or backward from y, so that the search
screen meets in the middle (Horowitz and Sahni, J. ACM 1974).
Position-major, points are rows and end points are lanes within a row;
every step moves all lanes by the same number of rows, so a level is one
pair of row shifts at any D.  The t + 1 rows of every lane form one bit
matrix, row t cleared in the lanes whose window is t - 1 wide.  Up to
_PACKED_BITS lanes times rows the matrix is one Python int and a level
is two shifts of it (_lane_levels, on the lanes that _lanes sets up
once); beyond that _probe holds it in a (t + 1)-row uint64 array per
column chunk and a level is two slice-ORs.  dp_min_increase
binary-searches t on one row with _probe.
The routing (dp_feasible, dp_min_increase) is the walk back over the
one-lane levels of its end point.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterable
from functools import cache, lru_cache

import numpy as np

from .errors import InvalidSetting, TooLargeForDP, TooManyDemands
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
from .scaled import SCALE, Scaled, exact_div, int_text

DEFAULT_BRUTE_CAP = 26
_CHUNK_BITS = 12
# Bits in one array of _probe's uint64 words.  All 2t+1 end points of a
# probe take about 2t^2 bits, gigabytes at D = 10^5, so wider probes run in
# column chunks of at least 64 end points.
_MASK_BITS = 1 << 24
# Most lanes times window rows that _probe holds in one Python int.  Up to
# here a level of shifts on one int beats the numpy calls of each level of
# a chunk, whose fixed cost dominates a probe of few end points.
_PACKED_BITS = 1 << 15
# Largest start bound t, in grid units, of dp_min_increase.  Its first
# probe has about 2t end points over windows of about t points, in uint64
# words; D = 10^5 starts at t = 1.5 * 10^5, and at t = 1 << 24 a chunk of
# 64 end points takes two 128 MB arrays.
_MAX_DP_BOUND = 1 << 24


def _brute_cap() -> int:
    value = os.environ.get("RINGLOAD_BRUTE_CAP")
    if not value:
        return DEFAULT_BRUTE_CAP
    if not (value.isascii() and value.isdigit()):
        raise InvalidSetting(
            f"RINGLOAD_BRUTE_CAP must be a non-negative integer, got {value!r}"
        )
    digits = value.lstrip("0")  # a cap of 19 digits or more exceeds every demand count
    return int(digits or "0") if len(digits) < 19 else sys.maxsize


def _subset_sums(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Column x is start plus the sum of rows[p] over the set bits len(rows)-1-p of x."""
    table = np.empty((len(start), 1 << len(rows)), dtype=rows.dtype)
    table[:, 0] = start
    for bit, row in enumerate(rows[::-1]):
        np.add(table[:, : 1 << bit], row[:, None], out=table[:, 1 << bit : 2 << bit])
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
    leaf table, whose column x routes leaf demand r counterclockwise when
    bit leaf_bits-1-r of x is set.  remaining[t] sums the separation
    matrices of the demands from position t of order on; a plan without
    branching needs none.  Every table keeps the type of d (sums of small
    ints would widen to int64 unless given it).
    """

    def __init__(self, order: list[int], d: np.ndarray, inside: np.ndarray):
        depth = max(len(order) - _CHUNK_BITS, 0)
        d, inside = d[order, None], inside[order]
        cw = np.where(inside, d, 0)
        ccw = d - cw
        self.choices = list(zip(cw[:depth], ccw[:depth]))
        self.leaf_bits = len(order) - depth
        start = cw[depth:].sum(axis=0, dtype=d.dtype)
        self.leaf = _subset_sums(start, ccw[depth:] - cw[depth:])
        self.remaining = None
        if depth:
            sep = np.where(inside[:, :, None] != inside[:, None, :], d[:, :, None], 0)
            suffix = np.cumsum(sep[::-1], axis=0, dtype=d.dtype)[::-1]
            self.remaining = np.concatenate([suffix, np.zeros_like(sep[:1])])[: depth + 1]


def _least_value(plan: _Plan, cur: np.ndarray, best: int, t: int = 0) -> int:
    """The least objective below best over all completions of the node cur, or best if none is.

    The node holds the demands before position t of plan's order placed;
    the root is t = 0.  Depth first, the child with the smaller bound
    first, so the first leaf reached is a greedy routing; a child is cut
    once its bound reaches the best value found so far (a child's bound is
    never below its parent's, so the root needs no test of its own).  At
    a leaf, column x of the leaf table plus cur holds the loads of
    routing x, and its objective is their maximum.  The recursion is a
    module-level function, not a closure, so that no reference cycle
    keeps the plan's tables alive after the search returns.
    """
    if t == len(plan.choices):
        return min(best, int((plan.leaf + cur[:, None]).max(axis=0).min()))
    children = [(_cut_bound(child, plan.remaining[t + 1]), child)
                for child in (cur + row for row in plan.choices[t])]
    if children[1][0] < children[0][0]:
        children.reverse()
    for bound, child in children:
        if bound < best:
            best = _least_value(plan, child, best, t + 1)
    return best


def _first_at_most(
    plan: _Plan, cur: np.ndarray, value: int | None, t: int = 0, prefix: int = 0
) -> tuple[int, int] | None:
    """The first completion of the node cur in plan order whose objective is at most value.

    Returns its objective and its index (bit k-1-t is the flag of the
    demand at position t of the order), or None if there is none.  The
    node holds the demands before position t placed, by the flags of
    prefix; the root is t = 0, prefix = 0, and every routing is a
    completion of it.  Depth first, clockwise first, cutting nodes whose
    bound exceeds value; within a leaf, whose column x plus cur holds the
    loads of routing x, the first column of least maximum wins.  value
    may be None only when the root is the leaf.
    """
    if t == len(plan.choices):
        objective = (plan.leaf + cur[:, None]).max(axis=0)
        pos = int(np.argmin(objective))
        if value is None or objective[pos] <= value:
            return int(objective[pos]), prefix << plan.leaf_bits | pos
        return None
    for bit, row in enumerate(plan.choices[t]):
        child = cur + row
        if _cut_bound(child, plan.remaining[t + 1]) <= value:
            found = _first_at_most(plan, child, value, t + 1, 2 * prefix + bit)
            if found is not None:
                return found
    return None


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
    ends = [(inst.i[idx] - 1, inst.j[idx] - 1) for idx in active]
    values = [inst.d[idx] for idx in active]
    cols = sorted({0}.union(*ends))
    bound = 2 * max(abs(offset[c]) for c in cols) + 3 * sum(values) + 1
    dtype = next((kind for kind in (np.int16, np.int32, np.int64)
                  if bound <= np.iinfo(kind).max), object)
    d = np.array(values, dtype=dtype)
    inside = np.array(
        [[i <= c < j for c in cols] for i, j in ends], dtype=bool
    ).reshape(len(ends), len(cols))
    root = np.array([-offset[c] for c in cols], dtype=dtype)

    value = None
    if len(values) > _CHUNK_BITS:
        by_value = sorted(range(len(values)), key=lambda p: -values[p])
        all_cw = int((np.where(inside, d[:, None], 0).sum(axis=0) + root).max())
        value = _least_value(_Plan(by_value, d, inside), root, all_cw)
    value, index = _first_at_most(_Plan(list(range(len(values))), d, inside), root, value)
    dirs = [CW] * len(inst.d)
    for row, idx in enumerate(active):
        if (index >> (len(active) - 1 - row)) & 1:
            dirs[idx] = CCW
    return UnsplitRouting(tuple(dirs)), value


def _active_demands(inst: RingInstance) -> list[int]:
    active = [idx for idx, d in enumerate(inst.d) if d > 0]
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
    return _enumerate_min(inst, _active_demands(inst), (0,) * inst.n)


def _unit_pairs(cross: CrossingInstance) -> tuple[int, list[tuple[int, int]]]:
    """The grid unit g = gcd(SCALE, D, every u and v) and the pairs in units of g."""
    g = math.gcd(SCALE, cross.D, *(x for pair in cross.pairs for x in pair))
    return g, [(u // g, v // g) for u, v in cross.pairs]


def _window(t, y):
    """The window [lo, hi] = [ceil((y-t)/2), floor((y+t)/2)] of the points p(k).

    Works elementwise when t or y is a numpy array.
    """
    return -((t - y) // 2), (y + t) // 2


def mask_columns(t: int) -> int:
    """The columns of level_masks at t >= -1: t // 64 + 1 words per end point in [-t, t]."""
    return (t // 64 + 1) * (2 * t + 1)


@cache
def _word_tables(W: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and full words of every window in W words, read-only.

    Column d of start, (W, 128 W), sets bit d // 2; column n - 1 of full,
    (W, 64 W), sets the n bits of a window of n points (0 - 1 is all ones).
    """
    bit = np.arange(128 * W) // 2
    start = np.zeros((W, 128 * W), dtype=np.uint64)
    start[bit % W, np.arange(128 * W)] = np.uint64(1) << (bit // W).astype(np.uint64)
    width = (np.arange(64 * W) - np.arange(W)[:, None]) // W + 1  # bits in word w, up to 64
    full = (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)
    for words in (start, full):
        words.setflags(write=False)
    return start, full


# Two entries: a screen's slices run at one t, each with a backward and a forward call.
@lru_cache(maxsize=2)
def _window_masks(t: int, backward: bool) -> tuple[np.ndarray, np.ndarray]:
    """The start and full words of level_masks at t, read-only (W, 2t + 1) arrays.

    Column y + t starts at bit (t - y) // 2 forward, (t + y) // 2 backward,
    in a window of t + 1 - (t + y) % 2 points (_word_tables).
    """
    start, full = _word_tables(t // 64 + 1)
    start = np.ascontiguousarray(start[:, : 2 * t + 1] if backward else start[:, 2 * t :: -1])
    full = full.take(t - np.arange(start.shape[1]) % 2, axis=1)
    for words in (start, full):
        words.setflags(write=False)
    return start, full


def level_masks(U: np.ndarray, V: np.ndarray, t: int, backward: bool = False) -> np.ndarray:
    """Each row's masks after its pairs, for every end point y in [-t, t].

    A (rows, W (2t + 1)) uint64 array, W = t // 64 + 1 (a window holds at
    most t + 1 points): row r stands for the pairs (U[r, k], V[r, k]), and
    bit b // W of word w = b % W, in column w (2t + 1) + y + t, for the
    point lo + b of the window [lo, hi] of (t, y).  A level steps up by V
    and down by U.  Forward, from p(0) = 0, the masks hold the points the
    pairs reach; backward (over the reversed columns, u and v swapped),
    from y, those from which they reach y, so a prefix's forward and a
    suffix's backward masks share a bit in some column exactly where the
    row is feasible at t.  A step up by s fills word w from word (w - s)
    mod W shifted left by s // W, or one more where w < s mod W; a step
    down by u from word (w + u) mod W shifted right by u // W, or one more
    where w + u mod W >= W.  The shifts drop, and full clears, every bit
    past a window (numpy's uint64 shifts by 64 or more give 0).
    """
    U, V = (V[:, ::-1], U[:, ::-1]) if backward else (U, V)
    start, full = _window_masks(t, backward)
    (W, C), mask = start.shape, start  # the start is shared by every row up to the first level
    if W <= 1:  # the row-gather of words is the identity at W = 1 (t = -1 has no words)
        U, V = U.astype(np.uint64), V.astype(np.uint64)
    for u, v in zip(U.T, V.T):
        if W <= 1:
            step = mask << v[:, None, None]
            step |= mask >> u[:, None, None]
        else:  # one row-gather of whole words per direction, then one shift per word
            base = np.arange(len(U))[:, None] * W if mask.ndim == 3 else 0
            (up, down), source = np.divmod(np.arange(W) + np.stack([-v, u])[..., None], W)
            step = mask.reshape(-1, C).take(source[0] + base, axis=0)
            step <<= (-up)[..., None].astype(np.uint64)
            words = mask.reshape(-1, C).take(source[1] + base, axis=0)
            words >>= down[..., None].astype(np.uint64)
            step |= words
        step &= full
        mask = step
    return np.broadcast_to(mask, (len(U), W, C)).reshape(len(U), full.size)


def _lanes(t: int, ys: list[int]) -> tuple[int, int, int]:
    """K = len(ys) and the start and full masks of the end points ys (each |y| <= t).

    Bit q*K + j says whether p can be at lo + q (q in [0, t]) in the window
    [lo, hi] of (t, ys[j]): start holds p(0) = 0 in each lane j, and full
    clears row t in the narrow lanes (t + ys[j] odd), whose window is t - 1
    wide.
    """
    K = len(ys)
    start = narrow = 0
    for j, y in enumerate(ys):
        lo, hi = _window(t, y)
        start |= 1 << (-lo * K + j)
        narrow |= (hi - lo < t) << j
    return K, start, ((1 << K * (t + 1)) - 1) ^ (narrow << K * t)


def _lane_levels(pairs: Iterable[tuple[int, int]], lanes: tuple[int, int, int]) -> list[int]:
    """The masks of the lanes (_lanes) before and after each pair (v rows up or u down)."""
    K, start, full = lanes
    levels = [start]
    for u, v in pairs:
        R = levels[-1]
        levels.append((R << K * v | R >> K * u) & full)
    return levels


def _probe(pairs: list[tuple[int, int]], t: int, ys: np.ndarray) -> np.ndarray:
    """Booleans over ys (each |y| <= t): some pattern of pairs has p(m) = y and increase <= t.

    Lane j answers by its row y - lo of the bit matrix of _lanes, whose
    row t every level clears in the narrow lanes: one Python int up to
    _PACKED_BITS lanes times rows (_lane_levels), else bit j of a (t + 1,
    words) uint64 array, in column chunks of at most _MASK_BITS bits per
    array and at least 64 lanes.
    """
    lo, hi = _window(t, ys)
    K = len(ys)
    if K * (t + 1) <= _PACKED_BITS:
        last = _lane_levels(pairs, _lanes(t, ys.tolist()))[-1].to_bytes(K * (t + 1) // 8 + 1, "little")
        bits = np.unpackbits(np.frombuffer(last, dtype=np.uint8), bitorder="little")
        return bits[(ys - lo) * K + np.arange(K)].astype(bool)
    found = np.empty(K, dtype=bool)
    chunk = max(64, _MASK_BITS // (t + 1) // 64 * 64)
    for c in range(0, K, chunk):
        cols = slice(c, c + chunk)
        word, shift = np.divmod(np.arange(len(ys[cols])), 64)
        bit = np.uint64(1) << shift.astype(np.uint64)
        R = np.zeros((t + 1, word[-1] + 1), dtype=np.uint64)
        np.bitwise_or.at(R, (-lo[cols], word), bit)  # lanes can share a start row and word
        keep = np.bitwise_or.reduceat(bit * (hi - lo == t)[cols], np.arange(0, len(bit), 64))
        S = np.empty_like(R)
        for u, v in pairs:
            S[: min(v, t + 1)] = 0
            if v <= t:
                S[v:] = R[: t + 1 - v]
            if u <= t:
                S[: t + 1 - u] |= R[u:]
            S[t] &= keep  # the narrow lanes lose row t
            R, S = S, R
        found[cols] = (R[(ys - lo)[cols], word] & bit) != 0
    return found


def _walk_back(pairs: list[tuple[int, int]], t: int, y: int) -> UnsplitRouting | None:
    """The routing to p(m) = y with increase at most t, clockwise steps first, if any.

    Needs |y| <= t.  Walks the one-lane levels of y (_lane_levels) backward.
    """
    lo, hi = _window(t, y)
    masks = _lane_levels(pairs, _lanes(t, [y]))

    def reached(k: int, point: int) -> bool:
        return lo <= point <= hi and bool((masks[k] >> (point - lo)) & 1)

    if not reached(len(pairs), y):
        return None
    dirs = [CW] * len(pairs)
    point = y
    for k in range(len(pairs), 0, -1):
        u, v = pairs[k - 1]
        if reached(k - 1, point - v):
            point -= v
        else:
            dirs[k - 1] = CCW
            point += u
    assert point == 0
    return UnsplitRouting(tuple(dirs))


def dp_feasible(cross: CrossingInstance, t: Scaled, y: Scaled) -> UnsplitRouting | None:
    """A solution with p(0)=0, p(m)=y and increase at most t, if one exists."""
    g, pairs = _unit_pairs(cross)
    t_g, y_g = exact_div(t, g), exact_div(y, g)
    if abs(y_g) > t_g:
        return None
    return _walk_back(pairs, t_g, y_g)


def dp_min_increase(cross: CrossingInstance) -> tuple[UnsplitRouting, Scaled]:
    """Minimum possible additive increase, by binary search over t.

    Feasibility only grows with t, and so does the set of feasible end
    points, so once a probe is feasible the smaller probes after it test
    only the end points found feasible there.  Some probe below the
    3/2 * D start is feasible, as every crossing instance has a routing of
    increase at most 19/14 * D.  No t below b = max_k min(u_k, v_k) is:
    at t, every point p(k) lies in the window of (t, y) (p(0) = 0 does
    whenever |y| <= t), so |2 p(k) - y| <= t and |2 p(k-1) - y| <= t give
    |2 p(k) - 2 p(k-1)| <= 2t, and the step p(k) - p(k-1) is v_k or -u_k,
    so t >= min(u_k, v_k) for every k.  The first probe stays at half the
    start: it tests all 2t + 1 end points, and starting the search at b
    would move it to a larger t.  The probes after it never go below b.
    The routing is the walk back from the smallest feasible end point at
    the minimum t.
    """
    g, pairs = _unit_pairs(cross)
    if not pairs:
        return UnsplitRouting(()), 0
    lo, hi = 0, (3 * (cross.D // g) + 1) // 2  # feasible: the 3/2 * D guarantee
    if hi > _MAX_DP_BOUND:
        raise TooLargeForDP(
            f"the DP's start bound of {int_text(hi)} grid units exceeds its limit of {_MAX_DP_BOUND}"
        )
    bound = max(min(u, v) for u, v in pairs)
    ys = None  # end points feasible at t = hi, once a probe has found some
    while lo < hi:
        mid = (lo + hi) // 2
        probe = np.arange(-mid, mid + 1) if ys is None else ys[np.abs(ys) <= mid]
        found = probe[_probe(pairs, mid, probe)]
        if found.size:
            hi, ys = mid, found
        else:
            lo = mid + 1
        lo = max(lo, bound)
    assert ys is not None, "no probe below 3/2 * D: the 19/14 * D guarantee failed"
    return _walk_back(pairs, lo, int(ys[0])), lo * g

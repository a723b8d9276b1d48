"""Exact solvers: enumeration over all routings and a pseudo-polynomial DP.

Brute force is a subset-sum enumeration over all 2^k direction vectors
for the k nonzero demands.  Loads are kept per segment between
consecutive demand endpoints (at most 2k+1 columns, whatever n is), and
each routing's loads are a row sum of two subset-sum tables of
per-demand load deltas.  The arithmetic is exact integer arithmetic:
int64 while no sum can reach 2^63, numpy object arrays of Python ints
otherwise.  Direction vectors are ordered lexicographically with demand
0 as the most significant position and clockwise before
counterclockwise, so ties resolve to the lexicographically smallest
vector.

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
    path_loads,
    validate_instance,
)
from .reduction import CrossingInstance
from .scaled import SCALE, Scaled, exact_div

DEFAULT_BRUTE_CAP = 26
_CHUNK_BITS = 16


def _brute_cap() -> int:
    value = os.environ.get("RINGLOAD_BRUTE_CAP")
    if not value:
        return DEFAULT_BRUTE_CAP
    if not (value.isascii() and value.isdigit()):
        raise InvalidSetting(
            f"RINGLOAD_BRUTE_CAP must be a non-negative integer, got {value!r}"
        )
    return int(value)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Row x is the sum of rows[p] over the set bits len(rows)-1-p of x."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        table = np.concatenate([table, table + row])
    return table


def _enumerate_min(
    inst: RingInstance, active: list[int], offset: LoadVector
) -> tuple[UnsplitRouting, Scaled]:
    """Minimize max over edges of (loads of the routing - offset).

    Edges between consecutive endpoints of active demands carry equal
    loads under every routing, so one column per such segment suffices.
    Row sums of subset-sum tables give every routing's column loads: a
    high table over the leading demands, a low table over the last
    _CHUNK_BITS, and one (2^_CHUNK_BITS, columns) block per high row.  The
    first (lexicographically smallest) minimizer wins; bit k-1-i of its
    index is demand i's flag (1 = counterclockwise).
    """
    dems = [inst.demands[idx] for idx in active]
    cols = sorted({0}.union(*((dem.i - 1, dem.j - 1) for dem in dems)))
    base = path_loads(inst.n, ((dem.i, dem.j, dem.d, 0) for dem in dems))
    rest = [base[c] - offset[c] for c in cols]
    delta = [[-dem.d if dem.i - 1 <= c < dem.j - 1 else dem.d for c in cols] for dem in dems]
    exact_in_int64 = max(map(abs, rest)) + sum(dem.d for dem in dems) < 2**63
    dtype = np.int64 if exact_in_int64 else object
    rows = np.array(delta, dtype=dtype).reshape(len(dems), len(cols))
    split = max(len(dems) - _CHUNK_BITS, 0)
    low = _subset_sums(rows[split:])
    high = _subset_sums(rows[:split]) + np.array(rest, dtype=dtype)

    best_value, best_index = None, -1
    for h, high_row in enumerate(high):
        objective = (low + high_row).max(axis=1)
        pos = int(np.argmin(objective))
        if best_value is None or objective[pos] < best_value:
            best_value, best_index = objective[pos], h * len(low) + pos
    dirs = [CW] * len(inst.demands)
    for row, idx in enumerate(active):
        if (best_index >> (len(active) - 1 - row)) & 1:
            dirs[idx] = CCW
    return UnsplitRouting(tuple(dirs)), int(best_value)


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

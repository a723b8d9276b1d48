"""Exact solvers: enumeration over all routings and a pseudo-polynomial DP.

Brute force enumerates all 2^k direction vectors for the k nonzero
demands, evaluating loads for chunks of routings at once (a bit matrix
times a per-demand load-delta matrix).  The arithmetic runs in float64,
which is exact here: every entry is an integer far below 2^53, and this
is asserted before enumeration.  Direction vectors are ordered
lexicographically with demand 0 as the most significant position and
clockwise before counterclockwise, so ties resolve to the
lexicographically smallest vector.

The DP decides, for a crossing instance with integer data and a target
increase t, whether a pattern with p(0) = 0 and p(m) = y exists whose
every point k >= 1 satisfies (y-t)/2 <= p(k) <= (y+t)/2; this window
condition is exactly max_k |2 p(k) - y| <= t, the additive performance
for x = 0.  Reachable point sets per level are bitmasks over the integer
window, and predecessor choices are rebuilt by walking the masks
backward.  The minimum increase is found by binary search on t (the
window only grows with t), scanning y over integers in [-t, t] whose
parity the step vectors can reach.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidSetting, TooManyDemands
from .model import (
    CCW,
    CW,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    edge_loads,
    validate_instance,
)
from .reduction import CrossingInstance
from .scaled import SCALE, Scaled, from_int, unscale

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


def _path_loads(inst: RingInstance, active: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-demand load vectors: rows for clockwise and counterclockwise."""
    cw = np.zeros((len(active), inst.n), dtype=np.int64)
    ccw = np.zeros((len(active), inst.n), dtype=np.int64)
    for row, idx in enumerate(active):
        dem = inst.demands[idx]
        cw[row, dem.i - 1 : dem.j - 1] = dem.d
        ccw[row, : dem.i - 1] = dem.d
        ccw[row, dem.j - 1 :] = dem.d
    return cw, ccw


def _enumerate_min(
    delta: np.ndarray, base: np.ndarray, offset: np.ndarray
) -> tuple[int, Scaled]:
    """Minimize max(base + bits@delta - offset) over all bit vectors.

    Returns the first (lexicographically smallest) minimizing index; bit
    k-1-i of the index is demand i's flag (1 = counterclockwise).
    """
    k = delta.shape[0]
    magnitude = np.abs(delta).sum() + np.abs(base).sum() + np.abs(offset).sum()
    assert magnitude < 2**52, "float64 enumeration would lose exactness"
    delta_f = np.ascontiguousarray(delta, dtype=np.float64)
    rest = (base - offset).astype(np.float64)

    best_value, best_index = None, -1
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    chunk = 1 << min(_CHUNK_BITS, k)
    for start in range(0, 1 << k, chunk):
        idx = np.arange(start, start + chunk, dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.float64)
        objective = (bits @ delta_f + rest).max(axis=1)
        pos = int(np.argmin(objective))
        value = objective[pos]
        if best_value is None or value < best_value:
            best_value = value
            best_index = start + pos
    assert best_value is not None and best_value == int(best_value)
    return best_index, int(best_value)


def _routing_from_index(
    inst: RingInstance, active: list[int], index: int
) -> UnsplitRouting:
    dirs = [CW] * len(inst.demands)
    k = len(active)
    for row, idx in enumerate(active):
        if (index >> (k - 1 - row)) & 1:
            dirs[idx] = CCW
    return UnsplitRouting(tuple(dirs))


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
    active = _active_demands(inst)
    cw, ccw = _path_loads(inst, active)
    split_loads = np.array(edge_loads(inst, split), dtype=np.int64)
    index, value = _enumerate_min(ccw - cw, cw.sum(axis=0), split_loads)
    return _routing_from_index(inst, active, index), value


def brute_force_optimum_L(inst: RingInstance) -> tuple[UnsplitRouting, Scaled]:
    """Minimum over all routings of the maximum edge load (the value L)."""
    validate_instance(inst)
    active = _active_demands(inst)
    cw, ccw = _path_loads(inst, active)
    zero = np.zeros(inst.n, dtype=np.int64)
    index, value = _enumerate_min(ccw - cw, cw.sum(axis=0), zero)
    return _routing_from_index(inst, active, index), value


def _integral_pairs(cross: CrossingInstance) -> list[tuple[int, int]]:
    pairs = []
    for u, v in cross.pairs:
        if u % SCALE or v % SCALE:
            raise ValueError("DP requires integer demand splits")
        pairs.append((unscale(u), unscale(v)))
    return pairs


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
    pairs = _integral_pairs(cross)
    t_int, y_int = unscale(t), unscale(y)
    if abs(y_int) > t_int:
        return None
    masks = _dp_masks(pairs, t_int, y_int)
    if masks is None:
        return None
    return _dp_solution(pairs, t_int, y_int, masks)


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
    pairs = _integral_pairs(cross)
    if not pairs:
        return UnsplitRouting(()), 0
    D = unscale(cross.D)
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
    return _dp_solution(pairs, lo, y, masks), from_int(lo)

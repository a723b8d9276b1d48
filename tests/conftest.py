"""Shared test helpers and the acceptance summary.

The terminal summary prints one PASS/FAIL line per acceptance criterion
so a plain `pytest` run always shows the per-criterion outcome.
"""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
from hypothesis import strategies as st

from ringload import exact, search
from ringload.errors import IndexMismatch
from ringload.instances import random_crossing
from ringload.model import (
    CCW,
    CW,
    Demand,
    LoadVector,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    path_loads,
    validate_instance,
)
from ringload.patterns import Pattern
from ringload.reduction import (
    CrossingInstance,
    _crossing_suffix,
    lift_solution,
    standalone_crossing,
)
from ringload.scaled import SCALE, Scaled, exact_div, from_int


def random_ring(rng: random.Random, max_n: int = 10, max_demands: int = 6,
                max_d: int = 8) -> tuple[RingInstance, SplitRouting]:
    """Random instance with a split routing on the half-integer grid."""
    n = rng.randint(3, max_n)
    demands, cw = [], []
    for _ in range(rng.randint(0, max_demands)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        d = rng.randint(0, max_d)
        demands.append(Demand(i, j, from_int(d)))
        cw.append(rng.randint(0, 2 * d) * 14)  # multiples of one half
    return RingInstance(n, tuple(demands)), SplitRouting(tuple(cw))


def with_extra_demands(inst, split, rng, count):
    """Insert count zero, unsplit or split demands at random indices.

    Every node of a crossing ring is an endpoint, so each new demand shares
    its endpoints with crossing demands.
    """
    demands, cw = list(inst.demands), list(split.cw)
    for _ in range(count):
        kind = rng.choice(("zero", "unsplit", "split"))
        i = rng.randint(1, inst.n - 1)
        j = rng.randint(i + 1, inst.n)
        d = 0 if kind == "zero" else from_int(rng.randint(1, 6))
        half_units = rng.randint(0, 2 * d // SCALE)
        x = rng.choice((0, d)) if kind == "unsplit" else half_units * SCALE // 2
        pos = rng.randint(0, len(demands))
        demands.insert(pos, Demand(i, j, d))
        cw.insert(pos, x)
    return RingInstance(inst.n, tuple(demands)), SplitRouting(tuple(cw))


@st.composite
def split_rings(draw, max_demands=10):
    """Small rings: shared endpoints, identical and zero demands, half-integer splits."""
    n = draw(st.integers(3, 9))
    demands, cw = [], []
    for _ in range(draw(st.integers(0, max_demands))):
        if demands and draw(st.booleans()):
            dem = draw(st.sampled_from(demands))
        else:
            i = draw(st.integers(1, n - 1))
            dem = Demand(i, draw(st.integers(i + 1, n)), from_int(draw(st.integers(0, 6))))
        demands.append(dem)
        cw.append(draw(st.integers(0, 2 * dem.d // 28)) * 14)  # multiples of one half
    return RingInstance(n, tuple(demands)), SplitRouting(tuple(cw))


def lifted_unsplit(cross: CrossingInstance) -> tuple[tuple[int, str], ...]:
    """(index, direction) of each demand outside demand_map, as lifting routes it.

    Those are the demands uncrossing left unsplit; their lifted direction
    must not depend on the crossing-form solution, so the all-clockwise and
    the all-counterclockwise solutions must lift them alike.
    """
    all_cw, all_ccw = (
        lift_solution(cross, UnsplitRouting((flag,) * cross.m)).dirs for flag in (CW, CCW)
    )
    unsplit = tuple((idx, flag) for idx, flag in enumerate(all_cw) if idx not in cross.demand_map)
    assert unsplit == tuple((idx, all_ccw[idx]) for idx, _ in unsplit)
    return unsplit


def criterion_8_crossings() -> list[CrossingInstance]:
    """The 500 crossing rings of criterion 8, m = 2..12 and D = 2..50."""
    rng = random.Random(8000)
    rings = []
    for trial in range(500):
        m = rng.randint(2, 12)
        D = rng.randint(2, 50)
        rings.append(random_crossing(m, D, seed=10_000 + trial))
    return rings


def random_small_big(rng: random.Random, m: int, D: int) -> CrossingInstance:
    """Crossing instance whose demands avoid the medium band at delta 2/7."""
    small_hi = 2 * D // 7
    big_lo = D - small_hi
    pairs = []
    for _ in range(m):
        if rng.random() < 0.5 and small_hi >= 2:
            d = rng.randint(2, small_hi)
        else:
            d = rng.randint(max(big_lo, 2), D)
        u = rng.randint(1, d - 1)
        pairs.append((from_int(u), from_int(d - u)))
    return standalone_crossing(tuple(pairs), from_int(D))


# The scalar DP: one end point y at a time, in plain Python ints, with
# the parity filter on y.  It is the oracle that exact's mask recurrences
# (level_masks, its words joined by window_masks, and through
# dp_feasible_block; _probe through dp_min_increase; _walk_back through
# dp_feasible and dp_min_increase) and
# the search screen that joins forward and backward level_masks are
# compared against.


def scalar_unit_pairs(cross: CrossingInstance) -> tuple[int, list[tuple[int, int]]]:
    g = math.gcd(SCALE, cross.D, *(x for pair in cross.pairs for x in pair))
    return g, [(u // g, v // g) for u, v in cross.pairs]


def _reachable_parities(pairs) -> set[int]:
    base = sum(v for _, v in pairs) & 1
    if any((u + v) & 1 for u, v in pairs):
        return {0, 1}
    return {base}


def scalar_levels(pairs, t: int, y: int) -> list[int] | None:
    """Reachable-point bitmasks per level, or None when the window is empty.

    Level k >= 1 points are confined to [ceil((y-t)/2), floor((y+t)/2)];
    bit b of masks[k] stands for point lo + b.  p(0) = 0 is unconstrained.
    """
    lo, hi = -((t - y) // 2), (y + t) // 2
    if lo > hi:
        return None
    full = (1 << (hi - lo + 1)) - 1
    masks = [0] * (len(pairs) + 1)
    if not pairs:
        return masks
    u0, v0 = pairs[0]
    for cand in (v0, -u0):
        if lo <= cand <= hi:
            masks[1] |= 1 << (cand - lo)
    for k in range(1, len(pairs)):
        u, v = pairs[k]
        masks[k + 1] = ((masks[k] << v) | (masks[k] >> u)) & full
    return masks


def scalar_masks(pairs, t: int, y: int) -> list[int] | None:
    """scalar_levels, or None when p(m) = y is unreachable."""
    masks = scalar_levels(pairs, t, y)
    if masks is None:
        return None
    lo = -((t - y) // 2)
    reached = (masks[-1] >> (y - lo)) & 1 if pairs else y == 0
    return masks if reached else None


def scalar_feasible_any_y(pairs, t: int) -> tuple[int, list[int]] | None:
    """Smallest end point y and its masks for increase at most t, if any."""
    parities = _reachable_parities(pairs)
    for y in range(-t, t + 1):
        if (y & 1) not in parities:
            continue
        masks = scalar_masks(pairs, t, y)
        if masks is not None:
            return y, masks
    return None


def scalar_solution(pairs, t: int, y: int, masks: list[int]) -> UnsplitRouting:
    """Walk the masks backward from p(m) = y, preferring clockwise steps."""
    lo, hi = -((t - y) // 2), (y + t) // 2
    dirs = [CW] * len(pairs)
    point = y
    for k in range(len(pairs), 0, -1):
        u, v = pairs[k - 1]
        prev_cw = point - v
        if k == 1:
            reachable_cw = prev_cw == 0
        else:
            reachable_cw = lo <= prev_cw <= hi and (masks[k - 1] >> (prev_cw - lo)) & 1
        if reachable_cw:
            point = prev_cw
        else:
            dirs[k - 1] = CCW
            point = point + u
    assert point == 0
    return UnsplitRouting(tuple(dirs))


def scalar_dp_feasible(cross: CrossingInstance, t: int, y: int) -> UnsplitRouting | None:
    g, pairs = scalar_unit_pairs(cross)
    t_g, y_g = exact_div(t, g), exact_div(y, g)
    masks = scalar_masks(pairs, t_g, y_g) if abs(y_g) <= t_g else None
    return None if masks is None else scalar_solution(pairs, t_g, y_g, masks)


def scalar_dp_min_increase(cross: CrossingInstance) -> tuple[UnsplitRouting, int]:
    """Binary search on t over the full per-y scan of every probe."""
    g, pairs = scalar_unit_pairs(cross)
    if not pairs:
        return UnsplitRouting(()), 0
    lo, hi = 0, (3 * (cross.D // g) + 1) // 2
    assert scalar_feasible_any_y(pairs, hi) is not None
    while lo < hi:
        mid = (lo + hi) // 2
        if scalar_feasible_any_y(pairs, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    y, masks = scalar_feasible_any_y(pairs, lo)
    return scalar_solution(pairs, lo, y, masks), lo * g


# The block references: level_masks read by its layout rule, stated here
# on its own.  At t the masks have W = t // 64 + 1 uint64 words for each
# end point y in [-t, t], and bit b of the window of (t, y) is bit b // W
# of word b % W, in column w (2t + 1) + y + t for word w.


def window_masks(masks: np.ndarray, t: int) -> list[list[int]]:
    """Each row's level_masks at t as one Python int per end point, bit b for the point lo + b."""
    W, C = t // 64 + 1, 2 * t + 1
    words = masks.reshape(len(masks), W, C).astype("<u8")
    bits = np.unpackbits(words.view(np.uint8).reshape(*words.shape, 8), axis=-1, bitorder="little")
    bits = bits.transpose(0, 2, 3, 1).reshape(len(masks), C, 64 * W)  # bit p of word w at p W + w
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return [[int.from_bytes(column.tobytes(), "little") for column in row] for row in packed]


def dp_feasible_block(U: np.ndarray, V: np.ndarray, t: int) -> np.ndarray:
    """Row-wise "some routing has increase at most t" for (rows, m) arrays, forward.

    Row r stands for the pairs (U[r, k], V[r, k]), and is feasible where
    some end point y in [-t, t] (none for t < 0) has bit y - lo set in its
    window of the forward level_masks.  Rows run in slices of about 4 MB
    of masks, and level_masks is looked up on exact at each call, so that
    a test that patches it sees these calls too.
    """
    ys = np.arange(-t, t + 1)
    bit = ys + (t - ys) // 2  # y - lo, lo = ceil((y - t) / 2)
    W = t // 64 + 1
    found = np.zeros(len(U), dtype=bool)
    step = 1 + (1 << 19) // max(W * len(ys), 1)
    for lo in range(0, len(U), step):
        words = exact.level_masks(U[lo : lo + step], V[lo : lo + step], t)
        words = words[:, bit % W * len(ys) + ys + t]
        found[lo : lo + step] = (words >> (bit // W).astype(np.uint64) & np.uint64(1)).any(axis=1)
    return found


# Steps that no code path of the package takes on its own, kept as
# oracles: the crossing test and the flow move of one demand pair, one
# uncrossing step (the reduction's sweep makes many at once, inline), the
# contraction lemma (solve checks each reported increase instead) and the
# pattern of a routing (the routes read routings off patterns).


def demands_cross(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """True iff the two demands cross (no edge-disjoint path pair exists).

    Demands sharing an endpoint are parallel: disjoint paths always exist.
    """
    i, j = first
    k, l = second
    if i == k or i == l or j == k or j == l:
        return False
    return (i < k < j) != (i < l < j)


def uncrossed_amounts(
    a: tuple[int, int, Scaled], b: tuple[int, int, Scaled], cw_a: Scaled, cw_b: Scaled
) -> tuple[Scaled, Scaled]:
    """New clockwise amounts of a split parallel pair of demands (i, j, d); no checks.

    Flow min{x_b1, x_b2} moves onto the first edge-disjoint path pair in
    the order cw/cw, cw_a/ccw_b, ccw_a/cw_b (a's clockwise arc first, for
    determinism); two counterclockwise arcs always share edge n.
    """
    (i, j, d_a), (k, l, d_b) = a, b
    if j <= k or l <= i:
        shift = min(d_a - cw_a, d_b - cw_b)
        return cw_a + shift, cw_b + shift
    if k <= i and j <= l:
        shift = min(d_a - cw_a, cw_b)
        return cw_a + shift, cw_b - shift
    if i <= k and l <= j:
        shift = min(cw_a, d_b - cw_b)
        return cw_a - shift, cw_b + shift
    raise ValueError(f"demands ({i},{j}) and ({k},{l}) admit no edge-disjoint paths")


def crossing_suffix(inst: RingInstance, cw: list[Scaled]) -> int:
    """Start of the pairwise-crossing suffix, by a fresh walk from the end."""
    return _crossing_suffix(inst, cw, len(cw), [], [])


def uncross_pair(inst: RingInstance, split: SplitRouting, a: int, b: int) -> SplitRouting:
    """Reroute a parallel pair so at least one demand becomes unsplittable.

    Flow min{x_b1, x_b2} moves from the non-disjoint path pair onto the
    edge-disjoint pair; no edge load increases.  A no-op when either
    demand is already unsplittable.
    """
    validate_instance(inst, split)
    dem_a, dem_b = inst.demands[a], inst.demands[b]
    if demands_cross((dem_a.i, dem_a.j), (dem_b.i, dem_b.j)):
        raise ValueError(f"demands #{a} and #{b} cross")
    cw_a, cw_b = split.cw[a], split.cw[b]
    if cw_a in (0, dem_a.d) or cw_b in (0, dem_b.d):
        return split
    new_cw = list(split.cw)
    new_cw[a], new_cw[b] = uncrossed_amounts(
        (dem_a.i, dem_a.j, dem_a.d), (dem_b.i, dem_b.j, dem_b.d), cw_a, cw_b
    )
    return SplitRouting(tuple(new_cw))


def crossing_split_loads(pairs: tuple[tuple[Scaled, Scaled], ...]) -> LoadVector:
    """Split-routing loads on the 2m reduced edges (edge p = {p+1, p+2})."""
    m = len(pairs)
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    return path_loads(2 * m, range(1, m + 1), range(m + 1, 2 * m + 1), us, vs)


def assert_contraction(inst: RingInstance, cross: CrossingInstance) -> None:
    """The contraction lemma, checked on one reduction of inst.

    Under the uncrossed split, original edge k, from node k to k + 1,
    carries the crossing demands' load of the reduced edge of the last of
    their endpoints at or before k (the wrap edge 2m - 1 before the first
    one).  That is, the edge of each endpoint carries its reduced edge's
    load, and every other edge the load of the edge before it (edge n
    before edge 1).
    """
    if not cross.m:
        return
    lows = [inst.i[idx] for idx in cross.demand_map]
    highs = [inst.j[idx] for idx in cross.demand_map]
    nodes = lows + highs
    cw = [cross.uncrossed.cw[idx] for idx in cross.demand_map]
    ccw = [inst.d[idx] - x for idx, x in zip(cross.demand_map, cw)]
    loads = path_loads(inst.n, lows, highs, cw, ccw)
    steps = {node for node in range(1, inst.n + 1) if loads[node - 1] != loads[node - 2]}
    assert steps <= set(nodes)
    assert [loads[node - 1] for node in nodes] == list(crossing_split_loads(cross.pairs))


def pattern_from_solution(cross: CrossingInstance, z: UnsplitRouting, x: Scaled = 0) -> Pattern:
    """Prefix sums of the solution's steps, started at x."""
    if len(z.dirs) != cross.m:
        raise IndexMismatch(f"z has {len(z.dirs)} entries for m={cross.m}")
    points = [x]
    for (u, v), flag in zip(cross.pairs, z.dirs):
        points.append(points[-1] + (v if flag == CW else -u))
    return Pattern(cross, tuple(points))


# The block path that search's part-wise scan replaced: decode every index
# of a range, then test each row.  It is the oracle that the candidates and
# canonical stages of search._Scan are compared against.


def decode_block(family: search.StructuredFamily, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """family.decode(index) for lo <= index < hi, as (rows, m) arrays U and V."""
    index = np.arange(lo, hi, dtype=np.int64 if family.size < 2**63 else object)
    scan = search._scan(family.m, family.D)
    groups, U, V = scan.groups, scan.U, scan.V
    codes = np.empty((hi - lo, len(groups)), dtype=np.int64)
    for g, (radix, first) in enumerate(groups):
        codes[:, g] = index % radix + first
        index = index // radix
    shape = (hi - lo, family.m)
    return U.take(codes, axis=0).reshape(shape), V.take(codes, axis=0).reshape(shape)


def canonical_mask(U: np.ndarray, V: np.ndarray, D: int) -> np.ndarray:
    """Row-wise "no aligned symmetry image is lexicographically smaller".

    Row r is a family member.  Every row compares the high keys of the
    scan's weights, and rows where some aligned image ties the identity on
    the high key compare low keys.  An image is aligned on a row where the
    source positions of its odd positions all carry value D there; the
    images are in the weights' column order.
    """
    m = U.shape[1]
    scan = search._scan(m, D)
    labels = tuple((k, m + k) for k in range(m))
    images = [labels] + sorted(search.symmetry_orbit(labels) - {labels})
    odd_sources = np.array([[first % m for first, _ in image[1::2]] for image in images])
    base = D + 1
    packed = np.concatenate([U * base + V, V * base + U], axis=1)
    packed = packed.astype(scan.high.dtype, copy=False)
    keys = packed @ scan.high
    counted = (U + V == D)[:, odd_sources].all(axis=2)
    smaller = (keys < keys[:, :1]) & counted
    tied = (keys == keys[:, :1]) & counted
    tied[:, 0] = False
    ties = np.flatnonzero(tied.any(axis=1))
    keys = packed[ties] @ scan.low
    smaller[ties] |= (keys < keys[:, :1]) & tied[ties]
    return ~smaller.any(axis=1)


_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


class Interrupted(Exception):
    """Stands for a crash in the middle of a search."""


_VALUES = search._Scan.values  # unpatched, as fail_after may patch it again


def fail_after(monkeypatch, rows: int) -> list:
    """Make search's valuation raise Interrupted rather than value more than `rows` rows in all.

    Returns the members that _Scan.values has valued, as pair tuples, in
    the order of its calls.
    """
    done = []

    def counted(scan, block, t):
        if len(done) + len(block.code) > rows:
            raise Interrupted
        U, V = scan.pairs(block)
        done.extend(tuple(zip(u, v)) for u, v in zip(U.tolist(), V.tolist()))
        return _VALUES(scan, block, t)

    monkeypatch.setattr(search._Scan, "values", counted)
    return done


def record_pairs(out: str) -> list:
    """The members of `ringload search`'s hit records, as pair tuples."""
    return [tuple((u, v) for v, u in json.loads(line)["pairs"]) for line in out.splitlines()]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                outcome = "PASS" if status == "passed" else "FAIL"
                lines[number] = f"criterion {number:2d} [{match.group(2)}]: {outcome}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])

"""Crossing tests, uncrossing, reduction to crossing form, lifting."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_contraction,
    crossing_split_loads,
    crossing_suffix,
    demands_cross,
    lifted_unsplit,
    pattern_from_solution,
    random_ring,
    split_rings,
    uncross_pair,
    uncrossed_amounts,
    with_extra_demands,
)
from ringload.errors import LengthMismatch
from ringload import reduction
from ringload.instances import builtin, random_crossing
from ringload.model import (
    CCW,
    CW,
    Demand,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    additive_increase,
    edge_loads,
)
from ringload.patterns import performance
from ringload.reduction import (
    CrossingInstance,
    _uncross_all,
    lift_solution,
    reduce_to_crossing,
    rotated,
    standalone_crossing,
)
from ringload.scaled import SCALE, from_int


def test_demands_cross_basic():
    assert demands_cross((1, 3), (2, 4))
    assert not demands_cross((1, 2), (3, 4))


def test_shared_endpoint_is_parallel():
    # Edge-disjoint paths exist: 1->3 clockwise and 1->4 counterclockwise.
    assert not demands_cross((1, 3), (1, 4))
    assert not demands_cross((1, 4), (1, 3))


def test_demands_cross_is_symmetric():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(4, 12)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        k = rng.randint(1, n - 1)
        l = rng.randint(k + 1, n)
        assert demands_cross((i, j), (k, l)) == demands_cross((k, l), (i, j))


def test_uncross_pair_square():
    inst = RingInstance(4, (Demand(1, 2, from_int(2)), Demand(3, 4, from_int(2))))
    split = SplitRouting((from_int(1), from_int(1)))
    result = uncross_pair(inst, split, 0, 1)
    assert result.cw == (from_int(2), from_int(2))
    before = edge_loads(inst, split)
    after = edge_loads(inst, result)
    assert after == tuple(from_int(v) for v in (2, 0, 2, 0))
    assert all(a <= b for a, b in zip(after, before))


def test_uncross_pair_noop_when_unsplittable():
    inst = RingInstance(4, (Demand(1, 2, from_int(2)), Demand(3, 4, from_int(2))))
    split = SplitRouting((from_int(1), from_int(2)))
    assert uncross_pair(inst, split, 0, 1) is split


def test_uncross_pair_six_nodes():
    inst = RingInstance(6, (Demand(1, 2, from_int(4)), Demand(4, 5, from_int(2))))
    split = SplitRouting((from_int(3), from_int(1)))
    result = uncross_pair(inst, split, 0, 1)
    assert result.cw == (from_int(4), from_int(2))


def test_uncross_pair_rejects_crossing_demands():
    inst, split = builtin("fig1")
    with pytest.raises(ValueError, match="cross"):
        uncross_pair(inst, split, 0, 1)


def test_uncross_never_increases_loads():
    rng = random.Random(32)
    tried = 0
    while tried < 200:
        inst, split = random_ring(rng)
        candidates = [
            (a, b)
            for a in range(len(inst.demands))
            for b in range(a + 1, len(inst.demands))
            if not demands_cross(
                (inst.demands[a].i, inst.demands[a].j),
                (inst.demands[b].i, inst.demands[b].j),
            )
        ]
        if not candidates:
            continue
        a, b = rng.choice(candidates)
        result = uncross_pair(inst, split, a, b)
        before = edge_loads(inst, split)
        after = edge_loads(inst, result)
        assert all(x <= y for x, y in zip(after, before))
        tried += 1


def test_reduce_fig1_is_already_crossing():
    inst, split = builtin("fig1")
    cross, reduced_split = reduce_to_crossing(inst, split)
    assert cross.pairs == ((from_int(1), from_int(1)), (from_int(1), from_int(1)))
    assert lifted_unsplit(cross) == ()
    assert reduced_split.cw == (from_int(1), from_int(1))
    backmap = reference_crossing_form(inst, cross.uncrossed)[3]
    assert backmap == tuple((k, 0) for k in range(4))
    assert_loads_through_backmap(inst, cross, backmap)


def test_reduce_contracts_idle_nodes():
    # Nodes 3 and 6 are endpoints of nothing and disappear.
    inst = RingInstance(6, (Demand(1, 4, from_int(2)), Demand(2, 5, from_int(2))))
    split = SplitRouting((from_int(1), from_int(1)))
    cross, _ = reduce_to_crossing(inst, split)
    assert cross.m == 2
    assert cross.pairs == ((from_int(1), from_int(1)), (from_int(1), from_int(1)))
    # Edges {2,3} and {3,4} merged; {5,6} and {6,1} merged.
    backmap = reference_crossing_form(inst, cross.uncrossed)[3]
    assert [edge for edge, _ in backmap] == [0, 1, 1, 2, 3, 3]
    assert_loads_through_backmap(inst, cross, backmap)


def test_reduce_fig7_recovers_fig2_crossing_form():
    inst7, split7 = builtin("fig7")
    inst2, split2 = builtin("fig2")
    cross7, _ = reduce_to_crossing(inst7, split7)
    cross2, _ = reduce_to_crossing(inst2, split2)
    assert cross7.pairs == cross2.pairs
    assert_contraction(inst7, cross7)
    assert_contraction(inst2, cross2)
    unsplit = lifted_unsplit(cross7)
    assert len(unsplit) == 14  # one per deficient edge
    assert {idx for idx, _ in unsplit} == set(range(8, 22))


def test_reduce_moves_unsplittable_demands_to_fixed():
    inst = RingInstance(
        5, (Demand(1, 3, from_int(4)), Demand(2, 4, from_int(2)), Demand(1, 2, 0))
    )
    split = SplitRouting((from_int(4), from_int(1), 0))
    cross, _ = reduce_to_crossing(inst, split)
    assert lifted_unsplit(cross) == ((0, CW), (2, CW))
    assert cross.m == 1
    assert_contraction(inst, cross)
    assert cross.D == from_int(4)  # D of the original instance


def test_reduce_preserves_loads_through_backmap():
    rng = random.Random(33)
    for _ in range(200):
        inst, split = random_ring(rng)
        cross, _ = reduce_to_crossing(inst, split)
        assert cross.uncrossed is not None
        assert_loads_through_backmap(inst, cross, reference_crossing_form(inst, cross.uncrossed)[3])


def test_reduction_output_is_canonical():
    rng = random.Random(34)
    for _ in range(200):
        inst, split = random_ring(rng)
        cross, _ = reduce_to_crossing(inst, split)
        assert_contraction(inst, cross)
        assert all(u > 0 and v > 0 for u, v in cross.pairs)
        assert all(u + v <= cross.D for u, v in cross.pairs)
        if cross.m >= 2:
            ring, _ = cross.to_ring()
            for a, b in itertools.combinations(range(cross.m), 2):
                assert demands_cross(
                    (ring.demands[a].i, ring.demands[a].j),
                    (ring.demands[b].i, ring.demands[b].j),
                )


def test_lift_empty_crossing_form():
    inst = RingInstance(4, (Demand(1, 3, from_int(2)),))
    split = SplitRouting((from_int(2),))
    cross, _ = reduce_to_crossing(inst, split)
    assert cross.m == 0
    lifted = lift_solution(cross, UnsplitRouting(()))
    assert lifted.dirs == (CW,)
    assert additive_increase(inst, split, lifted) == 0


def test_lift_fig1():
    inst, split = builtin("fig1")
    cross, _ = reduce_to_crossing(inst, split)
    lifted = lift_solution(cross, UnsplitRouting((CW, CCW)))
    assert lifted.dirs == (CW, CCW)
    assert additive_increase(inst, split, lifted) == from_int(2)


def test_lift_keeps_fixed_directions():
    inst7, split7 = builtin("fig7")
    cross7, _ = reduce_to_crossing(inst7, split7)
    lifted = lift_solution(cross7, UnsplitRouting((CW,) * 8))
    # The 14 short demands keep riding their own edges.
    fixed = reference_crossing_form(inst7, cross7.uncrossed)[0]
    assert len(fixed) == 14
    for idx, direction in fixed:
        assert lifted.dirs[idx] == direction


def test_lift_standalone_crossing_is_the_identity():
    # A standalone instance is its own original: its routing is the answer.
    cross = standalone_crossing(((from_int(1), from_int(2)), (from_int(2), from_int(1))))
    z = UnsplitRouting((CW, CCW))
    assert lift_solution(cross, z) is z


@pytest.mark.parametrize("pairs, D, message", [
    (((0, 2),), 4, "#0: u and v must be positive"),
    (((1, 1), (1, -1)), 4, "#1: u and v must be positive"),
    (((1, 1), (2, 3)), 4, "#1: d exceeds D"),
    ((), -1, "D must be nonnegative"),
])
def test_crossing_instance_rejects_bad_data(pairs, D, message):
    scaled = tuple((from_int(u), from_int(v)) for u, v in pairs)
    with pytest.raises(ValueError, match=message):
        CrossingInstance(scaled, from_int(D))


def test_lift_length_mismatch():
    inst, split = builtin("fig1")
    cross, _ = reduce_to_crossing(inst, split)
    with pytest.raises(LengthMismatch):
        lift_solution(cross, UnsplitRouting((CW,)))


def test_lift_is_load_consistent_for_every_solution():
    # Crossing-form performance equals the increase over the uncrossed
    # split, and bounds the increase over the originally given split.
    rng = random.Random(35)
    checked = 0
    while checked < 60:
        inst, split = random_ring(rng, max_n=8, max_demands=4)
        cross, _ = reduce_to_crossing(inst, split)
        if cross.m > 4:
            continue
        assert cross.uncrossed is not None
        for flags in itertools.product((CW, CCW), repeat=cross.m):
            z = UnsplitRouting(flags)
            lifted = lift_solution(cross, z)
            perf = performance(pattern_from_solution(cross, z))
            assert additive_increase(inst, cross.uncrossed, lifted) == perf
            assert additive_increase(inst, split, lifted) <= perf
        checked += 1


@given(split_rings(), st.data())
def test_lift_is_load_consistent(ring, data):
    inst, split = ring
    cross, _ = reduce_to_crossing(inst, split)
    flags = data.draw(st.lists(st.sampled_from((CW, CCW)), min_size=cross.m, max_size=cross.m))
    z = UnsplitRouting(tuple(flags))
    lifted = lift_solution(cross, z)
    perf = performance(pattern_from_solution(cross, z))
    assert additive_increase(inst, cross.uncrossed, lifted) == perf
    assert additive_increase(inst, split, lifted) <= perf


def reference_uncross_pair(inst, split, a, b):
    """Uncrossing with arcs as edge sets: the first disjoint arc pair wins."""
    dem_a, dem_b = inst.demands[a], inst.demands[b]
    cw_a, cw_b = split.cw[a], split.cw[b]

    def arcs(dem):
        cw = frozenset(range(dem.i, dem.j))
        return cw, frozenset(range(1, inst.n + 1)) - cw

    for a_clockwise, path_a in zip((True, False), arcs(dem_a)):
        for b_clockwise, path_b in zip((True, False), arcs(dem_b)):
            if not (path_a & path_b):
                off_a = dem_a.d - cw_a if a_clockwise else cw_a
                off_b = dem_b.d - cw_b if b_clockwise else cw_b
                shift = min(off_a, off_b)
                new_cw = list(split.cw)
                new_cw[a] = cw_a + shift if a_clockwise else cw_a - shift
                new_cw[b] = cw_b + shift if b_clockwise else cw_b - shift
                return SplitRouting(tuple(new_cw))
    raise AssertionError(f"demands #{a} and #{b} admit no edge-disjoint paths")


def reference_uncross_all(inst, split):
    """Lexicographic pair scan, restarted from the first pair after every change."""
    while True:
        for a, b in itertools.combinations(range(len(inst.demands)), 2):
            dem_a, dem_b = inst.demands[a], inst.demands[b]
            if split.cw[a] in (0, dem_a.d) or split.cw[b] in (0, dem_b.d):
                continue
            if demands_cross((dem_a.i, dem_a.j), (dem_b.i, dem_b.j)):
                continue
            split = reference_uncross_pair(inst, split, a, b)
            break
        else:
            return split


def sweep_uncross_all(inst, split):
    """One lexicographic pair sweep over every row, crossing suffix included."""
    # One lexicographic pair sweep.  Uncrossing (a, b) leaves a or b
    # unsplit, an unsplit demand is never touched again and crossing is
    # fixed, so every pair already skipped stays skipped: rescanning
    # from the start after a change would find nothing new.
    demands = inst.demands
    cw = list(split.cw)
    for a, dem_a in enumerate(demands):
        for b in range(a + 1, len(demands)):
            if cw[a] in (0, dem_a.d):
                break
            dem_b = demands[b]
            if cw[b] in (0, dem_b.d) or demands_cross((dem_a.i, dem_a.j), (dem_b.i, dem_b.j)):
                continue
            cw[a], cw[b] = uncrossed_amounts(
                (dem_a.i, dem_a.j, dem_a.d), (dem_b.i, dem_b.j, dem_b.d), cw[a], cw[b]
            )
    return SplitRouting(tuple(cw))


def reference_crossing_form(inst, uncrossed):
    """fixed, demand_map, pairs and backmap of an uncrossed split, edge by edge.

    backmap maps each original edge (0-based) to its reduced edge (-1 when
    m = 0) and the base load of the fixed demands on it.
    """
    fixed, still_split = [], []
    for idx, (dem, cw) in enumerate(zip(inst.demands, uncrossed.cw)):
        if cw in (0, dem.d):
            fixed.append((idx, CW if cw == dem.d else CCW))
        else:
            still_split.append(idx)
    m = len(still_split)
    demand_map = sorted(still_split, key=lambda idx: inst.demands[idx].i)
    pairs = tuple(
        (uncrossed.cw[idx], inst.demands[idx].d - uncrossed.cw[idx]) for idx in demand_map
    )
    nodes = [node for idx in still_split for node in (inst.demands[idx].i, inst.demands[idx].j)]
    backmap = []
    for e in range(1, inst.n + 1):
        base = 0
        for idx, flag in fixed:
            dem = inst.demands[idx]
            if (dem.i <= e < dem.j) == (flag == CW):
                base += dem.d
        # Edge e belongs to the reduced edge of the last endpoint at or
        # before node e, and to the wrap edge 2m - 1 before the first one.
        reduced = sum(1 for node in nodes if node <= e) - 1
        backmap.append((reduced % (2 * m) if m else -1, base))
    return tuple(fixed), tuple(demand_map), pairs, tuple(backmap)


def assert_loads_through_backmap(inst, cross, backmap):
    """Contraction is legal, and each original edge carries its base load
    plus its reduced edge's split load."""
    assert_contraction(inst, cross)
    loads = edge_loads(inst, cross.uncrossed)
    reduced = crossing_split_loads(cross.pairs)
    for load, (edge, base) in zip(loads, backmap, strict=True):
        assert load == base + (reduced[edge] if edge >= 0 else 0)


def assert_matches_crossing_form(inst, cross, uncrossed):
    fixed, demand_map, pairs, backmap = reference_crossing_form(inst, uncrossed)
    assert (lifted_unsplit(cross), cross.demand_map, cross.pairs) == (fixed, demand_map, pairs)
    assert_loads_through_backmap(inst, cross, backmap)


def assert_reduction_matches_reference(inst, split):
    cross, reduced = reduce_to_crossing(inst, split)
    uncrossed = reference_uncross_all(inst, split)
    assert cross.uncrossed == uncrossed
    assert _uncross_all(inst, split) == sweep_uncross_all(inst, split) == uncrossed
    assert_matches_crossing_form(inst, cross, uncrossed)
    assert reduced.cw == tuple(u for u, _ in cross.pairs)
    for a, b in itertools.permutations(range(len(inst.demands)), 2):
        dem_a, dem_b = inst.demands[a], inst.demands[b]
        if split.cw[a] in (0, dem_a.d) or split.cw[b] in (0, dem_b.d):
            continue
        if not demands_cross((dem_a.i, dem_a.j), (dem_b.i, dem_b.j)):
            assert uncross_pair(inst, split, a, b) == reference_uncross_pair(inst, split, a, b)


def test_reduction_matches_restart_scan_reference_on_random_rings():
    rng = random.Random(36)
    for trial in range(300):
        inst, split = random_ring(rng, max_n=5 + trial % 8, max_demands=12)
        assert_reduction_matches_reference(inst, split)


@given(split_rings())
def test_reduction_matches_restart_scan_reference(ring):
    assert_reduction_matches_reference(*ring)


def assert_reduction_matches_sweep(inst, split):
    uncrossed = sweep_uncross_all(inst, split)
    assert _uncross_all(inst, split) == uncrossed
    cross, _ = reduce_to_crossing(inst, split)
    assert cross.uncrossed == uncrossed
    assert_matches_crossing_form(inst, cross, uncrossed)


def with_short_chords(inst, split, rng, count, append):
    """Add count split chords (a, a + 1), d = 2, cw = 1, appended or at random indices.

    A short chord crosses no demand, so it blocks the crossing suffix of a
    crossing ring until the sweep unsplits it.
    """
    i, j, d, cw = list(inst.i), list(inst.j), list(inst.d), list(split.cw)
    for _ in range(count):
        a = rng.randint(1, inst.n - 1)
        pos = len(i) if append else rng.randint(0, len(i))
        for column, value in ((i, a), (j, a + 1), (d, from_int(2)), (cw, from_int(1))):
            column.insert(pos, value)
    return RingInstance.from_columns(inst.n, i, j, d), SplitRouting(tuple(cw))


def test_uncross_all_matches_sweep_on_perturbed_crossing_rings():
    rng = random.Random(37)
    suffix_ended_early = 0
    for trial in range(60):
        m = rng.randint(2, 300)
        inst, split = random_crossing(m, rng.randint(2, 20), seed=trial).to_ring()
        inst, split = with_extra_demands(inst, split, rng, trial % 4)
        suffix_ended_early += crossing_suffix(inst, list(split.cw)) > 0
        assert_reduction_matches_sweep(inst, split)
    assert suffix_ended_early >= 10


def test_uncross_all_matches_sweep_on_large_random_rings():
    # k demands on k/2 nodes, strictly split in half units, as the benchmark's
    # random rings.
    rng = random.Random(38)
    for k in (20, 100, 300):
        n = k // 2
        demands, cw = [], []
        for _ in range(k):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            d = rng.randint(1, 20)
            demands.append(Demand(i, j, d * SCALE))
            cw.append(rng.randint(1, 2 * d - 1) * SCALE // 2)
        assert_reduction_matches_sweep(RingInstance(n, tuple(demands)), SplitRouting(tuple(cw)))


def test_uncross_all_matches_sweep_on_random_half_integer_rings():
    # Up to 300 demands on rings of 3 to 600 nodes: zero, unsplit and split
    # demands in half units, shared endpoints and crossing suffixes of any
    # length.
    rng = random.Random(39)
    for trial in range(40):
        inst, split = random_ring(rng, max_n=(8, 40, 200, 600)[trial % 4], max_demands=300)
        assert _uncross_all(inst, split) == sweep_uncross_all(inst, split)


def test_uncross_all_matches_sweep_as_the_suffix_grows():
    # The sweep resumes the suffix walk after unsplitting its blocking row
    # (the split row just below it) or one of its members.  Random rings,
    # crossing rings with extra demands and crossing rings with 1-4 short
    # chords anywhere; each trigger and the growth itself must be seen.
    rng = random.Random(45)
    grown = blocker_unsplit = member_unsplit = 0
    for trial in range(3000):
        if trial % 3 == 0:
            inst, split = random_ring(rng, max_n=(6, 12, 40)[trial % 9 // 3], max_demands=30)
        else:
            inst, split = random_crossing(rng.randint(2, 40), rng.randint(2, 20), seed=trial).to_ring()
            if trial % 3 == 1:
                inst, split = with_extra_demands(inst, split, rng, rng.randint(1, 4))
            else:
                inst, split = with_short_chords(inst, split, rng, rng.randint(1, 4), append=False)
        uncrossed = sweep_uncross_all(inst, split)
        assert _uncross_all(inst, split) == uncrossed
        start = crossing_suffix(inst, list(split.cw))
        grown += crossing_suffix(inst, list(uncrossed.cw)) < start
        unsplit = [x not in (0, d) and y in (0, d)
                   for x, y, d in zip(split.cw, uncrossed.cw, inst.d)]
        blocker_unsplit += start > 0 and unsplit[start - 1]
        member_unsplit += any(unsplit[start:])
    # Seen at this seed: 2332, 1894 and 779 of the 3000 rings; every ring
    # with short chords grew its suffix.
    assert grown >= 1500 and blocker_unsplit >= 1200 and member_unsplit >= 500


def pairwise_crossing_suffix(demands, cw):
    """Smallest s such that every two demands split from index s on cross."""
    for s in range(len(demands) + 1):
        split = [dem for dem, x in zip(demands[s:], cw[s:]) if x not in (0, dem.d)]
        if all(demands_cross((a.i, a.j), (b.i, b.j))
               for a, b in itertools.combinations(split, 2)):
            return s


def test_crossing_suffix_matches_pairwise_definition():
    # A pairwise-crossing family in random order, with a few random chords
    # and unsplit demands mixed in.
    rng = random.Random(40)
    long_suffixes = 0
    for trial in range(3000):
        n = rng.randint(4, 16)
        t = rng.randint(1, n // 2)
        ends = sorted(rng.sample(range(1, n + 1), 2 * t))
        chords = [(ends[p], ends[p + t]) for p in range(t)]
        rng.shuffle(chords)
        for _ in range(rng.randint(0, 3)):
            chord = tuple(sorted(rng.sample(range(1, n + 1), 2)))
            chords.insert(rng.randint(0, len(chords)), chord)
        demands = tuple(Demand(i, j, from_int(2)) for i, j in chords)
        cw = [from_int(rng.choice((1, 1, 1, 0, 2))) for _ in chords]
        expected = pairwise_crossing_suffix(demands, cw)
        assert crossing_suffix(RingInstance(n, demands), cw) == expected
        long_suffixes += len(chords) - expected >= 4
    assert long_suffixes >= 300


def count_pair_visits(monkeypatch, inst):
    """Count the reads of inst.j that _uncross_all makes outside its suffix walk.

    The sweep reads j once for each split outer row it scans and once for
    each split pair it visits.  Reads by _crossing_suffix and by the rest of
    the reduction are not counted.  inst's j column becomes a counting tuple,
    and calls must go through the module, reduction._uncross_all.
    """
    reads, counting = [0], [False]

    class Column(tuple):
        def __getitem__(self, key):
            reads[0] += counting[0]
            return super().__getitem__(key)

    def count_within(name, on):
        function = getattr(reduction, name)

        def wrapper(*args):
            before, counting[0] = counting[0], on
            try:
                return function(*args)
            finally:
                counting[0] = before

        monkeypatch.setattr(reduction, name, wrapper)

    count_within("_uncross_all", True)
    count_within("_crossing_suffix", False)
    object.__setattr__(inst, "j", Column(inst.j))
    return reads


@pytest.mark.parametrize("m", [1000, 20000])
def test_reducing_a_crossing_ring_tests_no_pair(monkeypatch, m):
    direct = random_crossing(m, 20, seed=m)
    inst, split = direct.to_ring()
    visits = count_pair_visits(monkeypatch, inst)
    cross, _ = reduce_to_crossing(inst, split)
    assert visits[0] == 0
    assert cross.pairs == direct.pairs
    assert cross.demand_map == tuple(range(m))
    # Every node is an endpoint and nothing is fixed, so the backmap is the
    # identity with base 0 (the oracle's O(n m) walk is too slow here).
    assert edge_loads(inst, cross.uncrossed) == crossing_split_loads(cross.pairs)
    assert_contraction(inst, cross)


def test_a_parallel_demand_ends_the_crossing_suffix(monkeypatch):
    # A short chord inside the first arc crosses no demand, so the suffix
    # starts after it.  Row 0 shares node 1 with it, and the scan that
    # unsplits the chord unblocks the suffix, which then reaches row 1.
    m = 1000
    inst, split = random_crossing(m, 20, seed=1).to_ring()
    demands, cw = list(inst.demands), list(split.cw)
    demands.insert(m // 2, Demand(1, 2, from_int(2)))
    cw.insert(m // 2, from_int(1))
    inst, split = RingInstance(inst.n, tuple(demands)), SplitRouting(tuple(cw))
    assert crossing_suffix(inst, cw) == m // 2 + 1
    visits = count_pair_visits(monkeypatch, inst)
    uncrossed = reduction._uncross_all(inst, split)
    k = len(demands)
    assert 0 < visits[0] <= k
    monkeypatch.undo()
    assert uncrossed == sweep_uncross_all(inst, split)
    assert crossing_suffix(inst, list(uncrossed.cw)) <= 1
    assert_contraction(inst, reduce_to_crossing(inst, split)[0])


@pytest.mark.parametrize("count", [1, 10, 100])
@pytest.mark.parametrize("append", [True, False])
def test_short_chords_keep_the_sweep_near_linear(monkeypatch, count, append):
    # A sweep whose suffix stays blocked by the chords visits about k^2 / 2
    # pairs here; unblocking it as the chords are unsplit leaves row 0's scan.
    base, base_split = random_crossing(1000, 1000, 1).to_ring()
    inst, split = with_short_chords(base, base_split, random.Random(count), count, append)
    expected = sweep_uncross_all(inst, split)
    visits = count_pair_visits(monkeypatch, inst)
    assert reduction._uncross_all(inst, split) == expected
    assert visits[0] <= 2 * len(inst.d)
    monkeypatch.undo()
    assert_contraction(inst, reduce_to_crossing(inst, split)[0])


def test_the_walk_resumes_after_a_member_is_unsplit_to_zero(monkeypatch):
    # m crossing members, member t from node i_t to j_t, and two chords
    # nested in member s's clockwise arc: R = (x, y) at row 0 and the
    # blocker B = (x', y') at row m // 2, on four added nodes
    # i_s < x < x' < i_{s+1} and j_{s-1} < y < y' < j_s.  Each crosses every
    # member but s, and R crosses B, so only member s blocks B.  R's scan
    # moves all of member s's clockwise flow onto R, which stays split;
    # the walk then resumes, takes in B and every row below it, and the
    # sweep ends.  A sweep that did not resume would scan each row up to B
    # against all later ones, about 3 k^2 / 8 pairs.
    m, s = 1000, 750
    pairs = random_crossing(m, 20, seed=1).pairs
    ends = [(t + 1 + 2 * (t > s), m + 3 + t + 2 * (t >= s)) for t in range(m)]
    x_s = pairs[s][0]
    rows = [((s + 2, m + 3 + s), x_s + from_int(2), from_int(1))]
    rows += [(ends[t], u + v, u) for t, (u, v) in enumerate(pairs)]
    rows.insert(m // 2, ((s + 3, m + 4 + s), from_int(2), from_int(1)))
    inst = RingInstance.from_columns(
        2 * m + 4, [i for (i, _), _, _ in rows], [j for (_, j), _, _ in rows], [d for _, d, _ in rows]
    )
    split = SplitRouting(tuple(cw for _, _, cw in rows))
    assert crossing_suffix(inst, list(split.cw)) == m // 2 + 1
    expected = sweep_uncross_all(inst, split)
    assert (expected.cw[0], expected.cw[s + 2]) == (x_s + from_int(1), 0)
    visits = count_pair_visits(monkeypatch, inst)
    assert reduction._uncross_all(inst, split) == expected
    assert visits[0] <= 2 * len(inst.d)
    monkeypatch.undo()
    assert_contraction(inst, reduce_to_crossing(inst, split)[0])


@pytest.mark.parametrize("demands", [
    (Demand(1, 2, from_int(2)), Demand(3, 4, from_int(2))),
    (Demand(1, 3, from_int(2)), Demand(1, 4, from_int(2))),
])
def test_a_split_parallel_pair_fails_the_crossing_check(monkeypatch, demands):
    # With uncrossing switched off, the pair stays split and cannot be relabeled.
    inst = RingInstance(5, demands)
    split = SplitRouting((from_int(1), from_int(1)))
    monkeypatch.setattr(reduction, "_uncross_all", lambda inst, split: split)
    with pytest.raises(AssertionError, match="cross pairwise"):
        reduce_to_crossing(inst, split)


pair_sequences = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=8
).map(tuple)


def swapped(pairs):
    return tuple((v, u) for u, v in pairs)


@given(pair_sequences, st.data())
def test_rotation_by_r_then_m_minus_r_swaps_u_and_v(pairs, data):
    m = len(pairs)
    r = data.draw(st.integers(0, m - 1))
    assert rotated(pairs, 0) == pairs
    if r:
        assert rotated(rotated(pairs, r), m - r) == swapped(pairs)


@given(pair_sequences, st.data())
def test_rotations_compose(pairs, data):
    m = len(pairs)
    a = data.draw(st.integers(0, m - 1))
    b = data.draw(st.integers(0, m - 1))
    # A full turn of m nodes is the half-turn of the 2m-node ring: u/v swap.
    expected = rotated(pairs, a + b) if a + b < m else swapped(rotated(pairs, a + b - m))
    assert rotated(rotated(pairs, a), b) == expected


@given(pair_sequences, st.data())
def test_rotating_instance_and_routing_preserves_performance(pairs, data):
    m = len(pairs)
    dirs = tuple(data.draw(st.lists(st.sampled_from((CW, CCW)), min_size=m, max_size=m)))
    r = data.draw(st.integers(0, m - 1))
    # Directions move with their demands; wrapping past the seam flips the
    # direction just as it swaps u and v.
    flip = {CW: CCW, CCW: CW}
    moved = rotated(tuple((flag, flip[flag]) for flag in dirs), r)
    before = pattern_from_solution(standalone_crossing(pairs), UnsplitRouting(dirs))
    after = pattern_from_solution(
        standalone_crossing(rotated(pairs, r)),
        UnsplitRouting(tuple(flag for flag, _ in moved)),
    )
    assert performance(after) == performance(before)

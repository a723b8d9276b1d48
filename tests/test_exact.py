"""Exact solvers: enumeration, DP feasibility, DP optimum, cross-checks."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_ring, split_rings
from ringload import exact
from ringload.approx import pattern_from_solution, solve_19_14, ssw_three_halves
from ringload.errors import TooManyDemands
from ringload.exact import (
    brute_force_min_increase,
    brute_force_optimum_L,
    dp_feasible,
    dp_feasible_any_y,
    dp_min_increase,
)
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
from ringload.reduction import reduce_to_crossing, standalone_crossing
from ringload.scaled import from_int
from ringload.search import CanonicalForm, StructuredFamily

S = from_int(1)


def crossing_increase(cross, z):
    return performance(pattern_from_solution(cross, z))


def enumerate_min_increase(cross):
    """Reference oracle: direct minimum over all direction vectors."""
    best = None
    for flags in itertools.product((CW, CCW), repeat=cross.m):
        value = crossing_increase(cross, UnsplitRouting(flags))
        if best is None or value < best:
            best = value
    return best


def test_brute_force_fig1_min_increase():
    inst, split = builtin("fig1")
    routing, value = brute_force_min_increase(inst, split)
    assert value == 2 * S
    assert additive_increase(inst, split, routing) == 2 * S


def test_brute_force_fig6_is_11():
    inst, split = builtin("fig6")
    _, value = brute_force_min_increase(inst, split)
    assert value == 11 * S


def test_brute_force_fig5_at_least_101_and_matches_dp():
    inst, split = builtin("fig5")
    _, value = brute_force_min_increase(inst, split)
    assert value >= 101 * S
    cross, _ = reduce_to_crossing(inst, split)
    assert dp_min_increase(cross)[1] == value


def test_brute_force_ignores_zero_demands():
    inst = RingInstance(4, (Demand(1, 3, 0), Demand(2, 4, 2 * S)))
    split = SplitRouting((0, S))
    routing, value = brute_force_min_increase(inst, split)
    assert value == S
    assert len(routing.dirs) == 2


def test_brute_force_tie_break_is_lexicographic_clockwise_first():
    inst, split = builtin("fig1")
    routing, _ = brute_force_min_increase(inst, split)
    assert routing.dirs == (CW, CW)  # all four routings tie at increase 2


def test_brute_force_cap(monkeypatch):
    demands = tuple(Demand(1, 2, S) for _ in range(5))
    inst = RingInstance(4, demands)
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "4")
    with pytest.raises(TooManyDemands):
        brute_force_optimum_L(inst)
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "5")
    brute_force_optimum_L(inst)


def test_optimum_L_fig1():
    inst, _ = builtin("fig1")
    routing, L = brute_force_optimum_L(inst)
    assert L == 4 * S
    assert max(edge_loads(inst, routing)) == 4 * S


def test_optimum_L_fig8_disproves_the_plus_D_bound():
    inst, split = builtin("fig8")
    _, L = brute_force_optimum_L(inst)
    assert L == 50 * S  # optimum split is 39; the gap is D + 1


def test_dp_feasible_fig1():
    inst, split = builtin("fig1")
    cross, _ = reduce_to_crossing(inst, split)
    z = dp_feasible(cross, 2 * S, 0)
    assert z is not None
    assert crossing_increase(cross, z) <= 2 * S
    for y in (-S, 0, S):
        assert dp_feasible(cross, S, y) is None


def test_dp_feasible_empty():
    cross = standalone_crossing((), 0)
    assert dp_feasible(cross, 0, 0) == UnsplitRouting(())
    assert dp_feasible(cross, 0, 0).dirs == ()


def test_dp_feasible_reconstruction_is_valid():
    rng = random.Random(61)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 10), rng.randint(2, 20), seed=trial)
        t = from_int(rng.randint(0, 3 * (cross.D // S) // 2))
        for y_int in range(-(t // S), t // S + 1):
            z = dp_feasible(cross, t, y_int * S)
            if z is None:
                continue
            pattern = pattern_from_solution(cross, z, 0)
            assert pattern.points[-1] == y_int * S
            assert performance(pattern) <= t


def test_dp_min_increase_fig2_and_fig6():
    for name in ("fig2", "fig6"):
        inst, split = builtin(name)
        cross, _ = reduce_to_crossing(inst, split)
        z, value = dp_min_increase(cross)
        assert value == 11 * S
        assert crossing_increase(cross, z) == 11 * S


def test_dp_matches_exhaustive_oracle():
    rng = random.Random(62)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 25), seed=trial + 10)
        z, value = dp_min_increase(cross)
        assert value == enumerate_min_increase(cross)
        assert crossing_increase(cross, z) == value


def test_dp_value_is_integral_on_integral_instances():
    rng = random.Random(63)
    for trial in range(100):
        cross = random_crossing(rng.randint(1, 10), rng.randint(2, 30), seed=trial)
        _, value = dp_min_increase(cross)
        assert value % S == 0


def test_dp_monotone_feasibility():
    rng = random.Random(64)
    for trial in range(50):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 12), seed=trial + 99)
        _, t_star = dp_min_increase(cross)
        feasible_at = lambda t: any(
            dp_feasible(cross, t, y * S) is not None
            for y in range(-(t // S), t // S + 1)
        )
        assert feasible_at(t_star)
        assert feasible_at(t_star + S)
        if t_star >= S:
            assert not feasible_at(t_star - S)


def test_sandwich_dp_below_approximations():
    rng = random.Random(65)
    for trial in range(150):
        cross = random_crossing(rng.randint(1, 20), rng.randint(2, 40), seed=trial)
        _, optimum = dp_min_increase(cross)
        assert optimum <= ssw_three_halves(cross).perf
        report = solve_19_14(cross)
        assert optimum <= report.perf
        assert 14 * report.perf <= 19 * cross.D


def test_dp_accepts_fractional_splits():
    cross = standalone_crossing(((14, 14),), from_int(1))  # half-integer splits
    z, value = dp_min_increase(cross)
    assert value == enumerate_min_increase(cross) == S // 2
    assert crossing_increase(cross, z) == value
    cross = standalone_crossing(((14, 14), (42, 14)), from_int(2))
    z, value = dp_min_increase(cross)
    assert value == brute_force_min_increase(*cross.to_ring())[1]
    assert crossing_increase(cross, z) == value


@st.composite
def half_integer_crossings(draw):
    """Crossing instances with k <= 12 and splits on the half-integer grid."""
    D = draw(st.integers(1, 12))
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        d = draw(st.integers(1, D))
        u = draw(st.integers(1, 2 * d - 1))  # halves strictly inside (0, d)
        pairs.append((u * 14, 2 * d * 14 - u * 14))
    return standalone_crossing(tuple(pairs), from_int(D))


@given(half_integer_crossings())
def test_dp_matches_brute_force_on_half_integer_crossings(cross):
    z, value = dp_min_increase(cross)
    assert crossing_increase(cross, z) == value
    if cross.m >= 2:  # a ring needs at least 3 nodes
        assert value == brute_force_min_increase(*cross.to_ring())[1]
    else:
        assert value == enumerate_min_increase(cross)


def test_feasibility_screen_matches_full_dp_on_small_family():
    # Every odd canonical member of the m=4, D=6 family, every threshold up
    # to the 3/2 * D guarantee; the minimum is also checked by enumeration.
    D = 6
    family = StructuredFamily(4, D)
    checked = 0
    for index in range(family.size):
        pairs = family.decode(index)
        if sum(u for u, _ in pairs) % 2 == 0 or CanonicalForm.of(pairs, D).pairs != pairs:
            continue
        cross = standalone_crossing(
            tuple((from_int(u), from_int(v)) for u, v in pairs), from_int(D)
        )
        _, value = dp_min_increase(cross)
        assert brute_force_min_increase(*cross.to_ring())[1] == value
        for t in range(1, 3 * D // 2 + 1):
            screened_out = dp_feasible_any_y(pairs, t - 1) is not None
            assert screened_out == (value < from_int(t)), (pairs, t)
        checked += 1
    assert checked == 124


def per_edge_loads(inst, amounts):
    """Plain per-edge sums: amounts[p] = (clockwise, counterclockwise) of demand p."""
    loads = [0] * inst.n
    for dem, (cw, ccw) in zip(inst.demands, amounts):
        for e in range(inst.n):
            loads[e] += cw if dem.i - 1 <= e < dem.j - 1 else ccw
    return loads


def product_oracle(inst, offset):
    """First minimizer of max(loads - offset) in itertools.product order."""
    active = [p for p, dem in enumerate(inst.demands) if dem.d > 0]
    best = None
    for flags in itertools.product((CW, CCW), repeat=len(active)):
        dirs = [CW] * len(inst.demands)
        for p, flag in zip(active, flags):
            dirs[p] = flag
        amounts = [(dem.d, 0) if flag == CW else (0, dem.d)
                   for dem, flag in zip(inst.demands, dirs)]
        value = max(a - b for a, b in zip(per_edge_loads(inst, amounts), offset))
        if best is None or value < best[1]:
            best = (UnsplitRouting(tuple(dirs)), value)
    return best


def assert_brute_force_matches_oracle(inst, split):
    split_loads = per_edge_loads(inst, [(cw, dem.d - cw) for dem, cw in zip(inst.demands, split.cw)])
    assert brute_force_min_increase(inst, split) == product_oracle(inst, split_loads)
    assert brute_force_optimum_L(inst) == product_oracle(inst, [0] * inst.n)


@pytest.mark.parametrize("chunk_bits", [16, 3, 0])
def test_brute_force_matches_product_oracle_on_random_rings(monkeypatch, chunk_bits):
    # Small chunks spread the routings over many high-table rows.
    monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(66)
    for trial in range(120):
        inst, split = random_ring(rng, max_n=4 + trial % 8, max_demands=10)
        if trial % 10 == 0:  # far beyond int64: Python-int arithmetic
            inst = RingInstance(inst.n, tuple(
                Demand(dem.i, dem.j, dem.d * 10**20) for dem in inst.demands
            ))
            split = SplitRouting(tuple(cw * 10**20 for cw in split.cw))
        assert_brute_force_matches_oracle(inst, split)


@given(split_rings())
def test_brute_force_matches_product_oracle(ring):
    assert_brute_force_matches_oracle(*ring)


def test_optimum_L_is_exact_near_the_int64_limit():
    big = 10**17
    inst = RingInstance(4, (Demand(1, 3, from_int(big)), Demand(2, 4, from_int(2))))
    routing, L = brute_force_optimum_L(inst)
    assert L == from_int(big + 2)
    assert max(edge_loads(inst, routing)) == L
    assert (routing, L) == product_oracle(inst, [0] * inst.n)


def test_brute_force_on_a_long_ring_keeps_one_column_per_segment():
    # n = 200000: only the 2k+1 segments between endpoints are enumerated.
    # The same demands on the ring of their endpoints alone give the same
    # answer, and the value is the routing's true per-edge maximum.
    rng = random.Random(67)
    n, k = 200_000, 20
    ends = []
    for _ in range(k):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        ends.append((i, j))
    demands = tuple(Demand(i, j, from_int(rng.randint(1, 9))) for i, j in ends)
    inst = RingInstance(n, demands)
    split = SplitRouting(tuple(rng.randint(0, 2 * dem.d // S) * (S // 2) for dem in demands))
    routing, value = brute_force_min_increase(inst, split)
    assert additive_increase(inst, split, routing) == value
    routing_L, L = brute_force_optimum_L(inst)
    assert max(edge_loads(inst, routing_L)) == L

    nodes = sorted({node for pair in ends for node in pair} | {1})
    rank = {node: r + 1 for r, node in enumerate(nodes)}
    small = RingInstance(
        max(len(nodes), 3),
        tuple(Demand(rank[dem.i], rank[dem.j], dem.d) for dem in demands),
    )
    assert brute_force_min_increase(small, split) == (routing, value)
    assert brute_force_optimum_L(small) == (routing_L, L)

"""Exact solvers: enumeration, DP feasibility, DP optimum, cross-checks."""

import itertools
import random

import pytest

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


def test_dp_rejects_fractional_splits():
    cross = standalone_crossing(((14, 14),), from_int(1))  # half-integer splits
    with pytest.raises(ValueError):
        dp_min_increase(cross)


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

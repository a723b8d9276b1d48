"""Approximation routes: hand examples, certified bounds, dispatch."""

import random
from fractions import Fraction

import pytest

from conftest import pattern_from_solution, random_small_big
from ringload.approx import (
    medium_demand_solve,
    small_big_solve,
    solution_from_pattern,
    solve_19_14,
    ssw_three_halves,
)
from ringload.errors import LengthMismatch, MediumDemandPresent, NotMedium
from ringload.instances import builtin, random_crossing
from ringload.model import CCW, CW, UnsplitRouting, additive_increase
from ringload.patterns import Pattern, performance
from ringload.reduction import lift_solution, reduce_to_crossing, standalone_crossing
from ringload.scaled import from_fraction, from_int

S = from_int(1)


def cross_of(pairs, D):
    return standalone_crossing(tuple((u * S, v * S) for u, v in pairs), D * S)


def test_solution_from_pattern_reads_steps():
    cross = cross_of([(3, 7), (6, 4)], 10)
    pattern = Pattern(cross, (5 * S, 2 * S, 6 * S))
    assert solution_from_pattern(pattern).dirs == (CCW, CW)


def test_pattern_from_solution_prefix_sums():
    cross = cross_of([(3, 7), (6, 4)], 10)
    z = UnsplitRouting((CCW, CW))
    assert pattern_from_solution(cross, z, 0).points == (0, -3 * S, S)


def test_pattern_solution_round_trip():
    rng = random.Random(51)
    for trial in range(200):
        cross = random_crossing(rng.randint(1, 10), rng.randint(2, 15), seed=trial)
        dirs = tuple(rng.choice((CW, CCW)) for _ in range(cross.m))
        z = UnsplitRouting(dirs)
        x = rng.randrange(-3 * S, 3 * S)
        pattern = pattern_from_solution(cross, z, x)
        assert solution_from_pattern(pattern).dirs == dirs
        assert performance(pattern) == performance(pattern_from_solution(cross, z, 0))


def test_pattern_from_solution_length_check():
    cross = cross_of([(1, 1)], 2)
    with pytest.raises(LengthMismatch):
        pattern_from_solution(cross, UnsplitRouting((CW, CW)), 0)


def test_ssw_example():
    report = ssw_three_halves(cross_of([(3, 7), (6, 4)], 10))
    assert report.pattern.points == (5 * S, 2 * S, 6 * S)
    assert report.perf == 7 * S
    assert report.bound == 15 * S
    assert report.branch == "ssw"
    assert report.z.dirs == (CCW, CW)


def test_ssw_empty_instance():
    report = ssw_three_halves(cross_of([], 0))
    assert report.perf == 0 and report.z.dirs == ()


def test_ssw_fig2_within_bound_and_above_dp_floor():
    from ringload.exact import dp_min_increase

    inst, split = builtin("fig2")
    cross, _ = reduce_to_crossing(inst, split)
    report = ssw_three_halves(cross)
    assert report.perf <= 15 * S
    assert report.perf >= dp_min_increase(cross)[1] == 11 * S


def test_medium_hand_example():
    # Demand 1 of value 5 with delta = 1/2: the backward walk ends at
    # 4.5, starts at 9.5 > 5, so the final step goes counterclockwise.
    cross = cross_of([(5, 5), (2, 3)], 10)
    report = medium_demand_solve(cross, 1, 5 * S)
    assert report.perf == 7 * S
    assert report.bound == from_fraction(Fraction(25, 2))
    assert report.z.dirs == (CCW, CCW)
    shift = from_fraction(Fraction(19, 2)) - report.pattern.points[0]
    assert tuple(p + shift for p in report.pattern.points) == (
        from_fraction(Fraction(19, 2)),
        from_fraction(Fraction(9, 2)),
        from_fraction(Fraction(5, 2)),
    )


def test_medium_fig2_bound():
    inst, split = builtin("fig2")
    cross, _ = reduce_to_crossing(inst, split)
    medium_index = next(k for k in range(cross.m) if cross.demand_value(k) == 4 * S)
    report = medium_demand_solve(cross, medium_index, from_fraction(Fraction(20, 7)))
    assert report.bound == from_fraction(Fraction(95, 7))  # (3/2 - 1/7) * 10
    assert report.perf <= report.bound
    assert report.perf >= 11 * S  # dp floor


def test_medium_with_zero_margin_degenerates_to_ssw_bound():
    cross = cross_of([(9, 1), (3, 7)], 10)
    report = medium_demand_solve(cross, 0, 0)
    assert report.bound == 15 * S
    assert report.perf <= 15 * S


def test_medium_rejects_non_medium_demand():
    cross = cross_of([(1, 1), (5, 5)], 10)
    with pytest.raises(NotMedium):
        medium_demand_solve(cross, 0, 3 * S)
    with pytest.raises(NotMedium):
        medium_demand_solve(cross, 5, 0)
    with pytest.raises(NotMedium):
        medium_demand_solve(cross, 1, -S)


def test_small_big_single_big_pair():
    # Forward walk from 25/7 is forced up to 60/7, which clears 20/7.
    cross = cross_of([(5, 5)], 10)
    report = small_big_solve(cross)
    assert report.branch == "smallbig-a"
    assert report.pattern.points == (from_fraction(Fraction(25, 7)), from_fraction(Fraction(60, 7)))


def test_small_big_four_pairs():
    report = small_big_solve(cross_of([(7, 7), (2, 2), (5, 9), (1, 3)], 14))
    assert report.perf <= 19 * S == report.bound


def test_small_big_rejects_medium_demand():
    with pytest.raises(MediumDemandPresent):
        small_big_solve(cross_of([(2, 3)], 10))


def test_small_big_covers_every_branch():
    rng = random.Random(52)
    seen = set()
    for _ in range(20000):
        cross = random_small_big(rng, rng.randint(1, 12), rng.choice([7, 14, 21, 28, 70]))
        report = small_big_solve(cross)
        assert report.perf <= report.bound == 19 * cross.D // 14
        seen.add(report.branch)
        if len(seen) == 6:
            break
    assert seen == {
        "smallbig-a",
        "smallbig-b",
        "smallbig-c",
        "smallbig-crossAB",
        "smallbig-ca",
        "smallbig-cb",
    }


def test_solve_dispatches_fig2_to_medium():
    inst, split = builtin("fig2")
    cross, _ = reduce_to_crossing(inst, split)
    report = solve_19_14(cross)
    assert report.branch == "medium"
    assert report.bound == 13 * S  # (3/2 - 1/5) * 10
    assert 11 * S <= report.perf <= 13 * S


def test_solve_dispatches_fig6_to_medium():
    inst, split = builtin("fig6")
    cross, _ = reduce_to_crossing(inst, split)
    report = solve_19_14(cross)
    assert report.branch == "medium"
    assert 11 * S <= report.perf <= 13 * S


def test_solve_all_small_instance():
    report = solve_19_14(cross_of([(1, 1), (1, 1)], 2))
    assert report.branch.startswith("smallbig")
    assert report.bound == from_fraction(Fraction(19, 7))
    assert report.perf == 2 * S  # the exact optimum for this instance


def test_solve_empty_instance():
    report = solve_19_14(cross_of([], 0))
    assert report.perf == 0


def test_guarantee_suite_small():
    # A smaller copy of the acceptance guarantee suite for quick runs.
    rng = random.Random(53)
    for trial in range(200):
        cross = random_crossing(rng.randint(1, 30), rng.randint(2, 60), seed=trial)
        assert solve_19_14(cross).perf * 14 <= 19 * cross.D
        assert ssw_three_halves(cross).perf * 2 <= 3 * cross.D
        margins = [min(cross.demand_value(k), cross.D - cross.demand_value(k))
                   for k in range(cross.m)]
        if margins:
            i = margins.index(max(margins))
            report = medium_demand_solve(cross, i, margins[i])
            assert 2 * report.perf <= 3 * cross.D - margins[i]


def test_lifted_guarantee_end_to_end():
    from conftest import random_ring

    rng = random.Random(54)
    for _ in range(200):
        inst, split = random_ring(rng, max_n=12, max_demands=8, max_d=10)
        cross, _ = reduce_to_crossing(inst, split)
        report = solve_19_14(cross)
        lifted = lift_solution(cross, report.z)
        increase = additive_increase(inst, split, lifted)
        assert 14 * increase <= 19 * inst.max_demand
        assert cross.uncrossed is not None
        assert additive_increase(inst, cross.uncrossed, lifted) == report.perf

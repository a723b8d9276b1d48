"""Pattern engine: performance formula, greedy walks, closeness, crossover."""

import random

import pytest

from conftest import random_small_big
from ringload.errors import ValidationError
from ringload.instances import random_crossing
from ringload.patterns import (
    Pattern,
    backward_greedy,
    crossover,
    find_close,
    forward_greedy,
    margin_interval,
    performance,
    walk_points,
)
from ringload.reduction import standalone_crossing
from ringload.scaled import from_int

S = from_int(1)


def cross_of(pairs, D):
    return standalone_crossing(tuple((u * S, v * S) for u, v in pairs), D * S)


def test_pattern_validates_steps():
    cross = cross_of([(3, 7), (6, 4)], 10)
    Pattern(cross, (5 * S, 2 * S, 6 * S))
    with pytest.raises(ValueError):
        Pattern(cross, (5 * S, 3 * S, 6 * S))
    with pytest.raises(ValueError):
        Pattern(cross, (5 * S, 2 * S))


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_pattern_names_its_first_bad_step(bad):
    cross = cross_of([(3, 7), (6, 4), (1, 1)], 10)
    points = [5 * S, 2 * S, 6 * S, 5 * S]
    for k in range(bad + 1, 4):
        points[k] += S  # step bad is one too long, the steps after it fit again
    with pytest.raises(ValueError, match=f"^step #{bad} is "):
        Pattern(cross, tuple(points))


def test_performance_single_step():
    cross = cross_of([(1, 1)], 2)
    assert performance(Pattern(cross, (0, S))) == S


def test_performance_direct_evaluation_example():
    cross = cross_of([(3, 7), (6, 4)], 10)
    assert performance(Pattern(cross, (5 * S, 2 * S, 6 * S))) == 7 * S


def test_performance_is_shift_invariant_and_matches_direct_formula():
    rng = random.Random(41)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 12), seed=trial)
        points = [rng.randrange(-40 * S, 40 * S)]
        for u, v in cross.pairs:
            points.append(points[-1] + (v if rng.random() < 0.5 else -u))
        pattern = Pattern(cross, tuple(points))
        x, y = points[0], points[-1]
        direct = max(
            (abs(2 * p - x - y) for p in points[1:]), default=0
        )  # |sum_{i<=k} z_i - sum_{i>k} z_i| via prefix sums
        assert performance(pattern) == direct
        shift = rng.randrange(-5 * S, 5 * S)
        assert performance(Pattern(cross, tuple(p + shift for p in points))) == direct


def test_performance_equals_width_plus_end_offset():
    # Width is a lower bound, attained exactly when x + y = a + b; in
    # general the excess is |y - (a + b - x)|.
    rng = random.Random(42)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 12), seed=trial + 500)
        points = [0]
        for u, v in cross.pairs:
            points.append(points[-1] + (v if rng.random() < 0.5 else -u))
        pattern = Pattern(cross, tuple(points))
        lo, hi = pattern.strip
        excess = abs(pattern.end - (lo + hi - pattern.start))
        assert performance(pattern) == hi - lo + excess
        assert performance(pattern) >= hi - lo


def test_forward_greedy_forced_choices():
    cross = cross_of([(3, 7), (6, 4)], 10)
    assert forward_greedy(cross, 5 * S).points == (5 * S, 2 * S, 6 * S)


def test_forward_greedy_tie_prefers_clockwise():
    cross = cross_of([(2, 2)], 10)
    assert forward_greedy(cross, 5 * S).points == (5 * S, 7 * S)


def test_forward_greedy_boundary_then_tie():
    # First step forced down by the strip, second nearer the midpoint.
    cross = cross_of([(1, 9), (9, 1)], 10)
    assert forward_greedy(cross, 5 * S).points == (5 * S, 4 * S, 5 * S)


def test_backward_greedy_forced_choices():
    cross = cross_of([(3, 7), (6, 4)], 10)
    assert backward_greedy(cross, 6 * S).points == (5 * S, 2 * S, 6 * S)


def test_backward_greedy_tie_prefers_clockwise_step():
    # Candidates 3 and 7 are equidistant; z = +v means p(0) = p(1) - v = 3.
    cross = cross_of([(2, 2)], 10)
    assert backward_greedy(cross, 5 * S).points == (3 * S, 5 * S)


def test_greedy_margin_enforced():
    cross = cross_of([(2, 2)], 14)
    lo, hi = margin_interval(cross.D)
    assert lo == S and hi == 13 * S
    forward_greedy(cross, lo)
    forward_greedy(cross, hi)
    with pytest.raises(ValidationError, match=r"^start must lie in \[D/14, 13D/14\]"):
        forward_greedy(cross, lo - 1)
    with pytest.raises(ValidationError, match=r"^end must lie in \[D/14, 13D/14\]"):
        backward_greedy(cross, hi + 1)


def test_greedy_containment():
    rng = random.Random(43)
    for trial in range(400):
        cross = random_crossing(rng.randint(1, 10), rng.randint(2, 20), seed=trial)
        lo, hi = margin_interval(cross.D)
        point = rng.randrange(lo, hi + 1)
        pattern = (
            forward_greedy(cross, point)
            if rng.random() < 0.5
            else backward_greedy(cross, point)
        )
        assert all(0 <= p <= cross.D for p in pattern.points)


def _reference_greedy(pairs, D, point, forward, prefer_cw):
    """Independent reimplementation; also reports whether a tie occurred."""
    points = [point]
    ties = False
    order = range(len(pairs)) if forward else range(len(pairs) - 1, -1, -1)
    for k in order:
        u, v = pairs[k]
        here = points[-1]
        cw_choice = here + v if forward else here - v
        ccw_choice = here - u if forward else here + u
        options = [c for c in (cw_choice, ccw_choice) if 0 <= c <= D]
        if len(options) == 2:
            d_cw = abs(2 * cw_choice - D)
            d_ccw = abs(2 * ccw_choice - D)
            if d_cw == d_ccw:
                ties = True
                best = cw_choice if prefer_cw else ccw_choice
            else:
                best = cw_choice if d_cw < d_ccw else ccw_choice
        else:
            best = options[0]
        points.append(best)
    if not forward:
        points.reverse()
    return tuple(points), ties


def test_greedy_matches_reference():
    rng = random.Random(44)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 9), rng.randint(2, 15), seed=trial + 900)
        lo, hi = margin_interval(cross.D)
        point = rng.randrange(lo, hi + 1)
        forward = rng.random() < 0.5
        expected, _ = _reference_greedy(cross.pairs, cross.D, point, forward, True)
        assert walk_points(cross.pairs, cross.D, point, forward) == expected
    # Long walks, m up to 1000 and D up to 1000, from anywhere in [0, D].
    # A tie needs 2 p + v - u = D, so the start, and with it every point,
    # is a multiple of 14 (half a unit) in half the walks; D is even.
    ties = 0
    for trial in range(60):
        m = rng.choice((50, 200, 1000))
        D = 2 * rng.randint(1, 500)
        cross = random_crossing(m, D, seed=trial + 5000)
        point = rng.randint(0, cross.D)
        if trial % 2:
            point -= point % 14
        forward = trial % 4 < 2
        expected, had_tie = _reference_greedy(cross.pairs, cross.D, point, forward, True)
        assert walk_points(cross.pairs, cross.D, point, forward) == expected
        ties += had_tie
    assert ties >= 10


def test_backward_is_reversed_forward_on_reversed_instance():
    # Index reversal (with u and v swapped) turns a backward walk into a
    # forward walk; with the shared clockwise tie rule the two agree
    # whenever no tie occurs, and differ only at ties.
    rng = random.Random(45)
    exercised = 0
    while exercised < 200:
        cross = random_crossing(rng.randint(1, 9), rng.randint(2, 15), seed=rng.random())
        lo, hi = margin_interval(cross.D)
        point = rng.randrange(lo, hi + 1)
        _, had_tie = _reference_greedy(cross.pairs, cross.D, point, False, True)
        if had_tie:
            continue
        reversed_swapped = standalone_crossing(
            tuple((v, u) for u, v in reversed(cross.pairs)), cross.D
        )
        backward = backward_greedy(cross, point).points
        forward = walk_points(reversed_swapped.pairs, reversed_swapped.D, point, True)
        assert backward == tuple(reversed(forward))
        exercised += 1


def test_find_close_examples():
    cross = cross_of([(3, 7), (6, 4)], 10)
    p1 = Pattern(cross, (5 * S, 2 * S, 6 * S))
    p2 = Pattern(cross, (1 * S, 8 * S, 2 * S))
    assert find_close(p1, p2, 4 * S) == 0
    assert find_close(p1, p2, 3 * S) is None
    assert find_close(p1, p1, 0) == 0
    assert find_close(p1, Pattern(cross, (13 * S, 10 * S, 4 * S)), 2 * S) == 2


def test_find_close_owner_mismatch():
    c1 = cross_of([(1, 1)], 2)
    c2 = cross_of([(1, 1)], 4)
    with pytest.raises(ValidationError, match="^patterns belong to different instances$"):
        find_close(Pattern(c1, (0, S)), Pattern(c2, (0, S)), S)
    with pytest.raises(ValidationError, match="^patterns belong to different instances$"):
        crossover(Pattern(c1, (0, S)), Pattern(c2, (0, S)), 0)


def test_crossover_example():
    cross = cross_of([(3, 7), (6, 4)], 10)
    p1 = Pattern(cross, (5 * S, 2 * S, 6 * S))
    p2 = Pattern(cross, (1 * S, 8 * S, 2 * S))
    spliced = crossover(p1, p2, 0)
    assert spliced.points == (3 * S, 10 * S, 4 * S)
    assert spliced.start + spliced.end == p1.start + p2.end


def test_crossover_with_zero_gap_is_identity():
    cross = cross_of([(3, 7), (6, 4)], 10)
    p1 = Pattern(cross, (5 * S, 2 * S, 6 * S))
    assert crossover(p1, p1, 1).points == p1.points


def test_crossover_late_witness_keeps_first_pattern_steps():
    cross = cross_of([(3, 7), (6, 4)], 10)
    p1 = Pattern(cross, (5 * S, 2 * S, 6 * S))
    p2 = Pattern(cross, (1 * S, 8 * S, 2 * S))
    spliced = crossover(p1, p2, 2)
    assert spliced.points == (3 * S, 0, 4 * S)
    assert spliced.start + spliced.end == 7 * S


def test_crossover_strip_containment():
    rng = random.Random(46)
    for trial in range(300):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 10), seed=trial)
        lo, hi = margin_interval(cross.D)
        p1 = forward_greedy(cross, rng.randrange(lo, hi + 1))
        p2 = backward_greedy(cross, rng.randrange(lo, hi + 1))
        witness = find_close(p1, p2, 2 * cross.D)
        assert witness is not None  # both live on [0, D]
        eps_prime = p1.points[witness] - p2.points[witness]
        if eps_prime % 2:
            continue
        spliced = crossover(p1, p2, witness)
        a1, b1 = p1.strip
        a2, b2 = p2.strip
        half = abs(eps_prime) // 2
        lo_bound = min(a1, a2) - half
        hi_bound = max(b1, b2) + half
        assert lo_bound <= min(spliced.points) <= max(spliced.points) <= hi_bound
        assert spliced.start + spliced.end == p1.start + p2.end


def test_crossover_rejects_odd_gap_and_bad_witness():
    cross = cross_of([(1, 2), (2, 1)], 3)
    p1 = Pattern(cross, (0, 2 * S, 0))
    p2 = Pattern(cross, (S, 3 * S, S))
    for index in (-1, 3):
        with pytest.raises(ValidationError, match=f"^witness index {index} out of range$"):
            crossover(p1, p2, index)
    odd = Pattern(cross, (1, 2 * S + 1, 1))
    with pytest.raises(ValidationError, match="^scaled value -1 is not divisible by 2$"):
        crossover(p1, odd, 0)


def test_greedy_pair_closeness_when_big_steps_diverge():
    # Two greedy walks that split on a big demand while one stays above
    # the other end up D/7-close (delta = 2/7).
    rng = random.Random(47)
    exercised = 0
    while exercised < 150:
        D = rng.choice([7, 14, 28, 70])
        cross = random_small_big(rng, rng.randint(1, 10), D)
        lo, hi = margin_interval(cross.D)
        walks = []
        for _ in range(2):
            point = rng.randrange(lo, hi + 1)
            if rng.random() < 0.5:
                walks.append(forward_greedy(cross, point))
            else:
                walks.append(backward_greedy(cross, point))
        p, q = walks
        big = cross.D - 2 * cross.D // 7  # (1 - 2/7) * D
        eps = cross.D // 7  # half of delta * D
        for k in range(cross.m):
            u, v = cross.pairs[k]
            if u + v < big:
                continue
            step_p = p.points[k + 1] - p.points[k]
            step_q = q.points[k + 1] - q.points[k]
            if step_p == step_q:
                continue
            if p.points[k] >= q.points[k] and p.points[k + 1] >= q.points[k + 1]:
                assert find_close(p, q, eps) is not None
                exercised += 1
            elif q.points[k] >= p.points[k] and q.points[k + 1] >= p.points[k + 1]:
                assert find_close(q, p, eps) is not None
                exercised += 1

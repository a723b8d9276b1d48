"""Exact solvers: branch and bound against its oracles, DP feasibility, DP optimum."""

import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    criterion_8_crossings,
    dp_feasible_block,
    pattern_from_solution,
    random_ring,
    scalar_dp_feasible,
    scalar_dp_min_increase,
    scalar_feasible_any_y,
    scalar_levels,
    split_rings,
    window_masks,
)
from ringload import exact
from ringload.cli import main
from ringload.approx import solve_19_14, ssw_three_halves
from ringload.errors import TooLargeForDP, TooManyDemands
from ringload.exact import (
    brute_force_min_increase,
    brute_force_optimum_L,
    dp_feasible,
    dp_min_increase,
    level_masks,
)
from ringload.fileio import write_instance
from ringload.instances import BUILTIN_NAMES, builtin, random_crossing
from ringload.model import (
    CCW,
    CW,
    Demand,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    additive_increase,
    edge_loads,
    path_loads,
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


def test_dp_min_increase_matches_scalar_oracle_on_d1000_rings(monkeypatch):
    # Every probe after the first feasible one tests only the end points
    # found feasible there.
    probes = []
    probe = exact._probe

    def recorded(pairs, t, ys):
        probes.append((t, len(ys)))
        return probe(pairs, t, ys)

    monkeypatch.setattr(exact, "_probe", recorded)
    for seed in range(6):
        cross = random_crossing(50, 1000, seed)
        probes.clear()
        assert dp_min_increase(cross) == scalar_dp_min_increase(cross)
        assert probes[0] == (750, 2 * 750 + 1)
        assert any(width < 2 * t + 1 for t, width in probes[1:])
        assert all(t >= step_bound(cross) for t, _ in probes[1:])


def step_bound(cross):
    """max_k min(u_k, v_k) in grid units: no increase below it is feasible."""
    return max(min(u, v) for u, v in exact._unit_pairs(cross)[1])


def test_the_step_bound_never_exceeds_the_optimum():
    # On random integer, half-integer and structured rings, and tight for
    # one pair, whose one step of v or u must fit in the window.
    rng = random.Random(71)
    crosses = [random_crossing(rng.randint(1, 9), rng.randint(2, 40), seed=trial)
               for trial in range(60)]
    crosses += [half_integer_crossing(rng, rng.randint(1, 9), rng.randint(1, 12))
                for _ in range(60)]
    family = StructuredFamily(6, 8)
    for index in rng.sample(range(family.size), 60):
        crosses.append(standalone_crossing(
            tuple((from_int(u), from_int(v)) for u, v in family.decode(index)), from_int(8)
        ))
    tight = 0
    for cross in crosses:
        g = exact._unit_pairs(cross)[0]
        value = scalar_dp_min_increase(cross)[1]
        assert step_bound(cross) * g <= value, cross
        tight += step_bound(cross) * g == value
    assert 0 < tight < len(crosses)
    for u, v in itertools.product(range(1, 8), repeat=2):
        cross = standalone_crossing(((from_int(u), from_int(v)),), from_int(u + v))
        assert dp_min_increase(cross)[1] == from_int(min(u, v))
        assert step_bound(cross) * exact._unit_pairs(cross)[0] == from_int(min(u, v))


def half_integer_crossing(rng, m, D):
    pairs = []
    for _ in range(m):
        d = rng.randint(1, D)
        u = rng.randint(1, 2 * d - 1)
        pairs.append((u * 14, (2 * d - u) * 14))
    return standalone_crossing(tuple(pairs), from_int(D))


def test_dp_matches_scalar_oracle_on_small_rings():
    # dp_feasible at every (t, y), and dp_min_increase value and routing.
    rng = random.Random(66)
    crosses = [random_crossing(rng.randint(1, 7), rng.randint(2, 9), seed=trial)
               for trial in range(30)]
    crosses += [half_integer_crossing(rng, rng.randint(1, 7), rng.randint(1, 5))
                for _ in range(30)]
    outcomes = set()
    for cross in crosses:
        assert dp_min_increase(cross) == scalar_dp_min_increase(cross), cross
        g = 14 if any(u % 28 for u, _ in cross.pairs) else 28
        for t in range(-1, 3 * cross.D // g // 2 + 2):
            for y in range(-t - 1, t + 2):
                routing = dp_feasible(cross, t * g, y * g)
                assert routing == scalar_dp_feasible(cross, t * g, y * g), (cross, t, y)
                outcomes.add(routing is None)
    assert outcomes == {True, False}


def test_dp_kernel_edge_cases():
    # t = -1 leaves no end point to test; m = 0 reaches exactly y = 0.
    U, V = np.array([[1, 3], [2, 2]]), np.array([[3, 1], [2, 2]])
    assert exact._probe([(1, 3), (3, 1)], 0, np.arange(1, 0)).shape == (0,)
    assert dp_feasible_block(U, V, -1).tolist() == [False, False]
    empty = np.zeros((3, 0), dtype=np.int64)
    assert dp_feasible_block(empty, empty, -1).tolist() == [False] * 3
    assert dp_feasible_block(empty, empty, 0).tolist() == [True] * 3
    ys = np.arange(-2, 3)
    assert exact._probe([], 2, ys).tolist() == [False, False, True, False, False]
    assert exact._probe([], 0, np.array([0])).tolist() == [True]
    cross = standalone_crossing((), 0)
    assert dp_min_increase(cross) == scalar_dp_min_increase(cross) == (UnsplitRouting(()), 0)
    for t in range(-1, 3):
        for y in range(-2, 3):
            routing = dp_feasible(cross, t * S, y * S)
            assert routing == scalar_dp_feasible(cross, t * S, y * S)
            assert (routing is not None) == (t >= 0 and y == 0)
    cross = standalone_crossing(((S, S),), 2 * S)
    assert dp_feasible(cross, -S, 0) is None


def test_level_masks_are_int64_for_every_t_up_to_62():
    # A window holds at most t + 1 points, so up to t = 62 the masks are
    # one uint64 word per end point, below int64's sign bit, at any step: a
    # bit shifted past the window is dropped by the shift, numpy giving 0
    # for shifts of 64 or more, or cleared by the window's full mask.  Steps
    # up to 1447 (a scan's largest D, less one) shift by that much; zeros
    # and odd u + v reach both parities and the edge cases of a step.
    # Forward, column y + t is the scalar DP's last level at y; backward, it
    # is that of the reversed pairs with u and v swapped at -y, whose window
    # is the same one moved by -y.  At t = 63 a window takes all 64 bits of
    # a word, and from t = 64 on the masks take more words.
    shifts = np.arange(64, 101, dtype=np.uint64)
    words = np.full((len(shifts), 5), 2**64 - 1, dtype=np.uint64)
    for by in (shifts[0], shifts[:, None], np.repeat(shifts[:, None], 5, axis=1)):
        assert not (words << by).any() and not (words >> by).any()
    rng = np.random.default_rng(98)
    outcomes = set()
    for m in range(1, 5):
        tops = rng.choice([8, 64, 1448], size=(24, 1))
        U, V = rng.integers(0, tops, size=(24, m)), rng.integers(0, tops, size=(24, m))
        U[0], V[1] = 0, 0
        rows = [list(zip(u, v)) for u, v in zip(U.tolist(), V.tolist())]
        for t in (0, 31, 61, 62):
            forward, backward = level_masks(U, V, t), level_masks(U, V, t, backward=True)
            assert forward.shape == backward.shape == (24, 2 * t + 1)
            assert forward.dtype == backward.dtype == np.uint64
            assert forward.max() < 2**63 and backward.max() < 2**63
            for r, pairs in enumerate(rows):
                swapped = [(v, u) for u, v in reversed(pairs)]
                ys = range(-t, t + 1)
                assert forward[r].tolist() == [scalar_levels(pairs, t, y)[-1] for y in ys]
                assert backward[r].tolist() == [scalar_levels(swapped, t, -y)[-1] for y in ys]
            expected = [scalar_feasible_any_y(pairs, t) is not None for pairs in rows]
            assert dp_feasible_block(U, V, t).tolist() == expected
            for k in range(m + 1):
                start = level_masks(U[:, :k], V[:, :k], t)
                end = level_masks(U[:, k:], V[:, k:], t, backward=True)
                assert (start & end).any(axis=1).tolist() == expected
            outcomes.update(expected)
        for backward in (False, True):
            assert level_masks(U, V, 64, backward).shape == (24, 2 * (2 * 64 + 1))
    assert outcomes == {True, False}


def test_level_masks_in_many_words_match_the_scalar_levels():
    # W = t // 64 + 1 words per end point: one word of all 64 bits at t =
    # 63, two from t = 64, three from 128, four at 200.  Joined by the
    # layout rule (window_masks), forward and backward columns are the
    # scalar DP's last levels as at one word, and every split of a row
    # meets in the middle exactly where the scalar DP, and the block
    # reference, find the row feasible.  Steps up to 1447 move bits across
    # words and whole windows; zeros and odd u + v reach both parities and
    # the edge cases of a step.
    rng = np.random.default_rng(99)
    outcomes = set()
    for t in (63, 64, 127, 128, 129, 200):
        for m in range(1, 5):
            tops = rng.choice([8, 64, 300, 1448], size=(16, 1))
            U, V = rng.integers(0, tops, size=(16, m)), rng.integers(0, tops, size=(16, m))
            U[0], V[1] = 0, 0
            rows = [list(zip(u, v)) for u, v in zip(U.tolist(), V.tolist())]
            forward, backward = level_masks(U, V, t), level_masks(U, V, t, backward=True)
            assert forward.shape == backward.shape == (16, (t // 64 + 1) * (2 * t + 1))
            ys = range(-t, t + 1)
            joined = zip(rows, window_masks(forward, t), window_masks(backward, t))
            for pairs, ahead, behind in joined:
                swapped = [(v, u) for u, v in reversed(pairs)]
                assert ahead == [scalar_levels(pairs, t, y)[-1] for y in ys]
                assert behind == [scalar_levels(swapped, t, -y)[-1] for y in ys]
            expected = [scalar_feasible_any_y(pairs, t) is not None for pairs in rows]
            assert dp_feasible_block(U, V, t).tolist() == expected
            for k in range(m + 1):
                start = level_masks(U[:, :k], V[:, :k], t)
                end = level_masks(U[:, k:], V[:, k:], t, backward=True)
                assert (start & end).any(axis=1).tolist() == expected
            outcomes.update(expected)
    assert outcomes == {True, False}


def assert_probe_matches_scalar_oracle(cross, ts):
    """exact._probe over all of [-t, t] against the scalar DP, one y at a time."""
    g, pairs = exact._unit_pairs(cross)
    for t in ts:
        ys = np.arange(-t, t + 1)
        expected = [scalar_dp_feasible(cross, t * g, y * g) is not None for y in ys.tolist()]
        assert exact._probe(pairs, t, ys).tolist() == expected, (cross, t)


# _PACKED_BITS at 0 sends every probe with an end point to the numpy
# chunks, and at 1 << 40 every probe here to the one packed Python int.
BOTH_PACKINGS = (0, 1 << 40)


def test_probe_matches_scalar_oracle_per_end_point(monkeypatch):
    # Every t from 0 up to the 3/2 * D start bound, on integer and
    # half-integer rings, in both packings; t = 0 has the single end point 0.
    rng = random.Random(68)
    crosses = [random_crossing(rng.randint(1, 9), rng.randint(2, 14), seed=trial)
               for trial in range(40)]
    crosses += [half_integer_crossing(rng, rng.randint(1, 9), rng.randint(1, 7))
                for _ in range(40)]
    for packed_bits in BOTH_PACKINGS:
        monkeypatch.setattr(exact, "_PACKED_BITS", packed_bits)
        for cross in crosses:
            g, _ = exact._unit_pairs(cross)
            assert_probe_matches_scalar_oracle(cross, range(3 * cross.D // g // 2 + 1))


def test_probe_skips_steps_wider_than_the_window(monkeypatch):
    # At t = 4 the windows are 4 or 3 wide: the steps of 5 and 6 fall
    # outside them in one direction, the steps of 9 in both.
    for packed_bits in BOTH_PACKINGS:
        monkeypatch.setattr(exact, "_PACKED_BITS", packed_bits)
        cross = standalone_crossing(((S, 5 * S), (6 * S, S), (2 * S, 2 * S)), 7 * S)
        assert_probe_matches_scalar_oracle(cross, range(10))
        cross = standalone_crossing(((9 * S, 9 * S),), 18 * S)
        assert_probe_matches_scalar_oracle(cross, range(10))
        assert not exact._probe([(9, 9)], 4, np.arange(-4, 5)).any()


def test_probe_packings_agree_on_partial_end_point_sets(monkeypatch):
    # The probes after a feasible one test a subset of [-t, t], with both
    # parities mixed in any order; each packing must read each lane back.
    rng = random.Random(72)
    for trial in range(30):
        cross = random_crossing(rng.randint(1, 12), rng.randint(2, 60), seed=trial)
        g, pairs = exact._unit_pairs(cross)
        t = rng.randint(0, 3 * cross.D // g // 2)
        ys = np.array(rng.sample(range(-t, t + 1), rng.randint(1, 2 * t + 1)))
        expected = [scalar_dp_feasible(cross, t * g, y * g) is not None for y in ys.tolist()]
        for packed_bits in BOTH_PACKINGS:
            monkeypatch.setattr(exact, "_PACKED_BITS", packed_bits)
            assert exact._probe(pairs, t, ys).tolist() == expected, (cross, t, ys)


def test_probe_lanes_share_start_rows_and_narrow_lanes_lose_row_t(monkeypatch):
    # Both packings hold one (t + 1)-row box for all lanes.  Lanes of both
    # parities can start in the same row (and word), so the starts are
    # ORed in; row t lies outside the window of a narrow lane (t + y odd),
    # so every level clears it there.
    for packed_bits in BOTH_PACKINGS:
        monkeypatch.setattr(exact, "_PACKED_BITS", packed_bits)
        # y = 0 and y = -1 share start row 1.  The only route to y = 1
        # passes point 2, one past its narrow window [0, 1].
        found = exact._probe([(1, 2), (1, 1)], 2, np.array([1, 0, -1, 2, -2]))
        assert found.tolist() == [False, True, False, False, True]
        # y = -1 and y = 0 share start row 2.
        found = exact._probe([(2, 3), (1, 2)], 4, np.array([-1, 0, 1]))
        assert found.tolist() == [False, True, False]


def test_probe_in_column_chunks_matches_scalar_oracle(monkeypatch):
    # With _MASK_BITS below one row, every chunk holds 64 columns; at
    # t = 150 the 301 lanes take five.
    monkeypatch.setattr(exact, "_MASK_BITS", 40)
    monkeypatch.setattr(exact, "_PACKED_BITS", 0)
    for seed in range(3):
        cross = random_crossing(6, 200, seed)
        assert_probe_matches_scalar_oracle(cross, (63, 64, 129, 150))
        assert dp_min_increase(cross) == scalar_dp_min_increase(cross)
    cross = half_integer_crossing(random.Random(69), 5, 60)
    assert_probe_matches_scalar_oracle(cross, (130,))
    # Many short steps reach most end points, so every chunk has feasible ones.
    rng = random.Random(70)
    dense = standalone_crossing(
        tuple((rng.randint(1, 3) * S, rng.randint(1, 3) * S) for _ in range(160)), 6 * S
    )
    assert_probe_matches_scalar_oracle(dense, (63, 64, 129, 150))
    assert exact._probe(exact._unit_pairs(dense)[1], 150, np.arange(-150, 151)).sum() > 200


@settings(deadline=None)
@given(st.data())
def test_dp_screen_is_invariant_under_reversing_the_sequence(data):
    # A pattern read backward, p'(k) = p(m) - p(m - k), takes the same steps
    # in reverse order, ends at the same y and keeps max |2 p(k) - y|.
    m = data.draw(st.integers(0, 10))
    rows = data.draw(st.integers(0, 8))
    values = st.lists(st.integers(0, 12), min_size=rows * m, max_size=rows * m)
    U = np.array(data.draw(values), dtype=np.int64).reshape(rows, m)
    V = np.array(data.draw(values), dtype=np.int64).reshape(rows, m)
    t = data.draw(st.integers(-1, 18))
    assert dp_feasible_block(U, V, t).tolist() == dp_feasible_block(U[:, ::-1], V[:, ::-1], t).tolist()


def test_dp_in_column_chunks_matches_scalar_oracle(monkeypatch):
    monkeypatch.setattr(exact, "_MASK_BITS", 40)
    monkeypatch.setattr(exact, "_PACKED_BITS", 0)
    rng = random.Random(67)
    for trial in range(40):
        cross = random_crossing(rng.randint(1, 8), rng.randint(2, 30), seed=trial)
        assert dp_min_increase(cross) == scalar_dp_min_increase(cross)


def test_dp_memory_stays_bounded_at_large_d():
    # All 2t+1 end points of the first probe would hold about 40 MB of
    # masks at D = 10^4; in column chunks the peak stays a few megabytes.
    cross = random_crossing(6, 10_000, seed=1)
    tracemalloc.start()
    try:
        dp_min_increase(cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_dp_refuses_a_start_bound_beyond_its_limit(monkeypatch):
    # Half-integer splits at D = 10^5 start at t = 3 * 10^5 half units.
    assert exact._MAX_DP_BOUND >= 3 * 10**5
    cross = standalone_crossing(((from_int(1), from_int(1)), (from_int(1), from_int(2))))
    hi = (3 * 3 + 1) // 2  # the start bound at D = 3, in whole units
    monkeypatch.setattr(exact, "_MAX_DP_BOUND", hi)
    assert dp_min_increase(cross)[1] == brute_force_min_increase(*cross.to_ring())[1]
    monkeypatch.setattr(exact, "_MAX_DP_BOUND", hi - 1)
    with pytest.raises(TooLargeForDP):
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
            screened_out = scalar_feasible_any_y(pairs, t - 1) is not None
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


def subset_sums(rows):
    """Row x is the sum of rows[p] over the set bits len(rows)-1-p of x."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        table = np.concatenate([table, table + row])
    return table


@given(st.data())
def test_subset_sums_columns_are_the_oracle_rows_plus_the_start(data):
    # Column-major and in the rows' type, from no rows (one column, the
    # start) to six; object rows hold Python ints past int64.
    dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64, object]))
    limit = 10**30 if dtype is object else np.iinfo(dtype).max // 7
    k, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 5))
    values = st.lists(st.integers(-limit, limit), min_size=cols, max_size=cols)
    start = np.array(data.draw(values), dtype=dtype)
    rows = np.array([data.draw(values) for _ in range(k)], dtype=dtype).reshape(k, cols)
    table = exact._subset_sums(start, rows)
    assert table.dtype == np.dtype(dtype)
    assert table.shape == (cols, 1 << k)
    assert np.array_equal(table, subset_sums(rows).T + start[:, None])


def table_oracle(inst, offset, low_bits=12):
    """First minimizer of max(loads - offset) over all 2^k routings, one table row at a time.

    Every routing's segment loads are a row sum of a high subset-sum table
    over the leading demands and a low one over the last low_bits; the
    high rows are scanned in order and only a strictly smaller value
    replaces the best.  int64 while max|loads - offset| + sum(d) < 2^63,
    Python ints otherwise.
    """
    active = [p for p, dem in enumerate(inst.demands) if dem.d > 0]
    dems = [inst.demands[p] for p in active]
    cols = sorted({0}.union(*((dem.i - 1, dem.j - 1) for dem in dems)))
    base = path_loads(
        inst.n, [dem.i for dem in dems], [dem.j for dem in dems], [dem.d for dem in dems],
        [0] * len(dems),
    )
    rest = [base[c] - offset[c] for c in cols]
    delta = [[-dem.d if dem.i - 1 <= c < dem.j - 1 else dem.d for c in cols] for dem in dems]
    exact_in_int64 = max(map(abs, rest)) + sum(dem.d for dem in dems) < 2**63
    dtype = np.int64 if exact_in_int64 else object
    rows = np.array(delta, dtype=dtype).reshape(len(dems), len(cols))
    split = max(len(dems) - low_bits, 0)
    low = subset_sums(rows[split:])
    high = subset_sums(rows[:split]) + np.array(rest, dtype=dtype)
    best_value, best_index = None, -1
    for h, high_row in enumerate(high):
        objective = (low + high_row).max(axis=1)
        pos = int(np.argmin(objective))
        if best_value is None or objective[pos] < best_value:
            best_value, best_index = objective[pos], h * len(low) + pos
    dirs = [CW] * len(inst.demands)
    for row, p in enumerate(active):
        if (best_index >> (len(active) - 1 - row)) & 1:
            dirs[p] = CCW
    return UnsplitRouting(tuple(dirs)), int(best_value)


def assert_brute_force_matches_oracle(inst, split, product=True):
    """Branch and bound == table oracle (== product oracle when product) on value and routing,
    with the offset at the split loads and at zero."""
    split_loads = per_edge_loads(inst, [(cw, dem.d - cw) for dem, cw in zip(inst.demands, split.cw)])
    for got, offset in ((brute_force_min_increase(inst, split), split_loads),
                        (brute_force_optimum_L(inst), [0] * inst.n)):
        expected = table_oracle(inst, offset)
        assert got == expected
        if product:
            assert expected == product_oracle(inst, offset)


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


@settings(deadline=None)
@given(split_rings(max_demands=18))
def test_branch_and_bound_matches_table_oracle(ring):
    # Up to 18 demands: the search branches on up to 6 of them.  The
    # product oracle is too slow beyond 10 demands.
    inst, split = ring
    assert_brute_force_matches_oracle(inst, split, product=len(inst.demands) <= 10)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_branch_and_bound_matches_oracles_on_builtins(name):
    inst, split = builtin(name)
    assert_brute_force_matches_oracle(inst, split, product=len(inst.demands) <= 10)


@pytest.mark.parametrize("chunk_bits", [None, 4])
def test_branch_and_bound_matches_oracles_on_criterion_8_rings(monkeypatch, chunk_bits):
    # With m <= 12 every ring is one table at the default leaf size; with
    # 4-demand leaves the search branches on up to 8 demands.  The product
    # oracle takes seconds per ring beyond m = 10; there the table oracle,
    # checked against it on the smaller rings, stands alone.
    if chunk_bits is not None:
        monkeypatch.setattr(exact, "_CHUNK_BITS", chunk_bits)
    for cross in criterion_8_crossings():
        inst, split = cross.to_ring()
        assert_brute_force_matches_oracle(inst, split, product=cross.m <= 10)


@pytest.mark.parametrize("m", [30, 40])
def test_brute_force_beyond_the_cap_matches_dp(monkeypatch, m):
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "40")
    for D in (10, 100):
        for seed in range(3):
            cross = random_crossing(m, D, seed)
            inst, split = cross.to_ring()
            routing, value = brute_force_min_increase(inst, split)
            assert value == dp_min_increase(cross)[1]
            assert additive_increase(inst, split, routing) == value


@pytest.mark.parametrize("argv, ceiling", [
    (("optimum", "-i", "fig7.json"), 160),  # 143 nodes
    (("verify", "fig8"), 85),  # 74 nodes
])
def test_cut_bound_node_ceiling(monkeypatch, tmp_path, capsys, argv, ceiling):
    # Every search node is one call of the bound; a weaker bound visits
    # more nodes (the single-column bound alone: 386 and 143).
    inst, split = builtin("fig7")
    (tmp_path / "fig7.json").write_bytes(write_instance(inst, split))
    monkeypatch.chdir(tmp_path)
    nodes = 0
    bound = exact._cut_bound

    def counted(cur, sep):
        nonlocal nodes
        nodes += 1
        return bound(cur, sep)

    monkeypatch.setattr(exact, "_cut_bound", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert 0 < nodes <= ceiling


def test_branch_and_bound_leaves_no_reference_cycles():
    # Its tables are freed on return, not when the cyclic collector runs.
    fig7, _ = builtin("fig7")
    inst, split = random_crossing(21, 10, seed=0).to_ring()
    gc.collect()
    gc.disable()
    try:
        brute_force_optimum_L(fig7)
        brute_force_min_increase(inst, split)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_optimum_L_is_exact_near_the_int64_limit():
    big = 10**17
    inst = RingInstance(4, (Demand(1, 3, from_int(big)), Demand(2, 4, from_int(2))))
    routing, L = brute_force_optimum_L(inst)
    assert L == from_int(big + 2)
    assert max(edge_loads(inst, routing)) == L
    assert (routing, L) == product_oracle(inst, [0] * inst.n)


def test_bound_sums_beyond_int64_take_python_ints(monkeypatch):
    # sum(d) is about 1.4 * 2^61: the table oracle's sums fit int64, but
    # the bound sums (up to 3 sum(d)) do not, so the search runs on Python
    # ints.
    rng = random.Random(68)
    n, k = 6, 13
    unit = 2**61 * 14 // (10 * k * 28)
    demands, cw = [], []
    for _ in range(k):
        i = rng.randint(1, n - 1)
        d = rng.randint(unit - 1000, unit)
        demands.append(Demand(i, rng.randint(i + 1, n), from_int(d)))
        cw.append(from_int(rng.randint(0, d)))
    inst, split = RingInstance(n, tuple(demands)), SplitRouting(tuple(cw))
    total = sum(dem.d for dem in demands)
    assert 3 * total >= 2**63 > 2 * total
    dtypes = set()
    bound = exact._cut_bound

    def recorded(cur, sep):
        dtypes.add(cur.dtype)
        return bound(cur, sep)

    monkeypatch.setattr(exact, "_cut_bound", recorded)
    assert_brute_force_matches_oracle(inst, split)
    assert dtypes == {np.dtype(object)}


@pytest.mark.parametrize("bound, dtype", [
    (2**15 - 1, np.int16),
    (2**15, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
    (2**63 - 1, np.int64),
    (2**63, object),
], ids=["2^15-1", "2^15", "2^31-1", "2^31", "2^63-1", "2^63"])
def test_the_search_runs_in_the_narrowest_type_that_holds_its_bound(monkeypatch, bound, dtype):
    # 14 demands, so the search branches on 2 of them, and an offset whose
    # largest magnitude puts 2 max|offset| + 3 sum(d) + 1 exactly at bound.
    # The placed loads, the separation sums and the leaf tables all take
    # the first of int16, int32 and int64 whose maximum holds it (cumsum
    # and sum would widen small types on their own).
    rng = random.Random(bound)
    n, k = 7, 14
    total = (bound - 1) // 4
    total -= (total - bound + 1) % 2  # 3 sum(d) has the parity of bound - 1
    peak = (bound - 1 - 3 * total) // 2
    assert 2 * peak + 3 * total + 1 == bound and peak >= 0
    cuts = sorted(rng.sample(range(1, total), k - 1))
    demands = []
    for low, high in zip([0] + cuts, cuts + [total]):
        i = rng.randint(1, n - 1)
        demands.append(Demand(i, rng.randint(i + 1, n), high - low))
    inst = RingInstance(n, tuple(demands))
    offset = (peak,) + tuple(rng.randint(-peak, peak) for _ in range(n - 1))
    seen = set()
    bound_fn, sums_fn = exact._cut_bound, exact._subset_sums

    def recorded_bound(cur, sep):
        seen.update({("cur", cur.dtype), ("sep", sep.dtype)})
        return bound_fn(cur, sep)

    def recorded_sums(start, rows):
        table = sums_fn(start, rows)
        seen.add(("leaf", table.dtype))
        return table

    monkeypatch.setattr(exact, "_cut_bound", recorded_bound)
    monkeypatch.setattr(exact, "_subset_sums", recorded_sums)
    assert exact._enumerate_min(inst, list(range(k)), offset) == table_oracle(inst, offset)
    assert seen == {(name, np.dtype(dtype)) for name in ("cur", "sep", "leaf")}


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

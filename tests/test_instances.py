"""Built-ins, the equalizing extension, certificates, random generation."""

import random

import pytest

from ringload.errors import InfeasibleParams, UnknownName
from ringload.instances import (
    BUILTIN_NAMES,
    builtin,
    certify_split_optimal,
    equalize_extension,
    random_crossing,
)
from ringload.model import Demand, RingInstance, SplitRouting, edge_loads
from ringload.reduction import reduce_to_crossing
from ringload.scaled import from_int

S = from_int(1)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_load_and_self_check(name):
    inst, split = builtin(name)
    assert len(split.cw) == len(inst.demands)


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        builtin("fig3")


def test_builtin_shapes():
    expected = {
        "fig1": (4, 2, 2),
        "fig2": (16, 8, 10),
        "fig5": (24, 12, 100),
        "fig6": (16, 8, 10),
        "fig7": (16, 22, 10),
        "fig8": (16, 18, 10),
    }
    for name, (n, k, D) in expected.items():
        inst, _ = builtin(name)
        assert (inst.n, len(inst.demands), inst.max_demand) == (n, k, D * S)


def test_fig1_is_two_crossing_demands_split_half_half():
    # fig1 is crossing-form data: demands 1-3 and 2-4 of value 2, half of each clockwise.
    inst, split = builtin("fig1")
    assert (inst.n, inst.i, inst.j, inst.d, split.cw) == (4, (1, 2), (3, 4), (56, 56), (28, 28))


def test_fig5_transcription_properties():
    # All splits integral with even demand values, odd clockwise total,
    # and every other demand pinned to D = 100.
    inst, split = builtin("fig5")
    assert sum(split.cw) // S == 575
    assert all(dem.d % (2 * S) == 0 for dem in inst.demands)
    assert all(inst.demands[k].d == 100 * S for k in range(1, 12, 2))


def test_equalize_extension_fig2():
    inst, split = builtin("fig2")
    result = equalize_extension(inst, split)
    assert result.added == 14  # edges 2 and 3 already carry the peak
    assert set(edge_loads(result.instance, result.split)) == {37 * S}
    assert result.all_within_max_demand
    assert max(result.instance.d[-result.added:]) == 10 * S


def test_equalize_extension_noop_on_uniform_loads():
    inst, split = builtin("fig1")
    result = equalize_extension(inst, split)
    assert result.added == 0
    assert result.instance == inst


def test_equalize_extension_fig5_exceeds_demand_bound():
    inst, split = builtin("fig5")
    result = equalize_extension(inst, split)
    assert not result.all_within_max_demand
    assert max(result.instance.d[-result.added:]) > 100 * S


def test_equalize_extension_reduces_back_to_input_crossing_form():
    from conftest import lifted_unsplit, random_ring

    rng = random.Random(71)
    for _ in range(100):
        inst, split = random_ring(rng, max_n=8, max_demands=5)
        result = equalize_extension(inst, split)
        assert len(set(edge_loads(result.instance, result.split))) == 1
        cross_before, _ = reduce_to_crossing(inst, split)
        cross_after, _ = reduce_to_crossing(result.instance, result.split)
        assert cross_after.pairs == cross_before.pairs
        added_indices = set(range(len(inst.demands), len(result.instance.demands)))
        assert added_indices <= {idx for idx, _ in lifted_unsplit(cross_after)}


def test_certify_fig7():
    inst, split = builtin("fig7")
    assert certify_split_optimal(inst, split) == 37 * S


def test_certify_fig8():
    inst, split = builtin("fig8")
    assert certify_split_optimal(inst, split) == 39 * S


def test_certify_fig1_tied_paths():
    inst, split = builtin("fig1")
    assert certify_split_optimal(inst, split) == 2 * S


def test_certify_rejects_long_way_flow():
    inst = RingInstance(4, (Demand(1, 2, 2 * S),))
    assert certify_split_optimal(inst, SplitRouting((S,))) is None
    # 1 -> 4 is 3 edges clockwise and 1 counterclockwise.
    inst = RingInstance(4, (Demand(1, 4, 2 * S),))
    assert certify_split_optimal(inst, SplitRouting((S,))) is None


def test_certify_skips_zero_demands():
    inst, split = builtin("fig1")
    inst = RingInstance(4, (*inst.demands, Demand(1, 2, 0)))
    assert certify_split_optimal(inst, SplitRouting((*split.cw, 0))) == 2 * S


def test_certify_rejects_nonuniform_loads():
    inst = RingInstance(4, (Demand(1, 2, 2 * S),))
    assert certify_split_optimal(inst, SplitRouting((2 * S,))) is None


def test_random_crossing_is_deterministic():
    a = random_crossing(6, 10, seed=5)
    b = random_crossing(6, 10, seed=5)
    assert a.pairs == b.pairs
    assert random_crossing(6, 10, seed=6).pairs != a.pairs


def test_random_crossing_unstructured_invariants():
    rng = random.Random(72)
    for trial in range(200):
        m, D = rng.randint(1, 12), rng.randint(2, 30)
        cross = random_crossing(m, D, seed=trial)
        assert cross.m == m and cross.D == D * S
        assert all(u >= S and v >= S and u + v <= D * S for u, v in cross.pairs)
        assert max(u + v for u, v in cross.pairs) == D * S


def test_random_crossing_structured_invariants():
    rng = random.Random(73)
    for trial in range(200):
        m, D = 2 * rng.randint(1, 5), 2 * rng.randint(2, 6)
        cross = random_crossing(m, D, seed=trial, structured=True)
        pairs = [(u // S, v // S) for u, v in cross.pairs]
        assert all((u + v) % 2 == 0 and u >= 1 and v >= 1 for u, v in pairs)
        assert all(u + v == D for u, v in pairs[1::2])
        assert sum(u for u, _ in pairs) % 2 == 1


def test_random_crossing_infeasible_params():
    with pytest.raises(InfeasibleParams):
        random_crossing(0, 10, seed=1)
    with pytest.raises(InfeasibleParams):
        random_crossing(8, 9, seed=1, structured=True)
    with pytest.raises(InfeasibleParams):
        random_crossing(3, 10, seed=1, structured=True)

"""Core types: validation, exact loads, additive increase."""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import crossing_split_loads, random_ring
from ringload.errors import (
    IndexMismatch,
    NegativeDemand,
    NodeOutOfRange,
    SplitExceedsDemand,
    ValidationError,
)
from ringload.instances import builtin
from ringload.model import (
    CCW,
    CW,
    Demand,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    additive_increase,
    edge_loads,
    validate_instance,
)
from ringload.reduction import reduce_to_crossing
from ringload.scaled import from_int


def test_validate_accepts_fig1():
    inst, split = builtin("fig1")
    validate_instance(inst, split)


def test_validate_rejects_bad_node():
    with pytest.raises(NodeOutOfRange, match=r"\(1,5\) violate 1 <= i < j <= 4"):
        RingInstance(4, (Demand(1, 5, from_int(2)),))
    with pytest.raises(NodeOutOfRange, match="at least 3 nodes, got n=2"):
        RingInstance(2, ())


def test_ring_size_is_bounded_by_the_index_range():
    assert RingInstance(sys.maxsize, (Demand(1, sys.maxsize, from_int(1)),)).n == sys.maxsize
    with pytest.raises(NodeOutOfRange, match="at most sys.maxsize"):
        RingInstance(sys.maxsize + 1, ())


def test_validate_rejects_unordered_endpoints():
    with pytest.raises(NodeOutOfRange):
        RingInstance(6, (Demand(4, 2, from_int(1)),))


def test_validate_rejects_negative_demand():
    with pytest.raises(NegativeDemand, match="demand #0 has negative value"):
        RingInstance(4, (Demand(1, 2, -from_int(1)),))


@st.composite
def ring_inputs(draw):
    """n and demand records: zero, duplicate and parallel chords, values
    past 2^63, and in about half the draws one fault (n below 3, an
    endpoint out of order or out of range, a negative value)."""
    n = draw(st.integers(3, 12))
    values = st.one_of(st.integers(0, 6).map(from_int), st.integers(2**63 - 1, 2**80))
    demands = []
    for _ in range(draw(st.integers(0, 8))):
        if demands and draw(st.booleans()):
            demands.append(draw(st.sampled_from(demands)))
        else:
            i = draw(st.integers(1, n - 1))
            demands.append(Demand(i, draw(st.integers(i + 1, n)), draw(values)))
    fault = draw(st.sampled_from(("none", "n", "ends", "value")))
    if fault == "n":
        n = draw(st.integers(-1, 2))
    elif fault != "none" and demands:
        pos = draw(st.integers(0, len(demands) - 1))
        dem = demands[pos]
        if fault == "ends":
            ends = ((dem.j, dem.i), (0, dem.j), (dem.i, n + 1), (dem.i, dem.i))
            i, j = draw(st.sampled_from(ends))
            demands[pos] = Demand(i, j, dem.d)
        else:
            demands[pos] = Demand(dem.i, dem.j, -draw(st.integers(1, 2**70)))
    return n, demands


def first_fault(n, demands):
    """The error a ring of these demands raises, checked record by record."""
    if n < 3:
        return NodeOutOfRange, f"ring must have at least 3 nodes, got n={n}"
    for pos, dem in enumerate(demands):
        if not 1 <= dem.i < dem.j <= n:
            ends = f"({dem.i},{dem.j})"
            return NodeOutOfRange, f"demand #{pos} endpoints {ends} violate 1 <= i < j <= {n}"
        if dem.d < 0:
            return NegativeDemand, f"demand #{pos} has negative value"
    return None


def built(make):
    try:
        return make()
    except ValidationError as exc:
        return type(exc), str(exc)


@given(ring_inputs())
def test_records_and_columns_make_the_same_ring(case):
    n, demands = case
    by_records = built(lambda: RingInstance(n, demands))
    by_columns = built(lambda: RingInstance.from_columns(
        n, [dem.i for dem in demands], [dem.j for dem in demands], [dem.d for dem in demands]
    ))
    fault = first_fault(n, demands)
    if fault is not None:
        assert by_records == by_columns == fault
        return
    assert by_records == by_columns
    assert hash(by_records) == hash(by_columns)
    assert by_records.demands == by_columns.demands == tuple(demands)
    assert by_records.max_demand == by_columns.max_demand == max(
        (dem.d for dem in demands), default=0
    )


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(IndexMismatch, match="have 2, 1 and 1 entries"):
        RingInstance.from_columns(4, (1, 2), (3,), (from_int(1),))


def test_validate_rejects_split_exceeding_demand():
    inst = RingInstance(4, (Demand(1, 3, from_int(2)),))
    with pytest.raises(SplitExceedsDemand):
        validate_instance(inst, SplitRouting((from_int(3),)))


def test_validate_rejects_index_mismatch():
    inst = RingInstance(4, (Demand(1, 3, from_int(2)),))
    with pytest.raises(IndexMismatch):
        validate_instance(inst, SplitRouting((from_int(1), from_int(1))))


def test_edge_loads_check_the_routing_length():
    inst, split = builtin("fig1")
    with pytest.raises(IndexMismatch):
        edge_loads(inst, SplitRouting(split.cw[:1]))
    with pytest.raises(IndexMismatch):
        edge_loads(inst, UnsplitRouting((CW, CCW, CW)))


def test_fig1_split_loads_uniform():
    inst, split = builtin("fig1")
    assert edge_loads(inst, split) == (from_int(2),) * 4


def test_fig1_unsplit_loads():
    # First demand counterclockwise, second clockwise: loads 0, 2, 4, 2.
    inst, _ = builtin("fig1")
    loads = edge_loads(inst, UnsplitRouting((CCW, CW)))
    assert loads == tuple(from_int(v) for v in (0, 2, 4, 2))
    assert max(loads) == from_int(4)


# Hand-computed from the demand table: for each edge k, every one of the
# eight diameter demands contributes u_i on its clockwise side and v_i
# opposite; summing gives these loads.
FIG2_LOADS = (35, 37, 37, 35, 35, 33, 31, 29, 29, 27, 27, 29, 29, 31, 33, 35)


def test_fig2_split_loads():
    inst, split = builtin("fig2")
    assert edge_loads(inst, split) == tuple(from_int(v) for v in FIG2_LOADS)


def test_fig2_max_load_at_edges_2_and_3():
    inst, split = builtin("fig2")
    loads = edge_loads(inst, split)
    assert max(loads) == from_int(37)
    assert [k + 1 for k, load in enumerate(loads) if load == from_int(37)] == [2, 3]


def test_additive_increase_fig1():
    inst, split = builtin("fig1")
    assert additive_increase(inst, split, UnsplitRouting((CCW, CW))) == from_int(2)


def test_additive_increase_identity():
    # A split that is already unsplittable, compared against itself.
    inst = RingInstance(5, (Demand(1, 3, from_int(4)), Demand(2, 5, from_int(1))))
    split = SplitRouting((from_int(4), 0))
    assert additive_increase(inst, split, UnsplitRouting((CW, CCW))) == 0


def test_load_conservation_on_random_instances():
    # Sum of edge loads equals sum over demands of cw*len_cw + ccw*len_ccw.
    rng = random.Random(11)
    for _ in range(300):
        inst, split = random_ring(rng)
        loads = edge_loads(inst, split)
        expected = 0
        for dem, cw in zip(inst.demands, split.cw):
            len_cw = dem.j - dem.i
            expected += cw * len_cw + (dem.d - cw) * (inst.n - len_cw)
        assert sum(loads) == expected


def test_unsplit_load_conservation():
    rng = random.Random(12)
    for _ in range(200):
        inst, split = random_ring(rng)
        dirs = tuple(rng.choice((CW, CCW)) for _ in inst.demands)
        loads = edge_loads(inst, UnsplitRouting(dirs))
        expected = 0
        for dem, flag in zip(inst.demands, dirs):
            length = dem.j - dem.i if flag == CW else inst.n - (dem.j - dem.i)
            expected += dem.d * length
        assert sum(loads) == expected


def test_opposite_edge_changes_cancel_on_crossing_instances():
    # For a crossing instance, switching to any unsplittable routing
    # changes edge k and edge k+m by opposite amounts.
    rng = random.Random(13)
    from ringload.instances import random_crossing

    for trial in range(50):
        cross = random_crossing(rng.randint(2, 6), rng.randint(2, 12), seed=trial)
        inst, split = cross.to_ring()
        before = edge_loads(inst, split)
        dirs = tuple(rng.choice((CW, CCW)) for _ in range(cross.m))
        after = edge_loads(inst, UnsplitRouting(dirs))
        change = [a - b for a, b in zip(after, before)]
        for k in range(cross.m):
            assert change[k] == -change[k + cross.m]


def test_direction_flags_are_checked():
    with pytest.raises(ValueError):
        UnsplitRouting(("clockwise",))


def per_edge_loads(inst, cws):
    """Reference loads: for each edge, sum the amounts of the paths covering it."""
    loads = []
    for e in range(1, inst.n + 1):
        load = 0
        for dem, cw in zip(inst.demands, cws):
            load += cw if dem.i <= e < dem.j else dem.d - cw
        loads.append(load)
    return tuple(loads)


def test_edge_loads_match_per_edge_sums():
    # Split and unsplit routings, zero amounts, and (1, n) demands whose
    # counterclockwise path is edge n alone.
    rng = random.Random(14)
    for trial in range(300):
        inst, split = random_ring(rng, max_n=12, max_demands=10)
        if trial % 3 == 0:
            n = inst.n
            inst = RingInstance(n, inst.demands + (Demand(1, n, from_int(3)), Demand(1, n, 0)))
            split = SplitRouting(split.cw + (rng.choice((0, 42, from_int(3))), 0))
        assert edge_loads(inst, split) == per_edge_loads(inst, split.cw)
        dirs = tuple(rng.choice((CW, CCW)) for _ in inst.demands)
        cws = [dem.d if flag == CW else 0 for dem, flag in zip(inst.demands, dirs)]
        assert edge_loads(inst, UnsplitRouting(dirs)) == per_edge_loads(inst, cws)


def test_crossing_split_loads_match_the_ring_form():
    rng = random.Random(15)
    checked = 0
    for _ in range(300):
        cross, _ = reduce_to_crossing(*random_ring(rng, max_n=12, max_demands=10))
        if cross.m >= 2:
            assert crossing_split_loads(cross.pairs) == edge_loads(*cross.to_ring())
            checked += 1
    assert checked >= 20

"""Core types: validation, exact loads, additive increase."""

import ast
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import crossing_split_loads, random_ring
from ringload import errors
from ringload.approx import SolveReport, medium_demand_solve, small_big_solve
from ringload.errors import (
    IndexMismatch,
    NegativeDemand,
    NodeOutOfRange,
    RingLoadingError,
    SplitExceedsDemand,
    ValidationError,
)
from ringload.instances import ExtensionResult, builtin
from ringload.model import (
    CCW,
    CW,
    Demand,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    additive_increase,
    edge_loads,
    split_and_unsplit_loads,
    validate_instance,
)
from ringload.patterns import Pattern, backward_greedy, crossover, find_close, forward_greedy
from ringload.reduction import CrossingInstance, lift_solution, reduce_to_crossing
from ringload.search import CanonicalForm, SearchHit, StructuredFamily
from ringload.scaled import exact_div, from_fraction, from_int


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


def test_one_pass_gives_both_load_vectors():
    # The fused pass equals two edge_loads, one per routing, on rings with
    # zero amounts, unsplit and (1, n) demands; additive_increase reads it.
    rng = random.Random(16)
    for trial in range(300):
        inst, split = random_ring(rng, max_n=12, max_demands=10)
        if trial % 3 == 0:
            n = inst.n
            inst = RingInstance(n, inst.demands + (Demand(1, n, from_int(3)), Demand(1, n, 0)))
            split = SplitRouting(split.cw + (rng.choice((0, 42, from_int(3))), 0))
        unsplit = UnsplitRouting(tuple(rng.choice((CW, CCW)) for _ in inst.d))
        before, after = edge_loads(inst, split), edge_loads(inst, unsplit)
        assert split_and_unsplit_loads(inst, split, unsplit) == (before, after)
        assert additive_increase(inst, split, unsplit) == max(map(int.__sub__, after, before))


def test_one_pass_checks_both_lengths():
    inst, split = builtin("fig1")
    unsplit = UnsplitRouting((CW, CCW))
    with pytest.raises(IndexMismatch, match="^routing has 1 entries for 2 demands$"):
        split_and_unsplit_loads(inst, SplitRouting(split.cw[:1]), unsplit)
    with pytest.raises(IndexMismatch, match="^routing has 3 entries for 2 demands$"):
        split_and_unsplit_loads(inst, split, UnsplitRouting((CW, CCW, CW)))


def test_crossing_split_loads_match_the_ring_form():
    rng = random.Random(15)
    checked = 0
    for _ in range(300):
        cross, _ = reduce_to_crossing(*random_ring(rng, max_n=12, max_demands=10))
        if cross.m >= 2:
            assert crossing_split_loads(cross.pairs) == edge_loads(*cross.to_ring())
            checked += 1
    assert checked >= 20


RECORD_CLASSES = [Demand, RingInstance, SplitRouting, UnsplitRouting, CrossingInstance, Pattern,
                  SolveReport, ExtensionResult, CanonicalForm, StructuredFamily, SearchHit]


def _record_cases() -> dict:
    """Per record class: its constructor's arguments by name, in order, and
    the fields they give, in order."""
    pairs = ((28, 28), (84, 56))
    cross = CrossingInstance(pairs, 140)
    ring, split = cross.to_ring()
    z = UnsplitRouting((CW, CCW))
    pattern = Pattern(cross, (0, 28, -56))
    form = CanonicalForm(((1, 1), (2, 2)))
    demands = (Demand(1, 3, 28), Demand(2, 4, 56))
    cases = {
        Demand: {"i": 1, "j": 3, "d": 28},
        RingInstance: ({"n": 4, "demands": demands},
                       {"n": 4, "i": (1, 2), "j": (3, 4), "d": (28, 56)}),
        SplitRouting: {"cw": (14, 28)},
        UnsplitRouting: {"dirs": (CW, CCW)},
        CrossingInstance: ({"pairs": pairs, "D": 140},
                           {"pairs": pairs, "D": 140, "origin": None, "uncrossed": None,
                            "demand_map": None}),
        Pattern: {"owner": cross, "points": (0, 28, -56)},
        SolveReport: {"z": z, "perf": 28, "bound": 42, "branch": "ssw", "pattern": pattern},
        ExtensionResult: {"instance": ring, "split": split, "added": 0,
                          "all_within_max_demand": True},
        CanonicalForm: {"pairs": ((1, 1), (2, 2))},
        StructuredFamily: {"m": 2, "D": 4},
        SearchHit: {"form": form, "min_increase": 28},
    }
    return {cls: case if isinstance(case, tuple) else (case, case) for cls, case in cases.items()}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_keep_their_value_semantics(cls):
    # Equal fields make equal records with equal hashes; a record of another
    # class, a subclass with the same fields included, or a bare tuple of the
    # fields is never equal; no field can be set or deleted; pickle
    # round-trips; and repr lists the fields in order.
    cases = _record_cases()
    arguments, fields = cases[cls]
    record, twin = cls(*arguments.values()), cls(**arguments)
    assert record == twin and hash(record) == hash(twin)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    other_cls = RECORD_CLASSES[(RECORD_CLASSES.index(cls) + 1) % len(RECORD_CLASSES)]
    other = other_cls(**cases[other_cls][0])
    assert record != other and not record == other
    subclass = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})
    same_fields = subclass(**arguments)
    assert record != same_fields and not same_fields == record
    assert [getattr(same_fields, name) for name in fields] == list(fields.values())
    assert record != tuple(fields.values())
    for name, value in [*fields.items(), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and hash(copy) == hash(record)
    listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({listed})"


SHARED_CONSTRUCTOR = [cls for cls in RECORD_CLASSES if cls not in (Demand, RingInstance)]


@pytest.mark.parametrize("cls", SHARED_CONSTRUCTOR, ids=lambda cls: cls.__name__)
def test_records_take_each_field_once_by_position_or_name(cls):
    # The shared constructor rejects a missing field, an unknown name, a
    # field given by position and by name, and a value past the last field.
    _, fields = _record_cases()[cls]
    values = list(fields.values())
    first, rest = next(iter(fields)), dict(list(fields.items())[1:])
    assert cls(*values) == cls(**fields) == cls(values[0], **rest)
    with pytest.raises(TypeError, match=f"missing field\\(s\\) {first}"):
        cls(**rest)
    with pytest.raises(TypeError, match="no field 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"field '{first}' by position and by name"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(values)} fields, got {len(values) + 1}"):
        cls(*values, values[-1])


def test_crossing_instance_fills_its_trailing_fields_with_none():
    pairs = ((28, 28), (84, 56))
    for cross in (CrossingInstance(pairs=pairs, D=140), CrossingInstance(pairs, 140)):
        assert (cross.pairs, cross.D) == (pairs, 140)
        assert cross.origin is cross.uncrossed is cross.demand_map is None


@pytest.mark.parametrize("cls, bad", [(Pattern, ("points", (0, 1, 2))), (CrossingInstance, ("D", 0))],
                         ids=["Pattern", "CrossingInstance"])
def test_unpickling_checks_the_record(cls, bad, monkeypatch):
    # A record is unpickled through its constructor: its check runs once,
    # and a field it would refuse is refused on the way back in too.
    _, fields = _record_cases()[cls]
    data = pickle.dumps(cls(**fields))
    checked = []
    check = cls._check
    monkeypatch.setattr(cls, "_check", lambda self: checked.append(self) or check(self))
    copy = pickle.loads(data)
    assert len(checked) == 1 and checked[0] is copy
    forged = cls.__new__(cls)
    for name, value in {**fields, bad[0]: bad[1]}.items():
        object.__setattr__(forged, name, value)
    data = pickle.dumps(forged)
    with pytest.raises(ValueError):
        pickle.loads(data)
    assert len(checked) == 2



S = from_int(1)
MEDIUM = CrossingInstance(((S, S), (5 * S, 5 * S)), 10 * S)
GREEDY = CrossingInstance(((2 * S, 2 * S),), 14 * S)


def _two_walks():
    """Two patterns of one crossing instance whose gap at index 0 is odd."""
    cross = CrossingInstance(((S, 2 * S), (2 * S, S)), 3 * S)
    return Pattern(cross, (0, 2 * S, 0)), Pattern(cross, (1, 2 * S + 1, 1))


def _other_walk():
    return Pattern(CrossingInstance(((S, S),), 4 * S), (0, S))


RAISE_SITES = {
    "direction flag": (lambda: UnsplitRouting(("up",)),
                       "^direction must be 'cw' or 'ccw', got 'up'$"),
    "unhashable flag": (lambda: UnsplitRouting((["cw"],)),
                        r"^direction must be 'cw' or 'ccw', got \['cw'\]$"),
    "first bad flag": (lambda: UnsplitRouting((CW, CCW) * 500 + ("left", CW, "up")),
                       "^direction must be 'cw' or 'ccw', got 'left'$"),
    "crossing pair": (lambda: CrossingInstance(((0, 5),), 5),
                      "^crossing demand #0: u and v must be positive$"),
    "pattern step": (lambda: Pattern(GREEDY, (0, S)), "^step #0 is 28, admissible: 56 or -56$"),
    "off-grid D": (lambda: small_big_solve(CrossingInstance(((1, 2),), 3)),
                   "^scaled value 6 is not divisible by 7$"),
    "short z": (lambda: lift_solution(MEDIUM, UnsplitRouting((CW,))), "^z has 1 entries for m=2$"),
    "forward start": (lambda: forward_greedy(GREEDY, S - 1),
                      r"^start must lie in \[D/14, 13D/14\] = \[28, 364\]$"),
    "backward end": (lambda: backward_greedy(GREEDY, 13 * S + 1),
                     r"^end must lie in \[D/14, 13D/14\] = \[28, 364\]$"),
    "find_close owners": (lambda: find_close(_two_walks()[0], _other_walk(), S),
                          "^patterns belong to different instances$"),
    "crossover owners": (lambda: crossover(_two_walks()[0], _other_walk(), 0),
                         "^patterns belong to different instances$"),
    "witness index": (lambda: crossover(*_two_walks(), 3), "^witness index 3 out of range$"),
    "odd gap": (lambda: crossover(*_two_walks(), 0), "^scaled value -1 is not divisible by 2$"),
    "no demand": (lambda: medium_demand_solve(MEDIUM, 5, 0), "^no demand #5$"),
    "negative margin": (lambda: medium_demand_solve(MEDIUM, 1, -S),
                        r"^the margin delta \* D must be nonnegative$"),
    "not medium": (lambda: medium_demand_solve(MEDIUM, 0, 3 * S),
                   r"^demand #0 value outside \[delta\*D, \(1-delta\)\*D\]$"),
    "builtin name": (lambda: builtin("nope"), "^no built-in instance named 'nope'$"),
    "fraction": (lambda: from_fraction(Fraction(1, 3)), "^1/3 is not a multiple of 1/28$"),
    "division": (lambda: exact_div(from_int(10), 3), "^scaled value 280 is not divisible by 3$"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_a_fault_in_the_callers_data_is_a_validation_error(site):
    # One `except ValidationError`, `except ValueError` or `except
    # RingLoadingError` catches every fault a caller's data can trigger.
    call, message = RAISE_SITES[site]
    with pytest.raises(ValidationError, match=message) as raised:
        call()
    assert isinstance(raised.value, ValueError) and isinstance(raised.value, RingLoadingError)


def test_the_package_raises_only_its_own_errors():
    # Besides the classes of ringload.errors, the package raises TypeError
    # and AttributeError (the record protocol and the package __getattr__),
    # argparse's ArgumentTypeError, and ValueError only inside the try of
    # search._resume, which catches it itself.
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    allowed |= {"TypeError", "AttributeError", "argparse.ArgumentTypeError"}
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(errors.__file__).parent.glob("*.py")}
    resume = next(node for node in ast.walk(trees["search.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "_resume")
    caught = {id(node) for block in ast.walk(resume) if isinstance(block, ast.Try)
              if any("ValueError" in ast.unparse(handler.type) for handler in block.handlers)
              for statement in block.body for node in ast.walk(statement)}
    strays = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                if name not in allowed and not (name == "ValueError" and id(node) in caught):
                    strays.append(f"{module}:{node.lineno}: {name}")
    assert caught
    assert strays == []

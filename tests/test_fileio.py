"""Instance document parsing, serialization, and report formatting."""

import json
import random

import pytest
from hypothesis import given

from conftest import random_ring, split_rings
from ringload.errors import (
    IndexMismatch,
    InstanceSyntaxError,
    NegativeDemand,
    NodeOutOfRange,
    SchemaError,
    SplitExceedsDemand,
)
from ringload.fileio import parse_instance, routing_report, write_instance
from ringload.instances import builtin
from ringload.model import Demand, RingInstance, SplitRouting, UnsplitRouting, edge_loads
from ringload.scaled import from_int


def test_parse_fig1_document():
    doc = b'{"n": 4, "demands": [{"i":1,"j":3,"d":2,"cw":1},{"i":2,"j":4,"d":2,"cw":1}]}'
    inst, split = parse_instance(doc)
    assert inst.n == 4
    assert [dem.d for dem in inst.demands] == [from_int(2), from_int(2)]
    assert split is not None and split.cw == (from_int(1), from_int(1))
    assert (inst, split) == builtin("fig1")


def test_round_trip_random_instances():
    rng = random.Random(21)
    for _ in range(100):
        inst, split = random_ring(rng)
        assert parse_instance(write_instance(inst, split)) == (inst, split)
        # An empty demand list always carries the empty routing.
        expected = None if inst.demands else SplitRouting(())
        assert parse_instance(write_instance(inst)) == (inst, expected)


@given(split_rings())
def test_round_trip_split_rings(ring):
    # Empty rings, zero and identical demands, half-integer splits.
    inst, split = ring
    assert parse_instance(write_instance(inst, split)) == (inst, split)
    expected = None if inst.demands else SplitRouting(())
    assert parse_instance(write_instance(inst)) == (inst, expected)


def test_empty_demand_list_round_trips_with_the_empty_routing():
    inst = RingInstance(5, ())
    for split in (SplitRouting(()), None):
        assert parse_instance(write_instance(inst, split)) == (inst, SplitRouting(()))


def test_half_integer_cw_round_trips():
    doc = b'{"n": 4, "demands": [{"i":1,"j":3,"d":3,"cw":1.5}]}'
    inst, split = parse_instance(doc)
    assert split is not None and split.cw == (42,)  # 1.5 * 28
    assert parse_instance(write_instance(inst, split)) == (inst, split)
    # Beyond 2^52 a half-integer has no exact float; it is written as text.
    doc = b'{"n": 4, "demands": [{"i":1,"j":3,"d":1000000000000000000001,' \
          b'"cw":500000000000000000000.5}]}'
    inst, split = parse_instance(doc)
    written = write_instance(inst, split)
    assert b'"cw": 500000000000000000000.5' in written
    assert parse_instance(written) == (inst, split)


def test_writer_refuses_values_the_format_cannot_hold():
    # "d" is an integer and "cw" an integer or half-integer; nothing is rounded.
    with pytest.raises(ValueError):
        write_instance(RingInstance(4, (Demand(1, 3, 42),)))  # d = 3/2
    with pytest.raises(ValueError):
        write_instance(RingInstance(4, (Demand(1, 3, from_int(1)),)), SplitRouting((7,)))


def test_cw_absent_gives_instance_without_split():
    doc = b'{"n": 4, "demands": [{"i":1,"j":3,"d":2}]}'
    inst, split = parse_instance(doc)
    assert split is None


def test_malformed_json_is_a_syntax_error():
    with pytest.raises(InstanceSyntaxError):
        parse_instance(b'{"n": 4, "demands": [')
    with pytest.raises(InstanceSyntaxError):
        parse_instance(b'{"n": 4, "demands": [], "note": "caf\xe9"}')  # not UTF-8


@pytest.mark.parametrize(
    "doc",
    [
        b'{"demands": []}',
        b'{"n": "4", "demands": []}',
        b'{"n": 4}',
        b'{"n": 4, "demands": [{"i":1,"j":3}]}',
        b'{"n": 4, "demands": [{"i":1,"j":3,"d":2.5}]}',
        b'{"n": 4, "demands": [{"i":1,"j":3,"d":2,"cw":0.1}]}',
        b'{"n": 4, "demands": [{"i":1,"j":3,"d":2,"cw":true}]}',
        b'{"n": 4, "demands": [{"i":1,"j":3,"d":2,"cw":1},{"i":1,"j":4,"d":2}]}',
        b'[1, 2]',
    ],
)
def test_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_instance(doc)


def test_validation_errors_surface_from_parse():
    with pytest.raises(NodeOutOfRange):
        parse_instance(b'{"n": 4, "demands": [{"i":1,"j":5,"d":2}]}')


def _ring(n, *entries):
    return json.dumps({"n": n, "demands": list(entries)}).encode()


@pytest.mark.parametrize(
    ("doc", "error", "message"),
    [
        # A field error of an early entry wins over one of a later entry,
        # whichever field it is.
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": True}, {"j": 3, "d": 2, "cw": 1}),
            SchemaError,
            "demand #0: field 'cw' must be a number",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 0.1}, {"i": 1, "j": 3, "d": "2", "cw": 1}),
            SchemaError,
            "demand #0: 'cw' must be an integer or half-integer",
        ),
        (
            _ring(4, [1, 3, 2], {"i": 1, "j": 3, "d": 2, "cw": 0.1}),
            SchemaError,
            "demand #0: must be an object",
        ),
        (
            _ring(4, {"i": 1, "j": 3}, {"i": 1.5, "j": 3, "d": 2}),
            SchemaError,
            "demand #0: missing field 'd'",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2}, {"i": 1, "j": False, "d": 2}),
            SchemaError,
            "demand #1: field 'j' must be an integer",
        ),
        # Field errors come before ring errors, ring errors before split
        # errors, and within the ring the first demand at fault wins.
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 3}, {"i": 1, "j": 5, "d": 2, "cw": 1},
                  {"i": 1, "j": 2, "d": -1, "cw": 0}),
            NodeOutOfRange,
            "demand #1 endpoints (1,5) violate 1 <= i < j <= 4",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 3}, {"i": 1, "j": 2, "d": -1, "cw": 0},
                  {"i": 1, "j": 5, "d": 2, "cw": 1}),
            NegativeDemand,
            "demand #1 has negative value",
        ),
        (
            _ring(4, {"i": 3, "j": 3, "d": -1}),
            NodeOutOfRange,
            "demand #0 endpoints (3,3) violate 1 <= i < j <= 4",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 1}, {"i": 1, "j": 3, "d": 2, "cw": 2.5}),
            SplitExceedsDemand,
            "demand #1: clockwise amount outside [0, d]",
        ),
        # 'cw' on some entries only: a field error of any entry wins over
        # the count, and the count over ring errors.
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 1}, {"i": 1, "j": 3.0, "d": 2}),
            SchemaError,
            "demand #1: field 'j' must be an integer",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2}, {"i": 1, "j": 9, "d": 2, "cw": 1}),
            SchemaError,
            "either every demand carries 'cw' or none does",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2, "cw": 0.1}, {"i": 1, "j": 3, "d": 2}),
            SchemaError,
            "demand #0: 'cw' must be an integer or half-integer",
        ),
        (
            _ring(4, {"i": 1, "j": 3, "d": 2}, {"i": 1, "j": 3, "d": 2, "cw": "x"}),
            SchemaError,
            "demand #1: field 'cw' must be a number",
        ),
        # The ring's size is checked before any of its demands.
        (
            _ring(2, {"i": 1, "j": 5, "d": -1}),
            NodeOutOfRange,
            "ring must have at least 3 nodes, got n=2",
        ),
        (
            _ring(2, {"i": 1, "j": 5, "d": None}),
            SchemaError,
            "demand #0: field 'd' must be an integer",
        ),
    ],
)
def test_the_first_error_wins(doc, error, message):
    with pytest.raises(error) as caught:
        parse_instance(doc)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_a_short_routing_is_an_index_mismatch():
    inst, split = builtin("fig1")
    for routing, message in (
        (SplitRouting(split.cw[:1]), "routing has 1 entries for 2 demands"),
        (UnsplitRouting(("cw", "ccw", "cw")), "routing has 3 entries for 2 demands"),
    ):
        with pytest.raises(IndexMismatch) as caught:
            edge_loads(inst, routing)
        assert str(caught.value) == message


def test_routing_report_is_exact_rational_only():
    report = routing_report(
        UnsplitRouting(("cw", "ccw")), 14, (from_int(3), 42, 0, from_int(2))
    )
    assert report == {
        "dirs": ["cw", "ccw"],
        "max_increase": "1/2",
        "loads": ["3", "3/2", "0", "2"],
    }
    # JSON round-trip keeps everything int-or-string; no floats anywhere.
    decoded = json.loads(json.dumps(report))

    def no_floats(value):
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(v) for v in value.values())
        if isinstance(value, list):
            return all(no_floats(v) for v in value)
        return True

    assert no_floats(decoded)

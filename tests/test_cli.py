"""Command-line interface: reports, exit codes, output hygiene."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    Interrupted,
    fail_after,
    random_ring,
    random_small_big,
    record_pairs,
    with_extra_demands,
)
from ringload import approx, cli, instances, reduction, search
from ringload.cli import main
from ringload.errors import InfeasibleParams, InternalGuaranteeViolation, MediumDemandPresent
from ringload.fileio import write_instance
from ringload.instances import builtin, random_crossing
from ringload.model import (
    CCW,
    CW,
    Demand,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    path_loads,
    split_and_unsplit_loads,
)
from ringload.reduction import reduce_to_crossing
from ringload.scaled import from_int, parse_rational


@pytest.fixture()
def fig2_file(tmp_path):
    inst, split = builtin("fig2")
    path = tmp_path / "fig2.json"
    path.write_bytes(write_instance(inst, split))
    return str(path)


@pytest.fixture()
def empty_ring_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 5, "demands": []}')
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(no_floats(v) for v in value)
    return True


def test_solve_auto_fig2(capsys, fig2_file):
    code, out, err = run_cli(capsys, "solve", "--alg", "auto", "-i", fig2_file)
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "medium"
    assert report["max_increase"] == "11"
    assert report["crossing_performance"] == "11"
    assert report["bound"] == "13"
    assert len(report["dirs"]) == 8 and len(report["loads"]) == 16
    assert no_floats(report)
    assert "certified bound" in err


@pytest.mark.parametrize("alg", ["ssw", "medium", "smallbig", "auto", "dp", "brute"])
def test_solve_algorithms_run(capsys, tmp_path, alg):
    inst, split = builtin("fig6" if alg != "smallbig" else "fig1")
    path = tmp_path / "inst.json"
    path.write_bytes(write_instance(inst, split))
    code, out, _ = run_cli(capsys, "solve", "--alg", alg, "-i", str(path))
    assert code == 0
    assert no_floats(json.loads(out))


def test_solve_medium_matches_auto_whenever_auto_takes_medium(capsys, tmp_path):
    rng = random.Random(33)
    rings = [builtin(name) for name in ("fig2", "fig5", "fig6")]
    rings += [random_crossing(m, 10, seed).to_ring() for m in (3, 6) for seed in range(1, 6)]
    rings += [random_ring(rng, max_n=12, max_demands=8, max_d=10) for _ in range(30)]
    took_medium = 0
    for k, (inst, split) in enumerate(rings):
        path = tmp_path / f"ring{k}.json"
        path.write_bytes(write_instance(inst, split))
        code, auto_out, _ = run_cli(capsys, "solve", "--alg", "auto", "-i", str(path))
        assert code == 0
        if json.loads(auto_out)["branch"] != "medium":
            continue
        took_medium += 1
        code, medium_out, _ = run_cli(capsys, "solve", "--alg", "medium", "-i", str(path))
        assert code == 0 and medium_out == auto_out, path
    assert took_medium >= 10


def test_solve_medium_without_split_demands_falls_back_to_ssw(capsys, tmp_path):
    # Both demands are already unsplittable, so the crossing form has m = 0.
    inst = RingInstance(5, (Demand(1, 3, from_int(4)), Demand(2, 5, from_int(1))))
    path = tmp_path / "unsplit.json"
    path.write_bytes(write_instance(inst, SplitRouting((from_int(4), 0))))
    code, out, _ = run_cli(capsys, "solve", "--alg", "medium", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "ssw"
    assert report["dirs"] == ["cw", "ccw"] and report["max_increase"] == "0"


@pytest.mark.parametrize("alg", ["ssw", "medium", "smallbig", "auto", "dp", "brute"])
def test_solve_empty_ring(capsys, empty_ring_file, alg):
    code, out, _ = run_cli(capsys, "solve", "--alg", alg, "-i", empty_ring_file)
    assert code == 0
    report = json.loads(out)
    assert report["dirs"] == [] and report["max_increase"] == "0"
    assert report["loads"] == ["0"] * 5


def test_empty_ring_loads_optimum_and_extend(capsys, empty_ring_file):
    code, out, _ = run_cli(capsys, "loads", "-i", empty_ring_file)
    assert code == 0 and json.loads(out)["max"] == "0"
    code, out, _ = run_cli(capsys, "optimum", "-i", empty_ring_file)
    assert code == 0 and json.loads(out)["optimum_load"] == "0"
    code, _, err = run_cli(capsys, "extend", "-i", empty_ring_file)
    assert code == 0 and "added 0 demands" in err


def test_solve_dp_equals_brute(capsys, fig2_file):
    code, out, _ = run_cli(capsys, "solve", "--alg", "dp", "-i", fig2_file)
    dp = json.loads(out)["max_increase"]
    code, out, _ = run_cli(capsys, "solve", "--alg", "brute", "-i", fig2_file)
    brute = json.loads(out)["max_increase"]
    assert dp == brute == "11"


def _solve_every_way(capsys, path, inst, split) -> tuple[int, int]:
    """Solve the ring with every route that applies, dp and brute; each
    report's increase is at most its crossing performance and brute's is
    the least.  Returns the reports that equal their claim and those checked."""
    path.write_bytes(write_instance(inst, split))
    increases, tight, checked = [], 0, 0
    for alg in ("ssw", "medium", "smallbig", "auto", "dp", "brute"):
        code, out, err = run_cli(capsys, "solve", "--alg", alg, "-i", str(path))
        if code == 1 and alg == "smallbig":
            assert "MediumDemandPresent" in err
            continue
        assert code == 0, err
        report = json.loads(out)
        increases.append(parse_rational(report["max_increase"]))
        if alg != "brute":
            performance = parse_rational(report["crossing_performance"])
            assert increases[-1] <= performance
            tight += increases[-1] == performance
            checked += 1
    assert increases[-1] == min(increases)
    return tight, checked


def test_no_report_exceeds_the_value_its_solver_claims(capsys, tmp_path):
    # Every route that applies, dp and brute on seeded random rings: each
    # report's increase is at most its crossing performance, and often
    # equal, so solve's end check never fires on them; brute's is the least.
    rng = random.Random(5)
    tight = checked = 0
    for k in range(500):
        inst, split = random_ring(rng, max_n=10, max_demands=8)
        ring_tight, ring_checked = _solve_every_way(capsys, tmp_path / f"ring{k}.json", inst, split)
        tight += ring_tight
        checked += ring_checked
    # Seen at this seed: 2080 of 2437 reports equal their claim.
    assert tight >= checked * 3 // 4
    # Few random rings reduce to a crossing form of two demands or more;
    # crossing rings with extra demands keep theirs.
    rng = random.Random(6)
    wide = 0
    for k in range(200):
        cross = random_crossing(rng.randint(4, 12), rng.choice((10, 28, 100)), rng.randrange(1 << 32))
        inst, split = with_extra_demands(*cross.to_ring(), rng, rng.randint(1, 4))
        wide += reduce_to_crossing(inst, split)[0].m >= 4
        _solve_every_way(capsys, tmp_path / f"crossing{k}.json", inst, split)
    # Seen at this seed: 193 of 200 reduce to m >= 4.
    assert wide >= 180


@pytest.mark.parametrize("alg, branch", [("auto", "medium"), ("dp", "dp")])
def test_a_broken_lift_is_caught_not_reported(capsys, monkeypatch, fig2_file, alg, branch):
    # Crossing demand 2 turned around after the route: the lifted routing
    # increases a load by 19, where both solvers' crossing forms claim 11.
    lift = reduction.lift_solution

    def flipped(cross, z):
        dirs = list(lift(cross, z).dirs)
        idx = cross.demand_map[2]
        dirs[idx] = CCW if dirs[idx] == CW else CW
        return UnsplitRouting(tuple(dirs))

    monkeypatch.setattr(reduction, "lift_solution", flipped)
    code, out, err = run_cli(capsys, "solve", "--alg", alg, "-i", fig2_file)
    assert (code, out) == (1, "")
    assert err == f"error: InternalGuaranteeViolation: branch {branch}: increase 19 exceeds its claimed 11\n"


def test_a_broken_bound_is_caught_with_exact_values(capsys, monkeypatch, fig2_file):
    # fig2 takes the medium route, whose bound is 13; a performance one
    # grid unit above it stops the solve.
    monkeypatch.setattr(approx, "performance", lambda pattern: from_int(13) + 1)
    code, out, err = run_cli(capsys, "solve", "--alg", "auto", "-i", fig2_file)
    assert (code, out) == (1, "")
    assert err == ("error: InternalGuaranteeViolation: branch medium: performance 365/28 "
                   "exceeds certified bound 13\n")


def test_three_walks_without_a_close_pair_are_caught(capsys, monkeypatch, tmp_path):
    # A ring whose small/big route ends in a crossover of walk c, with
    # find_close finding no pair: the route has no branch left and stops.
    rng = random.Random(52)
    for _ in range(20000):
        inst, split = random_small_big(rng, rng.randint(2, 12), rng.choice([7, 14, 21, 28, 70])).to_ring()
        cross, _ = reduce_to_crossing(inst, split)
        try:
            if approx.small_big_solve(cross).branch in ("smallbig-ca", "smallbig-cb"):
                break
        except MediumDemandPresent:  # the ring's D is its largest demand, not the draw's
            continue
    path = tmp_path / "ring.json"
    path.write_bytes(write_instance(inst, split))
    monkeypatch.setattr(approx, "find_close", lambda *walks: None)
    with pytest.raises(InternalGuaranteeViolation, match="^no close pair among the three greedy walks$"):
        approx.small_big_solve(cross)
    code, out, err = run_cli(capsys, "solve", "--alg", "smallbig", "-i", str(path))
    assert (code, out) == (1, "")
    assert err == "error: InternalGuaranteeViolation: no close pair among the three greedy walks\n"


@pytest.mark.parametrize("entry", ["5", '"abc"', "null"])
def test_a_demand_that_is_not_an_object_is_a_schema_error(capsys, tmp_path, entry):
    path = tmp_path / "ring.json"
    path.write_text(f'{{"n": 4, "demands": [{entry}]}}')
    code, out, err = run_cli(capsys, "loads", "-i", str(path))
    assert code == 1 and out == ""
    assert err == "error: SchemaError: demand #0: must be an object\n"


@pytest.mark.parametrize("command", ["solve", "loads", "extend", "optimum"])
def test_an_unreadable_instance_path_is_a_one_line_error(capsys, tmp_path, command):
    for path in (tmp_path / "missing.json", tmp_path):  # no file, and a directory
        code, out, err = run_cli(capsys, command, "-i", str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno ")


def test_solve_requires_split(capsys, tmp_path):
    inst, _ = builtin("fig2")
    path = tmp_path / "nosplit.json"
    path.write_bytes(write_instance(inst))
    code, _, err = run_cli(capsys, "solve", "--alg", "auto", "-i", str(path))
    assert code == 1
    assert "split routing" in err


def test_solve_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "demands": [{"i": 1}]}')
    code, _, err = run_cli(capsys, "solve", "--alg", "dp", "-i", str(path))
    assert code == 1
    assert "SchemaError" in err


def test_non_utf8_file_is_a_syntax_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 4, "demands": [], "note": "caf\xe9"}')
    code, out, err = run_cli(capsys, "solve", "--alg", "auto", "-i", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: InstanceSyntaxError:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "loads", "optimum"])
@pytest.mark.parametrize("text, expected", [
    ("[" * 100_000 + "]" * 100_000, "error: InstanceSyntaxError: values nested too deeply"),
    ('{"n": 100000000000000000000, "demands": []}', "error: NodeOutOfRange: ring must have at most"),
    ('{"n": 1000000000000000, "demands": []}', "error: MemoryError: out of memory"),
], ids=["deep-nesting", "huge-n", "n-beyond-memory"])
def test_oversized_documents_are_a_one_line_error(capsys, tmp_path, command, text, expected):
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "-i", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(expected)


@pytest.mark.parametrize("d, cw, expected", [
    ("1" * 5000, "1", "error: SchemaError: a number has more than 4300 digits"),
    ("2", "1e" + "1" * 5000, "error: SchemaError: a number has more than 4300 digits"),
    ("2", "0e50000000", "2"),
    ("2", "5" + "0" * 4000 + "e-4001", "3/2"),
    ("2", "1e-50000000", "error: SchemaError: demand #0: 'cw' must be an integer or half-integer"),
    ("2", "1e5000000", "error: SplitExceedsDemand:"),
    ("2", "1e50000000", "error: SplitExceedsDemand:"),
    ("2", "-1.5e50000000", "error: SplitExceedsDemand:"),
], ids=["long-d", "long-exponent", "zero", "half", "tiny", "huge", "huger", "negative"])
def test_number_literals_are_decided_at_once(capsys, tmp_path, d, cw, expected):
    # A power of ten as long as an exponent would take seconds to build.
    path = tmp_path / "ring.json"
    path.write_text(f'{{"n": 4, "demands": [{{"i": 1, "j": 3, "d": {d}, "cw": {cw}}}]}}')
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "loads", "-i", str(path))
    assert time.perf_counter() - started < 1.0
    if expected.startswith("error:"):
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(expected)
    else:
        assert code == 0 and json.loads(out)["max"] == expected


@pytest.mark.parametrize("argv", [("loads",), ("solve", "--alg", "auto"),
                                  ("solve", "--alg", "brute"), ("extend",)],
                         ids=["loads", "auto", "brute", "extend"])
def test_outputs_past_the_digit_limit_are_exact(capsys, tmp_path, argv):
    # Two 4300-digit demands, the longest the parser reads, put twice that,
    # 2 * (10^4300 - 1), a number of 4301 digits, on edges 1 and 2.
    nines, twice = "9" * 4300, "1" + "9" * 4299 + "8"
    demand = f'{{"i": 1, "j": 3, "d": {nines}, "cw": {nines}}}'
    path = tmp_path / "ring.json"
    path.write_text(f'{{"n": 4, "demands": [{demand}, {demand}]}}')
    code, out, err = run_cli(capsys, *argv, "-i", str(path))
    assert code == 0 and len(err.splitlines()) == 1
    if argv[0] == "extend":
        assert f'"d": {twice},\n   "cw": {twice}\n' in out
        assert f'"d": {twice},\n   "cw": 0\n' in out
    else:
        assert f'"{twice}",\n  "{twice}",\n  "0",\n  "0"\n' in out


def _ring(*demands):
    """A 4-node ring document of (i, j, d) or (i, j, d, cw) entries."""
    return json.dumps({"n": 4, "demands": [dict(zip(("i", "j", "d", "cw"), entry))
                                           for entry in demands]})


SEARCH_8 = ("search", "--m", "8", "--d", "10", "--threshold", "11")


@pytest.mark.parametrize("doc, argv, cap, code, line", [
    (_ring((1, 3, 2)), ("solve", "--alg", "auto"), None, 1,
     "RingLoadingError: {path}: a split routing ('cw' fields) is required"),
    (_ring((1, 3, -2, 1)), ("solve", "--alg", "auto"), None, 1,
     "NegativeDemand: demand #0 has negative value"),
    (_ring((1, 5, 2, 1)), ("solve", "--alg", "auto"), None, 1,
     "NodeOutOfRange: demand #0 endpoints (1,5) violate 1 <= i < j <= 4"),
    ('{"n": 4, "demands": [{"i": 1, "j": 3, "cw": 1}]}', ("solve", "--alg", "auto"), None, 1,
     "SchemaError: demand #0: missing field 'd'"),
    ('{"n": 4, "demands": [', ("solve", "--alg", "auto"), None, 1,
     "InstanceSyntaxError: Expecting value: line 1 column 22 (char 21)"),
    (_ring((1, 3, 2, 3)), ("solve", "--alg", "auto"), None, 1,
     "SplitExceedsDemand: demand #0: clockwise amount outside [0, d]"),
    (_ring((1, 3, 10, 5), (2, 4, 5, 2)), ("solve", "--alg", "smallbig"), None, 1,
     "MediumDemandPresent: demand #1 is of medium size"),
    (_ring((1, 3, 10**8, 10**8 // 2), (2, 4, 2, 1)), ("solve", "--alg", "dp"), None, 1,
     "TooLargeForDP: the DP's start bound of 150000000 grid units exceeds its limit of 16777216"),
    (None, ("gen", "--m", "1", "--d", "2", "--seed", "1"), None, 1,
     "InfeasibleParams: a ring needs at least 3 nodes; m must be >= 2"),
    (None, SEARCH_8, None, 1,
     "RingLoadingError: the m=8, D=10 family has 2562890625 members; pass --full to scan "
     "them all, or --shard I/N for one slice"),
    (None, ("search", "--m", "7", "--d", "10", "--threshold", "11", "--shard", "0/1"), None, 1,
     "InfeasibleParams: structured family needs even m >= 2 and even D >= 2"),
    (None, (*SEARCH_8, "--shard", "0/1", "--full"), None, 2,
     "InvalidSetting: --shard and --full exclude each other; pass one of them"),
    (_ring((1, 3, 2), (2, 4, 2)), ("optimum",), "1", 1,
     "TooManyDemands: 2 nonzero demands exceed the cap of 1"),
], ids=["no-split", "negative-d", "j-beyond-n", "missing-d", "truncated-json", "cw-above-d",
        "medium-demand", "dp-too-large", "gen-infeasible", "search-no-scan", "search-odd-m",
        "search-shard-and-full", "brute-cap"])
def test_every_error_is_one_exact_line(capsys, tmp_path, monkeypatch, doc, argv, cap, code,
                                       line):
    # Each fault the CLI reports is one stderr line naming the error's class,
    # its exit code is 2 for a usage error and 1 otherwise, and stdout stays empty.
    path = tmp_path / "ring.json"
    if doc is not None:
        path.write_text(doc)
        argv = (*argv, "-i", str(path))
    if cap is not None:
        monkeypatch.setenv("RINGLOAD_BRUTE_CAP", cap)
    assert run_cli(capsys, *argv) == (code, "", f"error: {line.format(path=path)}\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])  # missing -i
    assert excinfo.value.code == 2


def run_main(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SEARCH_2_4 = ("search", "--m", "2", "--d", "4", "--threshold", "1")
ONE_PROCESS_COMMANDS = [
    ("solve",),  # missing -i
    ("verify", "fig6"),
    (*SEARCH_2_4, "--shard", "0/1"),
    (*SEARCH_2_4, "--full", "--jobs", "1"),  # --shard from the call before must not stay
    (*SEARCH_2_4, "--shard", "0/1"),  # nor --full and --jobs
    (*SEARCH_2_4, "--full", "--jobs", "0"),
    ("search", "--help"),
    ("gen", "--m", "3", "--d", "4", "--seed", "5"),
]


def test_the_cached_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    cached = [run_main(capsys, argv) for argv in ONE_PROCESS_COMMANDS]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_main(capsys, argv) for argv in ONE_PROCESS_COMMANDS]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 2, 0, 0]
    assert "the following arguments are required: -i/--instance" in cached[0][2]
    assert cached[2][1] and cached[3][1] == cached[2][1] == cached[4][1]


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    run_main(capsys, ("verify", "fig6"))
    first = len(built)
    for argv in ONE_PROCESS_COMMANDS:
        run_main(capsys, argv)
    assert built.count("ringload") == 1 and len(built) == first


def test_loads_command(capsys, fig2_file):
    code, out, _ = run_cli(capsys, "loads", "-i", fig2_file)
    assert code == 0
    report = json.loads(out)
    assert report["max"] == "37"
    assert report["loads"][1] == "37"


def test_verify_fig6(capsys):
    code, out, _ = run_cli(capsys, "verify", "fig6")
    assert code == 0
    report = json.loads(out)
    assert report["min_increase"] == "11"
    assert report["passes"] is True


@pytest.mark.parametrize("name", ["fig6", "all"])
def test_a_transcription_error_is_a_failed_check(capsys, monkeypatch, name):
    # The built-ins are data; verify alone checks their recorded facts, so
    # one wrong pair in fig6's table is a failed check, not a traceback.
    pairs = list(instances._CROSSING_VU["fig6"])
    pairs[1] = (3, 5)  # was (3, 7)
    monkeypatch.setitem(instances._CROSSING_VU, "fig6", tuple(pairs))
    builtin.cache_clear()
    try:
        code, out, err = run_cli(capsys, "verify", name)
    finally:
        builtin.cache_clear()
    report = json.loads(out)
    if name == "all":
        assert report["passes"] is False
        report = report["reports"][instances.BUILTIN_NAMES.index("fig6")]
    assert report["checks"]["min_increase"]["pass"] is False
    assert report["passes"] is False
    assert code == 1
    assert err == "some checks FAILED\n"


def test_verify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "fig2")
    _, second, _ = run_cli(capsys, "verify", "fig2")
    assert first == second


def test_verify_fig7_reports_the_known_gap(capsys):
    # fig7's optimum unsplittable load is 46, proved in criterion 5.
    code, out, _ = run_cli(capsys, "verify", "fig7")
    report = json.loads(out)
    assert report["checks"]["loads_uniform"]["pass"] is True
    assert report["checks"]["split_optimum"]["pass"] is True
    assert report["checks"]["optimum_load"]["actual"] == "46"
    assert report["checks"]["optimum_load"]["pass"] is True
    assert report["passes"] is True
    assert code == 0


def test_gen_structured_round_trips(capsys):
    code, out, err = run_cli(capsys, "gen", "--m", "6", "--d", "10",
                             "--seed", "3", "--structured")
    assert code == 0
    from ringload.fileio import parse_instance

    inst, split = parse_instance(out)
    assert inst.n == 12 and split is not None
    code2, out2, _ = run_cli(capsys, "gen", "--m", "6", "--d", "10",
                             "--seed", "3", "--structured")
    assert out2 == out  # deterministic in the seed


@pytest.mark.parametrize("argv, expected", [
    (("--m", "1", "--d", "4"), "a ring needs at least 3 nodes; m must be >= 2"),
    (("--m", "2", "--d", "2", "--structured"), "cannot reach an odd clockwise total"),
], ids=["one-pair", "no-odd-total"])
def test_gen_without_an_instance_is_a_one_line_error(capsys, argv, expected):
    code, out, err = run_cli(capsys, "gen", "--seed", "1", *argv)
    assert code == 1 and out == ""
    assert err == f"error: InfeasibleParams: {expected}\n"


@pytest.mark.parametrize("flags", [(), ("--structured",)], ids=["random", "structured"])
def test_gen_beyond_memory_is_a_one_line_error(capsys, flags):
    # The m pairs are allocated at once, so the allocation fails before any work.
    code, out, err = run_cli(capsys, "gen", "--m", "1000000000000000", "--d", "4",
                             "--seed", "1", *flags)
    assert code == 1 and out == ""
    assert err == "error: MemoryError: out of memory\n"


@pytest.mark.parametrize("flags", [(), ("--structured",)], ids=["random", "structured"])
def test_gen_beyond_sys_maxsize_is_a_one_line_error(capsys, flags):
    # m is checked before the m pairs are allocated.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen", "--m", str(sys.maxsize + 1), "--d", "4",
                                 "--seed", "1", *flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: InfeasibleParams: need m <= sys.maxsize = {sys.maxsize}\n"
    assert peak < 2**20


def test_extend_command(capsys, fig2_file):
    code, out, err = run_cli(capsys, "extend", "-i", fig2_file)
    assert code == 0
    assert "added 14 demands" in err
    from ringload.fileio import parse_instance

    inst, split = parse_instance(out)
    assert len(inst.demands) == 22


def test_optimum_command(capsys, tmp_path):
    inst, split = builtin("fig1")
    path = tmp_path / "fig1.json"
    path.write_bytes(write_instance(inst, split))
    code, out, _ = run_cli(capsys, "optimum", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["optimum_load"] == "4"
    assert no_floats(report)


def test_search_pins_the_hit_dense_band_shard(capsys):
    # m=12, D=40 at threshold 21: about one index in a hundred is a hit, and
    # each hit's value comes from a sweep of block screens over odd t.
    code, out, _ = run_cli(capsys, "search", "--m", "12", "--d", "40", "--threshold", "21",
                           "--shard", "5500000000000000000/7000000000000000000")
    assert code == 0
    assert out.count("\n") == 20419
    digest = "2153fc5ce19e7f680b94047afabf3f45d6d29fce336fd9add07f617e7447d748"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_requires_full_or_shard(capsys):
    code, _, err = run_cli(capsys, "search", "--m", "8", "--d", "10",
                           "--threshold", "11")
    assert code == 1
    assert "--full" in err
    assert "2562890625 members" in err and "hours" not in err


def test_search_family_sizes_print_up_to_the_bound(capsys):
    # Every family a scan accepts has a size that prints: 12^128 at m=256,
    # D=4, and (724^2 1447)^128, of 1137 digits, at the bounds.
    code, _, err = run_cli(capsys, "search", "--m", "256", "--d", "4", "--threshold", "3")
    assert code == 1 and f"has {12**128} members" in err
    largest = (724**2 * 1447) ** 128
    code, _, err = run_cli(capsys, "search", "--m", "256", "--d", "1448", "--threshold", "3")
    assert code == 1 and f"has {largest} members" in err and len(str(largest)) == 1137


GIANT_M = "2" * 2200  # 64 m^2, in the message, has more digits than str prints


@pytest.mark.parametrize("m, d, scan", [
    ("258", "2", ("--shard", "0/1")),
    ("100000000000000000000", "2", ("--shard", "0/1")),
    ("100000000000000000000", "2", ("--full", "--jobs", "2")),
    (GIANT_M, "2", ("--shard", "0/1")),
    (GIANT_M, "2", ("--full", "--jobs", "2")),
    ("20000", "4", ()),
    ("100000000000000000000", "4", ("--shard", "0/1")),
], ids=["past-the-bound", "huge-shard", "huge-full", "giant-shard", "giant-full",
        "size-message", "huge-family-shard"])
def test_search_beyond_the_table_bound_is_a_one_line_error(capsys, monkeypatch, m, d, scan):
    # A D=2 family has one member at any m, yet its (2m, 4m) symmetry
    # tables grow as m^2: they must be refused before they are built, and
    # the family's size, 12^(5 10^19) at m=10^20, D=4, is never computed.
    def built(*args):
        raise AssertionError("the symmetry tables were built")

    def size(family):
        raise AssertionError("the size was computed")

    monkeypatch.setattr(search, "symmetry_orbit", built)
    monkeypatch.setattr(search.StructuredFamily, "size", property(size))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "search", "--m", m, "--d", d, "--threshold", "3", *scan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: InfeasibleParams: a scan needs m <= 256: at m={m} ")
    assert err.endswith(" bytes\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("scan", [("--shard", "0/1000000"), ("--full",), ()],
                         ids=["shard", "full", "size-message"])
def test_search_past_the_d_limit_is_a_one_line_error(capsys, scan):
    # The free-pair table has (D/2)^2 rows: 2.5e11 at D = 10^6.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "search", "--m", "2", "--d", "1000000",
                                 "--threshold", "3", *scan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: InfeasibleParams: a scan needs D <= 1448: at D=1000000 ")
    assert peak < 1 << 20


def test_search_table_bound_admits_m_256(monkeypatch):
    # Past the bounds the family refuses; within them _scan goes on to
    # build the symmetry tables, here stopped at their first step.
    def built(*args):
        raise AssertionError("the symmetry tables were built")

    monkeypatch.setattr(search, "symmetry_orbit", built)
    for m, D in ((256, 2), (2, 1448)):
        with pytest.raises(AssertionError, match="were built"):
            search._scan(m, D)
    for m, D, message in (
        (258, 2, "a scan needs m <= 256: at m=258 each of its two symmetry tables would take "
                 "4260096 bytes"),
        (2, 1450, "a scan needs D <= 1448: at D=1450 its free-pair table would take 4205000 bytes"),
    ):
        with pytest.raises(InfeasibleParams) as refused:
            search._scan(m, D)
        assert str(refused.value) == message


@pytest.mark.parametrize("options", [
    ("--shard", "0/3", "--full"),
    ("--shard", "0/3", "--full", "--checkpoint-dir", "ckpt"),
    ("--shard", "0/3", "--jobs", "2"),
])
def test_search_conflicting_options_are_usage_errors(capsys, tmp_path, monkeypatch, options):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "search", "--m", "2", "--d", "4",
                             "--threshold", "1", *options)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: InvalidSetting:")
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("argv, expected", [
    (("--threshold", "1", "--shard", "abc"), 2),
    (("--threshold", "1", "--shard", "1"), 2),
    (("--threshold", "x", "--shard", "0/1"), 2),
    (("--threshold", "1/3", "--shard", "0/1"), 2),
    (("--threshold", "21/2", "--shard", "0/1"), 2),
    (("--threshold", "7", "--full", "--jobs", "0"), 2),
    (("--threshold", "7", "--full", "--jobs", "x"), 2),
    (("--threshold", "1", "--shard", "0/0"), 1),
])
def test_search_argument_errors_exit_without_traceback(capsys, argv, expected):
    try:
        code = main(["search", "--m", "2", "--d", "4", *argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("ringload search: error:" if expected == 2 else "error:")


@pytest.mark.parametrize("content", [b"12\nab", b"12\n\xff\xfe\n"])
def test_search_corrupt_checkpoint_is_a_one_line_error(capsys, tmp_path, content):
    checkpoint = tmp_path / "m8-d10-t11-shard-0-of-4000000.txt"
    checkpoint.write_bytes(content)
    code, out, err = run_cli(capsys, "search", "--m", "8", "--d", "10", "--threshold", "11",
                             "--shard", "0/4000000", "--checkpoint-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: SchemaError:")
    assert checkpoint.read_bytes() == content


def test_an_empty_checkpoint_is_a_one_line_error(capsys, tmp_path):
    # Every save ends in an index, so an empty file is none of the shard's;
    # it is not read as the shard's start, and it is left as it is.
    checkpoint = tmp_path / "m2-d4-t3-shard-0-of-1.txt"
    checkpoint.write_bytes(b"")
    code, out, err = run_cli(capsys, "search", "--m", "2", "--d", "4", "--threshold", "3",
                             "--shard", "0/1", "--checkpoint-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: SchemaError:")
    assert checkpoint.read_bytes() == b""


# Hit records of the m=4, D=8 family at threshold 5: the first two of shard 1/2
# (indices 6272 and 6273, where the shard starts) and one of shard 0/2.
FIRST = '{"pairs": [[1, 1], [7, 1], [1, 5], [4, 4]], "min_increase": "5"}'
SECOND = '{"pairs": [[3, 1], [7, 1], [1, 5], [4, 4]], "min_increase": "5"}'
OTHER = '{"pairs": [[3, 1], [5, 3], [2, 2], [7, 1]], "min_increase": "5"}'
BELOW = FIRST.replace('"5"', '"4"')  # under the threshold
ABOVE = OTHER.replace('"5"', '"12"')  # above its minimum increase, 5
EVEN = '{"pairs": [[1, 1], [7, 1], [1, 1], [7, 1]], "min_increase": "7"}'  # not a member
IMAGE = '{"pairs": [[3, 1], [1, 7], [2, 2], [3, 5]], "min_increase": "5"}'  # OTHER's, index 7489
# Index 224 of shard 0/2, of minimum increase 3, recorded at the threshold.
UNDER = '{"pairs": [[1, 1], [7, 1], [2, 2], [7, 1]], "min_increase": "5"}'


@pytest.mark.parametrize("shard, content", [*(("1/2", content) for content in [
    f"{FIRST}\nnot a record\n6300\n",
    f"{FIRST.replace(', ', ',')}\n6300\n",
    f"{FIRST.replace('[4, 4]', '[4, 4], [4, 4]')}\n6300\n",
    f"{FIRST.replace(', [4, 4]', '')}\n6300\n",
    f"{FIRST.replace('[7, 1]', '[07, 1]')}\n6300\n",
    f"{FIRST.replace('[[1, 1]', '[[2, 1]')}\n6300\n",
    f"{FIRST.replace('[1, 5]', '[5, 5]')}\n6300\n",
    f"{OTHER}\n6300\n",
    f"{FIRST}\n{SECOND}\n6272\n",
    f"{BELOW}\n6300\n",
    f"{FIRST}\n12544\n",
    f"{FIRST}\n6270\n",
    *(f"{FIRST}\n{SECOND}\n{index}\n"
      for index in ("+6273", " 6273", "06273", "6_273", "0_6_2_7_3")),
]), ("0/2", f"{EVEN}\n100\n"),
    ("0/1", f"{IMAGE}\n7489\n"),
    ("0/2", f"{OTHER}\n{OTHER}\n257\n"),
    ("0/2", f"{ABOVE}\n257\n"),
    ("0/2", f"{UNDER}\n257\n"),
], ids=["garbage", "no-spaces", "extra-pair", "short", "leading-zero", "odd-free-pair",
        "free-pair-past-D", "other-shard",
        "past-cursor", "below-threshold", "cursor-past-shard", "cursor-before-shard",
        "index-plus", "index-space", "index-leading-zero", "index-underscore",
        "index-underscores", "even-total", "noncanonical-image", "repeated-record",
        "above-minimum", "below-minimum"])
def test_search_checkpoint_records_are_checked(capsys, tmp_path, shard, content):
    # Each content is one that no scan of the shard writes.
    search_args = ("search", "--m", "4", "--d", "8", "--threshold", "5", "--shard")
    checkpoint = tmp_path / f"m4-d8-t5-shard-{shard.replace('/', '-of-')}.txt"
    checkpoint.write_text(content)
    code, out, err = run_cli(capsys, *search_args, shard, "--checkpoint-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: SchemaError:")
    assert checkpoint.read_text() == content
    # The two records with the index of the second resume the shard 1/2.
    search_args += ("1/2",)
    checkpoint = tmp_path / "m4-d8-t5-shard-1-of-2.txt"
    checkpoint.write_text(f"{FIRST}\n{SECOND}\n6273\n")
    resumed = run_cli(capsys, *search_args, "--checkpoint-dir", str(tmp_path))
    assert resumed == run_cli(capsys, *search_args)
    assert resumed[1].startswith(f"{FIRST}\n{SECOND}\n")


@pytest.mark.parametrize("scan", [("--shard", "0/1"), ("--full",)])
def test_an_interrupted_search_prints_every_hit_on_resume(capsys, tmp_path, monkeypatch, scan):
    search_args = ("search", "--m", "4", "--d", "8", "--threshold", "5", *scan)
    fresh = run_cli(capsys, *search_args)
    assert fresh[2].startswith("661 sequence(s)")
    # Every valued row of this family is a hit; fail before passing half of them.
    monkeypatch.setattr(search, "_CHECKPOINT_STEP", 4096)
    fail_after(monkeypatch, 330)
    with pytest.raises(Interrupted):
        main([*search_args, "--checkpoint-dir", str(tmp_path)])
    capsys.readouterr()
    kept = sum(len(path.read_text().splitlines()) - 1 for path in tmp_path.iterdir())
    assert 0 < kept <= 330
    resumed = fail_after(monkeypatch, 661)
    assert run_cli(capsys, *search_args, "--checkpoint-dir", str(tmp_path)) == fresh
    assert resumed == record_pairs(fresh[1])  # the kept by the resume, then the rest, once each


def test_full_search_with_jobs_keeps_checkpoints(capsys, tmp_path):
    search_args = ("search", "--m", "4", "--d", "6", "--threshold", "4", "--full")
    fresh = run_cli(capsys, *search_args)
    assert fresh[1]
    for _ in range(2):  # the second run resumes finished shards
        with_jobs = run_cli(capsys, *search_args, "--jobs", "2", "--checkpoint-dir", str(tmp_path))
        assert with_jobs == fresh
    assert len(list(tmp_path.glob("m4-d6-t4-shard-*-of-*.txt"))) == search._SHARDS


def test_search_shard_emits_json_lines(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--d", "4",
                           "--threshold", "1", "--shard", "0/1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records, "the tiny family has hits at threshold 1"
    for record in records:
        assert set(record) == {"pairs", "min_increase"}
        assert no_floats(record)


def test_a_checkpoint_is_resumed_only_by_its_own_search(capsys, tmp_path):
    shard = ("--threshold", "1", "--shard", "0/1", "--checkpoint-dir", str(tmp_path / "ck"))
    code, _, _ = run_cli(capsys, "search", "--m", "2", "--d", "4", *shard)
    assert code == 0
    code, out, err = run_cli(capsys, "search", "--m", "2", "--d", "6", *shard)
    assert code == 0
    _, fresh, fresh_err = run_cli(capsys, "search", "--m", "2", "--d", "6",
                                  "--threshold", "1", "--shard", "0/1")
    assert (out, err) == (fresh, fresh_err)
    assert err.startswith("6 sequence(s)")


@pytest.mark.parametrize("argv, checks", [
    (("solve", "--alg", "auto"), 2),
    (("solve", "--alg", "brute"), 2),
    (("loads",), 1),
])
def test_a_command_checks_its_split_where_it_enters(capsys, tmp_path, monkeypatch,
                                                     argv, checks):
    # Once in parse_instance, and once more at a solver's entry.
    inst, split = random_ring(random.Random(0))
    assert len(inst.demands) == 6
    path = tmp_path / "ring.json"
    path.write_bytes(write_instance(inst, split))
    calls = []

    def counted(check):
        def wrapper(*args):
            calls.append(args)
            return check(*args)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ringload" and hasattr(module, "validate_instance"):
            monkeypatch.setattr(module, "validate_instance", counted(module.validate_instance))
    code, _, _ = run_cli(capsys, *argv, "-i", str(path))
    assert code == 0
    assert len(calls) == checks
    assert all(args == (inst, split) for args in calls)


def test_solve_sums_loads_only_for_its_report(capsys, tmp_path, monkeypatch):
    # One pass over all k demands for both load vectors of the report, the
    # split's and the routing's, and no other: the reduction sums no loads,
    # though a demand is still split after uncrossing.
    inst, split = random_ring(random.Random(0))
    k, m = len(inst.demands), reduce_to_crossing(inst, split)[0].m
    assert 0 < m < k
    path = tmp_path / "ring.json"
    path.write_bytes(write_instance(inst, split))
    counts = []

    def counted_paths(n, i, j, cw, ccw):
        counts.append(len(i))
        return path_loads(n, i, j, cw, ccw)

    def counted_pass(ring, split, unsplit):
        counts.append(len(ring.d))
        return split_and_unsplit_loads(ring, split, unsplit)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ringload":
            for attr, counted in (("path_loads", counted_paths),
                                  ("split_and_unsplit_loads", counted_pass)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counted)
    code, _, _ = run_cli(capsys, "solve", "--alg", "auto", "-i", str(path))
    assert code == 0
    assert counts == [k]


def test_search_full_small_family(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--d", "4",
                           "--threshold", "7", "--full")
    assert code == 0
    assert out.strip() == ""


def test_search_with_a_huge_threshold_finds_nothing_at_once(capsys):
    code, out, err = run_cli(capsys, "search", "--m", "2", "--d", "4",
                             "--threshold", "99999999999999999999", "--shard", "0/1")
    assert code == 0
    assert out == ""
    assert err.startswith("0 sequence(s)") and "Traceback" not in err


def test_search_with_a_huge_negative_threshold_keeps_every_member(capsys, tmp_path, monkeypatch):
    # Every t < 0 screens alike, so the output is that of threshold 1, and
    # a rerun resumes the finished shard from its checkpoint, where it
    # values only the kept records.
    _, expected, _ = run_cli(capsys, *SEARCH_2_4, "--shard", "0/1")
    assert expected
    low = ("search", "--m", "2", "--d", "4", "--threshold", "-99999999999999999999999")
    assert run_cli(capsys, *low, "--shard", "0/1")[:2] == (0, expected)
    shard = ("--shard", "0/1", "--checkpoint-dir", str(tmp_path))
    assert run_cli(capsys, *low, *shard)[:2] == (0, expected)
    valued = fail_after(monkeypatch, len(expected.splitlines()))
    assert run_cli(capsys, *low, *shard)[:2] == (0, expected)
    assert valued == record_pairs(expected)
    assert len(list(tmp_path.iterdir())) == 1


@pytest.mark.parametrize("argv", [
    *(("solve", "--alg", alg, "-i", ring)
      for alg in ("ssw", "medium", "smallbig", "auto", "dp", "brute")
      for ring in ("fig1", "empty")),
    *(("solve", "--alg", alg, "-i", "half") for alg in ("ssw", "medium", "auto", "dp", "brute")),
    ("loads", "-i", "half"),
    ("loads", "-i", "empty"),
    ("optimum", "-i", "half"),
    ("optimum", "-i", "empty"),
    ("verify", "all"),
    ("verify", "fig2"),
], ids=lambda argv: "-".join(argv))
def test_reports_are_written_as_json_dumps_writes_them(capsys, tmp_path, monkeypatch, argv):
    # Every report, nested dicts, booleans, int lists and empty lists
    # included, is byte for byte json.dumps(report, indent=1) and a newline.
    rings = {
        "fig1": builtin("fig1"),
        "empty": (RingInstance(5, ()), SplitRouting(())),
        "half": random_ring(random.Random(11), max_demands=8),  # loads in halves
    }
    for name, (inst, split) in rings.items():
        (tmp_path / f"{name}.json").write_bytes(write_instance(inst, split))
    argv = [str(tmp_path / f"{arg}.json") if arg in rings else arg for arg in argv]
    reports = []
    emit = cli._emit

    def recorded(report, summary):
        reports.append(json.dumps(report, indent=1) + "\n")
        emit(report, summary)

    monkeypatch.setattr(cli, "_emit", recorded)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(reports) == 1
    assert out == reports[0]


def test_brute_force_and_optimum_beyond_int64(capsys, tmp_path):
    # Scaled by 28, d = 10^21 is far beyond int64; the sums stay exact.
    big = 10**21
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 4, "demands": [
        {"i": 1, "j": 3, "d": big, "cw": big // 2},
        {"i": 2, "j": 4, "d": 2, "cw": 1},
    ]}))
    code, out, err = run_cli(capsys, "solve", "--alg", "brute", "-i", str(path))
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["max_increase"] == str(big // 2 + 1)
    assert max(map(int, report["loads"])) == big + 2
    code, out, err = run_cli(capsys, "optimum", "-i", str(path))
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["optimum_load"] == str(big + 2)


def test_dp_beyond_its_limit_is_a_one_line_error(capsys, tmp_path):
    # The second ring's start bound, 3 (10^4300 - 1) / 2 rounded up, has
    # 4301 digits, more than str prints.
    path = tmp_path / "big.json"
    for big, cw in ((10**21, 10**21 // 2), ("9" * 4300, 1)):
        path.write_text(f'{{"n": 4, "demands": [{{"i": 1, "j": 3, "d": {big}, "cw": {cw}}},'
                        ' {"i": 2, "j": 4, "d": 2, "cw": 1}]}')
        code, out, err = run_cli(capsys, "solve", "--alg", "dp", "-i", str(path))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: TooLargeForDP: ")
    assert f"start bound of 14{'9' * 4299} grid units" in err


def test_optimum_matches_its_own_loads_near_the_int64_limit(capsys, tmp_path):
    path = tmp_path / "near.json"
    path.write_text('{"n": 4, "demands": [{"i": 1, "j": 3, "d": 100000000000000000},'
                    ' {"i": 2, "j": 4, "d": 2}]}')
    code, out, _ = run_cli(capsys, "optimum", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["optimum_load"] == "100000000000000002"
    assert report["optimum_load"] == max(report["loads"], key=int)


def test_brute_cap_env_override(capsys, monkeypatch, fig2_file):
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "4")
    code, _, err = run_cli(capsys, "solve", "--alg", "brute", "-i", fig2_file)
    assert code == 1
    assert "TooManyDemands" in err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "+4", " 4", "1e3"])
@pytest.mark.parametrize("command", [("solve", "--alg", "brute"), ("optimum",)])
def test_brute_cap_must_be_a_non_negative_integer(
    capsys, monkeypatch, fig2_file, empty_ring_file, value, command
):
    # The empty ring too: no demand can exceed a cap, but the setting is still wrong.
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", value)
    for path in (fig2_file, empty_ring_file):
        code, out, err = run_cli(capsys, *command, "-i", path)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "RINGLOAD_BRUTE_CAP" in err


def test_brute_cap_of_any_length(capsys, monkeypatch, fig2_file):
    # Leading zeros do not count, and a value past int()'s digit limit is
    # larger than any ring's demand count.
    monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "0" * 4999 + "4")
    code, out, err = run_cli(capsys, "solve", "--alg", "brute", "-i", fig2_file)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "TooManyDemands" in err
    for command in (("solve", "--alg", "brute"), ("optimum",)):
        monkeypatch.delenv("RINGLOAD_BRUTE_CAP")
        expected = run_cli(capsys, *command, "-i", fig2_file)
        monkeypatch.setenv("RINGLOAD_BRUTE_CAP", "1" + "0" * 4999)
        code, out, _ = run_cli(capsys, *command, "-i", fig2_file)
        assert code == 0 and out == expected[1]


def _fresh_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])})


def test_only_the_exact_and_search_commands_load_numpy(tmp_path):
    # solve on every approx route, loads, gen and extend are integer
    # arithmetic; numpy comes in with the first command that needs exact,
    # which solve --alg dp shows, so the first check cannot pass vacuously.
    code = textwrap.dedent("""\
    import contextlib, io, sys
    import ringload
    from ringload import approx, cli, fileio, instances

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
        return out.getvalue()

    fig1, fig6, ring = sys.argv[1:]
    for name, path in (("fig1", fig1), ("fig6", fig6)):
        with open(path, "wb") as handle:
            handle.write(fileio.write_instance(*instances.builtin(name)))
    with open(ring, "w") as handle:
        handle.write(run("gen", "--m", "4", "--d", "6", "--seed", "1"))
    for route in approx.ROUTES:
        run("solve", "--alg", route, "-i", fig1 if route == "smallbig" else fig6)
    run("loads", "-i", ring)
    run("extend", "-i", ring)
    print("numpy" in sys.modules)
    run("solve", "--alg", "dp", "-i", ring)
    print("numpy" in sys.modules)
    """)
    paths = [str(tmp_path / name) for name in ("fig1.json", "fig6.json", "ring.json")]
    out = _fresh_python("-c", code, *paths)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == ["False", "True"]


# What the package never needs to load: dataclasses and inspect come with
# records whose methods are generated, decimal and fractions with scaled's
# two rare calls.  Each check is against the modules the interpreter had
# loaded before, since site may load some of them (typing, through a .pth
# file, say).
_NEVER_LOADED = {"dataclasses", "inspect", "decimal", "fractions"}


def test_importing_ringload_loads_none_of_its_modules():
    # Every public name and submodule resolves on first use.
    code = textwrap.dedent("""\
    import sys
    before = set(sys.modules)
    import ringload
    print(*sorted(set(sys.modules) - before))
    """)
    out = _fresh_python("-c", code)
    assert (out.returncode, out.stderr) == (0, "")
    added = set(out.stdout.split())
    assert "ringload" in added
    assert {name for name in added if name.startswith("ringload.")} == set()
    assert added & (_NEVER_LOADED | {"typing"}) == set()


def test_the_numpy_free_commands_load_only_what_they_run(tmp_path):
    code = textwrap.dedent("""\
    import sys
    before = set(sys.modules)
    import contextlib, io
    from ringload import cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
        return out.getvalue()

    ring = sys.argv[1]
    with open(ring, "w") as handle:
        handle.write(run("gen", "--m", "6", "--d", "10", "--seed", "1"))
    run("solve", "--alg", "auto", "-i", ring)
    run("loads", "-i", ring)
    run("extend", "-i", ring)
    print(*sorted(set(sys.modules) - before))
    """)
    out = _fresh_python("-c", code, str(tmp_path / "ring.json"))
    assert (out.returncode, out.stderr) == (0, "")
    added = set(out.stdout.split())
    assert {"ringload.approx", "ringload.fileio", "ringload.instances"} <= added
    assert added & (_NEVER_LOADED | {"numpy", "ringload.exact", "ringload.search"}) == set()


def test_reading_one_name_loads_its_module_alone():
    code = textwrap.dedent("""\
    import sys
    import ringload
    ringload.parse_instance
    print("ringload.fileio" in sys.modules, "ringload.approx" in sys.modules)
    """)
    out = _fresh_python("-c", code)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == ["True", "False"]


def test_a_fresh_search_with_two_jobs_prints_what_one_job_prints():
    # The pool's workers import the search module themselves.
    argv = ("-m", "ringload", "search", "--m", "2", "--d", "4", "--threshold", "3", "--full")
    one, two = (_fresh_python(*argv, "--jobs", jobs) for jobs in ("1", "2"))
    assert (two.returncode, two.stdout, two.stderr) == (one.returncode, one.stdout, one.stderr)
    assert one.returncode == 0 and len(one.stdout.splitlines()) == 2

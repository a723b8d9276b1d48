"""Command-line front end.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 success, 1 validation or verification failure, 2 usage
error (bad arguments, conflicting search options, or a malformed
RINGLOAD_BRUTE_CAP).  Every numeric value in a report is an exact
rational string.  The parser is built once per process (build_parser is
cached), so callers that run main many times in one process, as the tests
and the benchmark do, only parse their arguments.

Only the exact solvers and the search use numpy, so their modules are
imported inside the commands that run them: verify, optimum, search and
solve --alg dp|brute.  solve on any other route, loads, gen and extend
never load numpy.

Commands:

  solve --alg {ssw|medium|smallbig|auto|dp|brute} -i FILE
  loads -i FILE
  verify {fig1|fig2|fig5|fig6|fig7|fig8|all}
  gen --m M --d D --seed S [--structured]
  extend -i FILE
  search --m M --d D --threshold T (--shard I/N | --full [--jobs J])
         [--checkpoint-dir DIR]
  optimum -i FILE
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import approx, fileio, instances, model, reduction
from .errors import InternalGuaranteeViolation, InvalidSetting, RingLoadingError
from .scaled import from_int, rational_str


def _read_instance(path: str, need_split: bool):
    inst, split = fileio.parse_instance(Path(path).read_bytes())
    if need_split and split is None:
        raise RingLoadingError(f"{path}: a split routing ('cw' fields) is required")
    return inst, split


def _emit(report: dict, summary: str) -> None:
    """Write the report as json.dumps(report, indent=1) and a newline, in one
    write call, and the one-line summary to stderr."""
    sys.stdout.write(fileio.report_text(report) + "\n")
    print(summary, file=sys.stderr)


def _cmd_solve(args) -> int:
    inst, split = _read_instance(args.instance, need_split=True)
    note = ""
    if args.alg == "brute":
        from . import exact

        unsplit, claim = exact.brute_force_min_increase(inst, split)
        label, extra = "brute force", {"branch": "brute"}
    else:
        cross, _ = reduction.reduce_to_crossing(inst, split)
        if args.alg == "dp":
            from . import exact

            z, claim = exact.dp_min_increase(cross)
            label = "dp crossing-form optimum"
            extra = {"branch": "dp", "crossing_performance": rational_str(claim)}
        else:
            solved = approx.ROUTES[args.alg](cross)
            z, claim, label = solved.z, solved.perf, solved.branch
            extra = {
                "branch": solved.branch,
                "crossing_performance": rational_str(solved.perf),
                "bound": rational_str(solved.bound),
            }
            note = f" (certified bound {extra['bound']})"
        unsplit = reduction.lift_solution(cross, z)
    before, after = model.split_and_unsplit_loads(inst, split, unsplit)
    increase = model.load_increase(before, after)
    if increase > claim:  # uncrossing never raises a load, so a lift never exceeds its claim
        raise InternalGuaranteeViolation(
            f"branch {extra['branch']}: increase {rational_str(increase)} "
            f"exceeds its claimed {rational_str(claim)}")
    report = fileio.routing_report(unsplit, increase, after)
    report.update(extra)
    _emit(report, f"{label}: max increase {report['max_increase']}{note}")
    return 0


def _cmd_loads(args) -> int:
    inst, split = _read_instance(args.instance, need_split=True)
    loads = model.edge_loads(inst, split)
    report = {
        "loads": fileio.load_texts(loads),
        "max": rational_str(max(loads)),
    }
    _emit(report, f"max edge load {report['max']}")
    return 0


def _verify_one(name: str) -> dict:
    from . import exact

    inst, split = instances.builtin(name)
    checks: dict[str, dict] = {}

    def check(label: str, expected, actual) -> None:
        checks[label] = {
            "expected": expected,
            "actual": actual,
            "pass": expected == actual,
        }

    loads = model.edge_loads(inst, split)
    if name == "fig1":
        check("split_loads_uniform", ["2"] * 4, [rational_str(l) for l in loads])
        _, L = exact.brute_force_optimum_L(inst)
        check("optimum_load", "4", rational_str(L))
    elif name == "fig2":
        check("max_load", "37", rational_str(max(loads)))
        peak = from_int(37)
        check("peak_edges", [2, 3], [k + 1 for k, l in enumerate(loads) if l == peak])
        cross, _ = reduction.reduce_to_crossing(inst, split)
        _, value = exact.dp_min_increase(cross)
        check("min_increase", "11", rational_str(value))
    elif name == "fig5":
        cross, _ = reduction.reduce_to_crossing(inst, split)
        _, value = exact.dp_min_increase(cross)
        _, brute = exact.brute_force_min_increase(inst, split)
        check("min_increase_at_least_101", True, value >= from_int(101))
        check("dp_equals_brute", rational_str(brute), rational_str(value))
    elif name == "fig6":
        _, value = exact.brute_force_min_increase(inst, split)
        check("min_increase", "11", rational_str(value))
    elif name == "fig7":
        check("loads_uniform", ["37"] * 16, [rational_str(l) for l in loads])
        certified = instances.certify_split_optimal(inst, split)
        check("split_optimum", "37", rational_str(certified) if certified else None)
        _, L = exact.brute_force_optimum_L(inst)
        check("optimum_load", "46", rational_str(L))
    elif name == "fig8":
        certified = instances.certify_split_optimal(inst, split)
        check("split_optimum", "39", rational_str(certified) if certified else None)
        _, L = exact.brute_force_optimum_L(inst)
        check("optimum_load", "50", rational_str(L))

    report = {
        "name": name,
        "checks": checks,
        "passes": all(entry["pass"] for entry in checks.values()),
    }
    if "min_increase" in checks:
        report["min_increase"] = checks["min_increase"]["actual"]
    return report


def _cmd_verify(args) -> int:
    names = instances.BUILTIN_NAMES if args.name == "all" else (args.name,)
    reports = [_verify_one(name) for name in names]
    passes = all(rep["passes"] for rep in reports)
    report = reports[0] if len(reports) == 1 else {"passes": passes, "reports": reports}
    _emit(report, "all checks pass" if passes else "some checks FAILED")
    return 0 if passes else 1


def _cmd_gen(args) -> int:
    cross = instances.random_crossing(args.m, args.d, args.seed, args.structured)
    inst, split = cross.to_ring()
    sys.stdout.write(fileio.write_instance(inst, split).decode())
    print(
        f"crossing instance m={args.m} D={args.d} seed={args.seed}"
        f"{' structured' if args.structured else ''}",
        file=sys.stderr,
    )
    return 0


def _cmd_extend(args) -> int:
    inst, split = _read_instance(args.instance, need_split=True)
    result = instances.equalize_extension(inst, split)
    sys.stdout.write(fileio.write_instance(result.instance, result.split).decode())
    print(
        f"added {result.added} demands; all within D: "
        f"{'yes' if result.all_within_max_demand else 'NO'}",
        file=sys.stderr,
    )
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    index, _, count = text.partition("/")
    try:
        return int(index), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers I/N, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _cmd_search(args) -> int:
    from . import search

    if args.shard is not None and args.full:
        raise InvalidSetting("--shard and --full exclude each other; pass one of them")
    if args.shard is not None and args.jobs is not None:
        raise InvalidSetting("--jobs needs --full; a shard runs in one process")
    family = search.StructuredFamily(args.m, args.d)  # m, D and the scan bounds, before any scan
    if args.shard is None and not args.full:
        raise RingLoadingError(
            f"the m={args.m}, D={args.d} family has {family.size} members; pass --full "
            "to scan them all, or --shard I/N for one slice"
        )
    m, d, threshold = args.m, args.d, from_int(args.threshold)
    if args.full:
        hits = search.search_parallel(m, d, threshold, args.jobs or 1, args.checkpoint_dir)
    else:
        hits = search.search_lower_bound(m, d, threshold, args.shard, args.checkpoint_dir)
    sys.stdout.write("".join(search.hit_record(hit) + "\n" for hit in hits))
    print(f"{len(hits)} sequence(s) at threshold >= {args.threshold}", file=sys.stderr)
    return 0


def _cmd_optimum(args) -> int:
    from . import exact

    inst, _ = _read_instance(args.instance, need_split=False)
    unsplit, L = exact.brute_force_optimum_L(inst)
    loads = model.edge_loads(inst, unsplit)
    report = {
        "dirs": list(unsplit.dirs),
        "optimum_load": rational_str(L),
        "loads": fileio.load_texts(loads),
    }
    _emit(report, f"optimum unsplittable load {report['optimum_load']}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringload",
        description="Exact and approximate unsplittable routing on rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="turn a split routing into an unsplittable one")
    solve.add_argument("--alg", choices=(*approx.ROUTES, "dp", "brute"), default="auto")
    solve.add_argument("-i", "--instance", required=True)
    solve.set_defaults(func=_cmd_solve)

    loads = sub.add_parser("loads", help="edge loads of the split routing")
    loads.add_argument("-i", "--instance", required=True)
    loads.set_defaults(func=_cmd_loads)

    verify = sub.add_parser("verify", help="re-check a built-in instance")
    verify.add_argument("name", choices=instances.BUILTIN_NAMES + ("all",))
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a random crossing instance")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--structured", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    extend = sub.add_parser("extend", help="equalize edge loads with extra demands")
    extend.add_argument("-i", "--instance", required=True)
    extend.set_defaults(func=_cmd_extend)

    search_cmd = sub.add_parser("search", help="scan the structured family for lower bounds")
    search_cmd.add_argument("--m", type=int, required=True)
    search_cmd.add_argument("--d", type=int, required=True)
    search_cmd.add_argument("--threshold", type=int, required=True, help="an integer, e.g. 11")
    search_cmd.add_argument("--shard", type=_parse_shard, help="I/N: run slice I of N")
    search_cmd.add_argument("--full", action="store_true",
                            help="run the whole family (long-running)")
    search_cmd.add_argument("--jobs", type=_positive_int,
                            help="worker processes for --full (default 1)")
    search_cmd.add_argument("--checkpoint-dir")
    search_cmd.set_defaults(func=_cmd_search)

    optimum = sub.add_parser("optimum", help="optimum unsplittable load, exact, by branch and bound")
    optimum.add_argument("-i", "--instance", required=True)
    optimum.set_defaults(func=_cmd_optimum)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RingLoadingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidSetting) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a ring too large for memory, though within the index range
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

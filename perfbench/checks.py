"""Output checks that do not trust the program under test.

Each successful command's stdout is checked against oracles written here
in plain Python, independent of `ringload`:

  * every returned `dirs` witness is re-evaluated with a difference-array
    edge load computation, against the reported loads and the reported
    max_increase or optimum_load;
  * `solve --alg auto` must respect max_increase <= crossing_performance
    <= bound <= 19/14 * D;
  * `solve --alg dp` must equal `solve --alg brute` on crossing rings, and
    can only be worse than brute force elsewhere (it optimizes against the
    uncrossed split);
  * `verify fig8` must report optimum load 50;
  * the fig6 shard must report exactly fig6's canonical form at 11.

For the default seed (and for the seed-free search shards) every stdout
must also match the SHA-256 digest recorded in digests.json, so reports
stay byte-identical, tie-breaking included.  fig7's recorded optimum 47
is deliberately not asserted here: that is the test suite's business.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# fig6 in crossing form as (v_k, u_k), u_k clockwise; its minimum increase
# over all 256 routings is 11.
FIG6_VU = ((2, 2), (3, 7), (7, 1), (3, 7), (2, 2), (4, 6), (4, 4), (6, 4))
FIG8_OPTIMUM = Fraction(50)
AUTO_BRANCHES = (
    "medium", "smallbig-a", "smallbig-b", "smallbig-c",
    "smallbig-crossAB", "smallbig-ca", "smallbig-cb",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_ring(path: str) -> tuple[int, list[tuple[int, int, int, int | None]]]:
    """(n, [(i, j, 2d, 2cw)]) from an instance file; cw is None when absent."""
    doc = json.loads(Path(path).read_text(), parse_float=Fraction)
    demands = []
    for dem in doc["demands"]:
        cw = dem.get("cw")
        demands.append(
            (dem["i"], dem["j"], 2 * dem["d"], None if cw is None else int(2 * Fraction(cw)))
        )
    return doc["n"], demands


def edge_loads(n: int, demands, cw_amounts) -> list[int]:
    """Loads in half units: cw amounts on edges i..j-1, the rest elsewhere."""
    diff = [0] * (n + 1)
    everywhere = 0
    for (i, j, d2, _), cw2 in zip(demands, cw_amounts):
        ccw2 = d2 - cw2
        everywhere += ccw2
        diff[i - 1] += cw2 - ccw2
        diff[j - 1] -= cw2 - ccw2
    loads, running = [], everywhere
    for e in range(n):
        running += diff[e]
        loads.append(running)
    return loads


def _routing_amounts(demands, dirs) -> list[int]:
    if len(dirs) != len(demands) or not set(dirs) <= {"cw", "ccw"}:
        raise ValueError("dirs must hold one 'cw' or 'ccw' per demand")
    return [d2 if flag == "cw" else 0 for (_, _, d2, _), flag in zip(demands, dirs)]


def _rational(text: str) -> Fraction:
    if not isinstance(text, str) or "." in text:
        raise ValueError(f"not an exact rational string: {text!r}")
    return Fraction(text)


def _witness(n, demands, report) -> tuple[list[int], list[Fraction]]:
    """Re-evaluated loads of the report's dirs; the reported loads must match."""
    loads = edge_loads(n, demands, _routing_amounts(demands, report["dirs"]))
    reported = [_rational(text) for text in report["loads"]]
    if reported != [Fraction(load, 2) for load in loads]:
        raise ValueError("reported loads differ from the re-evaluated witness")
    return loads, reported


def check_solve(cmd, stdout: str) -> Fraction:
    """Check one solve report; returns its max_increase."""
    n, demands = read_ring(cmd.path)
    report = json.loads(stdout)
    after, _ = _witness(n, demands, report)
    before = edge_loads(n, demands, [cw2 for *_, cw2 in demands])
    increase = Fraction(max(a - b for a, b in zip(after, before)), 2)
    if _rational(report["max_increase"]) != increase:
        raise ValueError(f"max_increase {report['max_increase']} but the witness gives {increase}")
    if report["branch"] not in ((cmd.alg,) if cmd.alg in ("dp", "brute") else AUTO_BRANCHES):
        raise ValueError(f"branch {report['branch']!r} for --alg {cmd.alg}")
    if cmd.alg in ("auto", "dp"):
        perf = _rational(report["crossing_performance"])
        if increase > perf:
            raise ValueError("max_increase exceeds crossing_performance")
    if cmd.alg == "auto":
        D = Fraction(max(d2 for _, _, d2, _ in demands), 2)
        bound = _rational(report["bound"])
        if not perf <= bound <= Fraction(19, 14) * D:
            raise ValueError(f"performance {perf} and bound {bound} break 19/14 * D = {19 * D / 14}")
    return increase


def check_optimum(cmd, stdout: str) -> Fraction:
    n, demands = read_ring(cmd.path)
    report = json.loads(stdout)
    loads, _ = _witness(n, demands, report)
    value = Fraction(max(loads), 2)
    if _rational(report["optimum_load"]) != value:
        raise ValueError(f"optimum_load {report['optimum_load']} but the witness gives {value}")
    return value


def check_verify(cmd, stdout: str) -> None:
    report = json.loads(stdout)
    entry = report["checks"]["optimum_load"]
    if report["name"] != "fig8" or _rational(entry["actual"]) != FIG8_OPTIMUM:
        raise ValueError(f"verify fig8 gave optimum load {entry['actual']}, not 50")
    if not (entry["pass"] and report["passes"]):
        raise ValueError("verify fig8 does not pass")


def _orbit(pairs: tuple[tuple[int, int], ...]) -> set:
    """Closure of pairs under rotate-by-one (wrapped entry swapped),
    reversal, and swapping u and v everywhere."""
    def rotate(p):
        return ((p[-1][1], p[-1][0]),) + p[:-1]

    seen, todo = {pairs}, [pairs]
    while todo:
        p = todo.pop()
        for image in (rotate(p), p[::-1], tuple((v, u) for u, v in p)):
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def fig6_canonical(D: int = 10) -> tuple[tuple[int, int], ...]:
    """Smallest image of fig6 with value-D demands at odd positions."""
    pairs = tuple((u, v) for v, u in FIG6_VU)
    return min(p for p in _orbit(pairs) if all(u + v == D for u, v in p[1::2]))


def parse_hits(stdout: str) -> list[tuple[tuple[tuple[int, int], ...], str]]:
    """(u, v) pairs and min_increase per search output line."""
    hits = []
    for line in stdout.splitlines():
        record = json.loads(line)
        pairs = tuple((u, v) for v, u in record["pairs"])
        hits.append((pairs, record["min_increase"]))
    return hits


def check_search(cmd, stdout: str) -> None:
    hits = parse_hits(stdout)
    for pairs, value in hits:
        if _rational(value) < _rational(cmd.argv[cmd.argv.index("--threshold") + 1]):
            raise ValueError(f"hit {pairs} at {value} is below the threshold")
    if cmd.expect_fig6 and hits != [(fig6_canonical(), "11")]:
        raise ValueError(f"expected exactly fig6's canonical form at 11, got {hits}")


CHECKS = {
    "solve": check_solve,
    "optimum": check_optimum,
    "verify": check_verify,
    "search": check_search,
}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_entry(ok: bool, stdout: str, error: str | None) -> dict:
    return {"stdout_sha256": sha256(stdout)} if ok else {"error": error}


def check_outputs(workload: str, seed: int, commands, results, digests: dict) -> list[str]:
    """Problems found in one pass of results, as 'label: message' lines.

    results[k] = (ok, stdout, error) for commands[k].  Failed commands are
    counted elsewhere; here only successful outputs are judged.
    """
    problems = []
    value = {}
    for cmd, (ok, stdout, _) in zip(commands, results):
        if not ok:
            continue
        try:
            value[cmd.label] = CHECKS[cmd.kind](cmd, stdout)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError,
                ZeroDivisionError) as exc:
            problems.append(f"{cmd.label}: {type(exc).__name__}: {exc}")

    # Brute force against the DP on the same ring.
    by_ring: dict[str, dict[str, object]] = {}
    for cmd in commands:
        if cmd.kind == "solve" and cmd.label in value:
            by_ring.setdefault(cmd.ring, {})[cmd.alg] = (cmd, value[cmd.label])
    for algs in by_ring.values():
        if "dp" in algs and "brute" in algs:
            cmd, dp = algs["dp"]
            _, brute = algs["brute"]
            if cmd.crossing and dp != brute:
                problems.append(f"{cmd.label}: dp gives {dp}, brute force {brute}")
            if brute > dp:
                problems.append(f"{cmd.label}: brute force {brute} is worse than dp {dp}")

    recorded = digests.get(workload)
    if recorded and recorded.get("seed") in (None, seed):
        for cmd, (ok, stdout, _) in zip(commands, results):
            want = recorded["commands"].get(cmd.label, {})
            if ok and "stdout_sha256" in want and want["stdout_sha256"] != sha256(stdout):
                problems.append(f"{cmd.label}: stdout differs from the recorded digest")
    return problems

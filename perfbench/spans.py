"""Spans and the traced replay of each command through public functions.

The traced run does not call `ringload.cli`.  It re-drives every command
through the public functions of each module, with a span around each call
into a layer, and must print exactly what the CLI prints.  Spans record
name, start, end, parent span and command id in flat arrays and are kept
until the run ends; a span's self time is its duration minus the time its
children cover.  Counters are recorded at the same boundaries.

The layers are the modules of `ringload`: fileio, model, reduction,
approx, exact, instances and search.  The CLI is not a layer here: it is
the gap between an untraced command's wall time and its layer spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

from checks import AUTO_BRANCHES

# Per-layer metrics: (name, unit).  Times are self times per pass.
LAYER_METRICS = (
    ("fileio.parse_s", "s"),
    ("fileio.parse_bytes", "B"),
    ("fileio.report_s", "s"),
    ("model.edge_loads_s", "s"),
    ("model.edge_loads_calls", "count"),
    ("reduction.reduce_s", "s"),
    ("reduction.demands_in", "count"),
    ("reduction.crossing_m", "count"),
    ("reduction.uncrossed", "count"),
    ("reduction.lift_s", "s"),
    ("approx.solve_s", "s"),
    *((f"approx.branch.{name}", "count") for name in AUTO_BRANCHES),
    ("exact.enum_s", "s"),
    ("exact.enum_routings", "count"),
    ("exact.enum_routings_per_s", "1/s"),
    ("exact.dp_s", "s"),
    ("exact.dp_calls", "count"),
    ("exact.dp_failed", "count"),
    ("search.decode_s", "s"),
    ("search.scanned", "count"),
    ("search.even", "count"),
    ("search.canon_s", "s"),
    ("search.odd", "count"),
    ("search.canonical", "count"),
    ("search.noncanonical", "count"),
    ("search.canonical_frac", "1"),
    ("search.screen_s", "s"),
    ("search.screen_probes", "count"),
    ("search.screened_out", "count"),
    ("search.full_dp_s", "s"),
    ("search.full_dp", "count"),
    ("search.hits", "count"),
    ("instances.builtin_s", "s"),
    ("trace.overhead_frac", "1"),
)


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return _Span(self, self._ids[name])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self, op: int | None = None) -> dict[str, float]:
        """Self time per span name, over all spans or one command's."""
        child = [0.0] * len(self.start)
        for k, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[k] - self.start[k]
        out: dict[str, float] = Counter()
        for k in range(len(self.start)):
            if op is None or self.op[k] == op:
                out[self.names[self.name[k]]] += self.end[k] - self.start[k] - child[k]
        return out


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.start)
        tr.name.append(self.name_id)
        tr.parent.append(tr._open[-1] if tr._open else -1)
        tr.op.append(tr.op_id)
        tr.end.append(0.0)
        tr._open.append(self.index)
        tr.start.append(time.perf_counter())

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr.end[self.index] = time.perf_counter()
        tr._open.pop()
        return False


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=1) + "\n"


def _parse(rl, tr: Tracer, path: str):
    with tr.span("fileio.parse"):
        data = Path(path).read_bytes()
        inst, split = rl.fileio.parse_instance(data)
    tr.count("fileio.parse_bytes", len(data))
    return inst, split


def _active(inst) -> int:
    return sum(1 for dem in inst.demands if dem.d > 0)


def _solve(rl, tr: Tracer, cmd) -> str:
    rational_str = rl.scaled.rational_str
    inst, split = _parse(rl, tr, cmd.path)
    if cmd.alg == "brute":
        with tr.span("exact.enum"):
            unsplit, _ = rl.exact.brute_force_min_increase(inst, split)
        tr.count("exact.enum_routings", 1 << _active(inst))
        extra = {"branch": "brute"}
    else:
        with tr.span("reduction.reduce"):
            cross, _ = rl.reduction.reduce_to_crossing(inst, split)
        tr.count("reduction.demands_in", len(inst.demands))
        tr.count("reduction.crossing_m", cross.m)
        tr.count("reduction.uncrossed", sum(
            1
            for dem, before, after in zip(inst.demands, split.cw, cross.uncrossed.cw)
            if 0 < before < dem.d and after in (0, dem.d)
        ))
        if cmd.alg == "dp":
            tr.count("exact.dp_calls")
            try:
                with tr.span("exact.dp"):
                    z, value = rl.exact.dp_min_increase(cross)
            except Exception:
                tr.count("exact.dp_failed")
                raise
            extra = {"branch": "dp", "crossing_performance": rational_str(value)}
        else:
            with tr.span("approx.solve"):
                solved = rl.approx.solve_19_14(cross)
            tr.count(f"approx.branch.{solved.branch}")
            z = solved.z
            extra = {
                "branch": solved.branch,
                "crossing_performance": rational_str(solved.perf),
                "bound": rational_str(solved.bound),
            }
        with tr.span("reduction.lift"):
            unsplit = rl.reduction.lift_solution(cross, z)
    with tr.span("model.edge_loads"):
        increase = rl.model.additive_increase(inst, split, unsplit)
        loads = rl.model.edge_loads(inst, unsplit)
    tr.count("model.edge_loads_calls", 3)
    with tr.span("fileio.report"):
        report = rl.fileio.routing_report(unsplit, increase, loads)
        report.update(extra)
        return _dumps(report)


def _optimum(rl, tr: Tracer, cmd) -> str:
    rational_str = rl.scaled.rational_str
    inst, _ = _parse(rl, tr, cmd.path)
    with tr.span("exact.enum"):
        unsplit, L = rl.exact.brute_force_optimum_L(inst)
    tr.count("exact.enum_routings", 1 << _active(inst))
    with tr.span("model.edge_loads"):
        loads = rl.model.edge_loads(inst, unsplit)
    tr.count("model.edge_loads_calls")
    with tr.span("fileio.report"):
        return _dumps({
            "dirs": list(unsplit.dirs),
            "optimum_load": rational_str(L),
            "loads": [rational_str(load) for load in loads],
        })


def _verify(rl, tr: Tracer, cmd) -> str:
    """`verify fig8`: split optimum 39 by certificate, optimum load 50."""
    rational_str = rl.scaled.rational_str
    name = cmd.argv[-1]
    if name != "fig8":
        raise ValueError(f"the traced replay covers verify fig8 only, not {name}")
    with tr.span("instances.builtin"):
        inst, split = rl.instances.builtin(name)
    with tr.span("model.edge_loads"):
        rl.model.edge_loads(inst, split)
    tr.count("model.edge_loads_calls")
    certified = rl.instances.certify_split_optimal(inst, split)
    with tr.span("exact.enum"):
        _, L = rl.exact.brute_force_optimum_L(inst)
    tr.count("exact.enum_routings", 1 << _active(inst))
    checks = {}
    for label, expected, actual in (
        ("split_optimum", "39", rational_str(certified) if certified else None),
        ("optimum_load", "50", rational_str(L)),
    ):
        checks[label] = {"expected": expected, "actual": actual, "pass": expected == actual}
    report = {"name": name, "checks": checks, "passes": all(c["pass"] for c in checks.values())}
    return _dumps(report)


def _search(rl, tr: Tracer, cmd) -> str:
    """Decode, canonicalize, screen with dp_feasible, then the full DP."""
    argv = cmd.argv
    m, D = int(argv[argv.index("--m") + 1]), int(argv[argv.index("--d") + 1])
    threshold = rl.scaled.parse_rational(argv[argv.index("--threshold") + 1])
    index, _, count = cmd.shard.partition("/")
    family = rl.search.StructuredFamily(m, D)
    start, stop = rl.search.shard_range(family.size, (int(index), int(count)))
    from_int = rl.scaled.from_int
    t = rl.scaled.unscale(threshold) - 1
    if t < 0:
        raise ValueError("the traced replay needs a positive threshold")
    t_scaled = from_int(t)
    D_scaled = from_int(D)
    decode, canonical_of = family.decode, rl.search.CanonicalForm.of
    dp_feasible, dp_min_increase = rl.exact.dp_feasible, rl.exact.dp_min_increase
    standalone = rl.reduction.standalone_crossing
    span = tr.span
    n = Counter()
    lines = []
    for member in range(start, stop):
        with span("search.decode"):
            pairs = decode(member)
        n["scanned"] += 1
        if sum(u for u, _ in pairs) % 2 == 0:
            n["even"] += 1
            continue
        n["odd"] += 1
        with span("search.canon"):
            form = canonical_of(pairs, D)
        if form.pairs != pairs:
            n["noncanonical"] += 1
            continue
        n["canonical"] += 1
        with span("search.screen"):
            cross = standalone(tuple((from_int(u), from_int(v)) for u, v in pairs), D_scaled)
            parity = sum(v for _, v in pairs) & 1
            feasible = False
            for y in range(-t, t + 1):
                if (y & 1) != parity:
                    continue
                n["probes"] += 1
                with span("exact.dp"):
                    routing = dp_feasible(cross, t_scaled, from_int(y))
                if routing is not None:
                    feasible = True
                    break
        if feasible:
            n["screened_out"] += 1
            continue
        n["full_dp"] += 1
        with span("search.full_dp"):
            with span("exact.dp"):
                _, value = dp_min_increase(cross)
        if value >= threshold:
            n["hits"] += 1
            lines.append(json.dumps({
                "pairs": [[v, u] for u, v in form.pairs],
                "min_increase": rl.scaled.rational_str(value),
            }) + "\n")
    for key in ("scanned", "even", "odd", "canonical", "noncanonical",
                "screened_out", "full_dp", "hits"):
        tr.count(f"search.{key}", n[key])
    tr.count("search.screen_probes", n["probes"])
    tr.count("search.shard_size", stop - start)
    tr.count("exact.dp_calls", n["probes"] + n["full_dp"])
    return "".join(lines)


REPLAY = {"solve": _solve, "optimum": _optimum, "verify": _verify, "search": _search}


def traced_pass(rl, tracer: Tracer, commands) -> list[tuple[bool, str, str | None]]:
    """Replay one pass; results match run_command's (ok, stdout, error)."""
    results = []
    for op_id, cmd in enumerate(commands):
        tracer.op_id = op_id
        with tracer.span("op"):
            try:
                results.append((True, REPLAY[cmd.kind](rl, tracer, cmd), None))
            except Exception as exc:
                results.append((False, "", f"{type(exc).__name__}: {exc}"))
    tracer.op_id = -1
    return results


def funnel_problems(counts: Counter) -> list[str]:
    """The search funnel identities; empty when they all hold."""
    c = counts
    rules = (
        ("scanned = shard size", c["search.scanned"] == c["search.shard_size"]),
        ("scanned = odd + even", c["search.scanned"] == c["search.odd"] + c["search.even"]),
        ("odd = canonical + non-canonical",
         c["search.odd"] == c["search.canonical"] + c["search.noncanonical"]),
        ("canonical = screened_out + full_dp",
         c["search.canonical"] == c["search.screened_out"] + c["search.full_dp"]),
        ("hits <= full_dp", c["search.hits"] <= c["search.full_dp"]),
    )
    return [f"funnel: {rule} fails" for rule, holds in rules if not holds]


def layer_metrics(times: dict[str, float], counts: Counter) -> dict[str, float]:
    """Per-layer metric values of one pass, from self times and counters."""
    values: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if name.endswith("_s") and unit == "s":
            values[name] = times.get(name[:-2], 0.0)
        elif name in counts:
            values[name] = counts[name]
    values.setdefault("exact.enum_routings_per_s", (
        counts["exact.enum_routings"] / times["exact.enum"] if times.get("exact.enum") else 0.0
    ))
    odd = counts["search.odd"]
    values["search.canonical_frac"] = counts["search.canonical"] / odd if odd else 0.0
    for name, _ in LAYER_METRICS:
        values.setdefault(name, 0)
    return values

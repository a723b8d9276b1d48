"""Smoke test of the benchmark itself, on tiny inputs, in seconds.

    python3 perfbench/smoke.py

For every workload it runs the end-to-end and the traced measurement on
tiny inputs and checks that every metric named in BENCHMARK.json is
reported with its unit, that the output checks pass, that a failing
command is counted, that the traced replay prints what the CLI prints,
and that the search funnel adds up.
It then tampers with real outputs and checks that the output checks
fire, and that run.py fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import checks
import run
import spans
import workloads

SEED = 7


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def declared() -> tuple[dict, dict]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def measure_tiny(rl, name: str, work) -> None:
    end_to_end, per_layer = declared()
    args = argparse.Namespace(workload=name, seed=SEED)
    commands = workloads.commands(name, work, workloads.TINY)
    missing = str(work / "missing.json")
    commands.append(workloads.Command(
        "solve-auto missing file", ("solve", "--alg", "auto", "-i", missing), "solve",
        ring="missing", path=missing, alg="auto",
    ))

    metrics, info = run.measure(args, rl.cli, commands, 2, work, "tiny")
    expect(not info["problems"], f"{name}: {info['problems']}")
    expect(info["failed"] >= 2 and any("missing" in e for e in info["errors"]),
           f"{name}: the failing command is not counted: {info['errors']}")
    expect(metrics.keys() == end_to_end.keys(), f"{name}: end-to-end names {sorted(metrics)}")
    expect(dict(run.END_TO_END) == end_to_end, f"{name}: end-to-end units differ")
    expect(all(v > 0 for v in metrics.values()), f"{name}: a zero metric in {metrics}")

    metrics, info = run.measure_traced(args, rl, commands, 2, work, "tiny")
    expect(not info["problems"], f"{name} traced: {info['problems']}")
    expect(metrics.keys() == per_layer.keys(), f"{name}: per-layer names {sorted(metrics)}")
    expect(dict(spans.LAYER_METRICS) == per_layer, f"{name}: per-layer units differ")
    if name == "search-shard":
        expect(metrics["search.hits"] == 1 and metrics["search.scanned"] > 1000,
               f"search funnel {metrics}")
        expect(not spans.funnel_problems(Counter(info["counts"])), "funnel identities")
    print(f"smoke: {name} ok ({info['attempted']} commands, {info['failed']} failed)")


def tampering(rl, work) -> None:
    """Each tampered output must draw at least one check failure."""
    for name in workloads.NAMES:
        workloads.setup(rl, name, SEED, work, workloads.TINY)
        commands = workloads.commands(name, work, workloads.TINY)
        _, _, results = run.untraced_pass(rl.cli, commands)
        expect(not checks.check_outputs(name, SEED, commands, results, {}), f"{name} clean")
        recorded = {name: {"seed": SEED, "commands": {
            c.label: checks.digest_entry(*r) for c, r in zip(commands, results)}}}
        for k, (cmd, (ok, stdout, _)) in enumerate(zip(commands, results)):
            if not ok:
                continue
            for label, bad in tampered(cmd, stdout):
                broken = list(results)
                broken[k] = (True, bad, None)
                for digests in ({}, recorded):
                    found = checks.check_outputs(name, SEED, commands, broken, digests)
                    expect(found, f"{cmd.label}: {label} not caught (digests: {bool(digests)})")
        print(f"smoke: tampered {name} outputs are caught")


def tampered(cmd, stdout: str):
    if cmd.kind == "search":
        yield "dropped hit", ""
        yield "wrong value", stdout.replace('"11"', '"12"')
        return
    report = json.loads(stdout)
    if cmd.kind == "verify":
        report["checks"]["optimum_load"]["actual"] = "49"
        yield "optimum 49", json.dumps(report)
        return
    key = "max_increase" if cmd.kind == "solve" else "optimum_load"
    raised = checks._rational(report[key]) + Fraction(1, 2)
    yield f"{key} + 1/2", json.dumps({**report, key: str(raised)})
    flipped = list(report["dirs"])
    flipped[0] = "cw" if flipped[0] == "ccw" else "ccw"
    yield "flipped direction", json.dumps({**report, "dirs": flipped})
    if cmd.alg == "auto":
        yield "bound above 19/14 D", json.dumps({**report, "bound": "1000000"})


def bare_directory() -> None:
    """run.py must fail without a result where the sources are missing."""
    bare = run.OUT / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "solve-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "run.py succeeded without sources")
    expect('"correct"' not in done.stdout, "run.py printed a result without sources")
    print("smoke: run.py fails without sources")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ringload
    import ringload.cli

    work = run.OUT / f"smoke-{os.getpid()}"
    try:
        for name in workloads.NAMES:
            measure_tiny(ringload, name, work)
        tampering(ringload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bare_directory()
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

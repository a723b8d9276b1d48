"""The benchmark's own smoke test, run against the package in this checkout.

perfbench/ calls into ringload directly (its traced search replay calls
dp_feasible, CanonicalForm.of and StructuredFamily.decode), so a change
that breaks those calls fails here and not only when the benchmark runs.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ringload
from ringload import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_benchmark_smoke():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: all ok"


@pytest.mark.parametrize("workload", ["solve-large", "exact-optima", "search-shard"])
def test_outputs_match_the_recorded_digests(capsys, tmp_path, monkeypatch, workload):
    # The workload's commands on the inputs its own generator writes at the
    # benchmark's default seed (search-shard has none and records no seed);
    # every stdout must hash to the digest recorded in perfbench/digests.json,
    # so large solves, the exact optima and the search's hit lists stay
    # byte-identical here too.  A command recorded with an error instead (the
    # DP on half-integer rings, which failed when the digests were taken)
    # must now succeed, and, as perfbench/checks.py requires, give no less
    # than brute force on the same ring.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert recorded["seed"] == (None if workload == "search-shard" else workloads.DEFAULT_SEED)
    workloads.write_inputs(ringload, workload, workloads.DEFAULT_SEED, tmp_path)
    commands = workloads.commands(workload, tmp_path)
    assert sorted(cmd.label for cmd in commands) == sorted(recorded["commands"])
    increases = {}
    for cmd in commands:
        assert cli.main(list(cmd.argv)) == 0, cmd.label
        out = capsys.readouterr().out
        want = recorded["commands"][cmd.label]
        if "stdout_sha256" in want:
            assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"], cmd.label
        else:
            assert cmd.alg == "dp", cmd.label
        if cmd.kind == "solve":
            increases[cmd.ring, cmd.alg] = Fraction(json.loads(out)["max_increase"])
    for cmd in commands:
        if "stdout_sha256" not in recorded["commands"][cmd.label]:
            assert increases[cmd.ring, "dp"] >= increases[cmd.ring, "brute"], cmd.label

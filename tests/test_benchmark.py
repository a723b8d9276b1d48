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


# The stdout SHA-256 of the commands that perfbench/digests.json records
# with an error: exact-optima's DP on its half-integer rings at the default
# seed, taken once the DP solved them.
DP_SHA256_NOT_RECORDED = {
    "solve-dp half-integer #0": "33fd04bda9562a011437374357c6d7f4e69e2129dbed01bf36590bf0de99d7e4",
    "solve-dp half-integer #1": "950934f94ce487a31390a5c471c42f4973d01febcb67914b5f0eb2c62d132660",
    "solve-dp half-integer #2": "eff6595b463510c7bc5d4f49ab8494ea10bdc0ef39f535b15b36b095cf0738b3",
    "solve-dp half-integer #3": "08fde6d96d8d05d5f6d0df030db09564c3da297664329146f7fc0e88daf5886c",
    "solve-dp half-integer #4": "0fac73f47fbe9d4ff8d43052b0080e01e5b3bae6c2d6271d1de048b2fdb6f173",
    "solve-dp half-integer #5": "9e3b93da8732ee066d60e8e9b126599260b1802d67991e001e4c3694b725ce8c",
    "solve-dp half-integer #6": "fc08fa989497b819cf4d68f86abefac70ba869832210425c5c204486c354adfc",
    "solve-dp half-integer #7": "8b7a5b7c9cc1cbca280bc91bf394104ee640162dd93d4a609ada0d0c7ad2f22a",
    "solve-dp half-integer #9": "33cf210cefa5f1987ba1d1eed54f4e6de5aff3f2fc82a7d5e71c8910fd9eac74",
    "solve-dp half-integer #10": "a446f4de389039b8cac609eb11a515b9600edcd883013a031ad77d70f8e20677",
    "solve-dp half-integer #11": "914a6c2762b68dedaa7c8aacc19e0bdf2742ec632d002ea1a55afdb110e67d9d",
}


@pytest.mark.parametrize("workload", ["solve-large", "exact-optima", "search-shard"])
def test_outputs_match_the_recorded_digests(capsys, tmp_path, monkeypatch, workload):
    # The workload's commands on the inputs its own generator writes at the
    # benchmark's default seed (search-shard has none and records no seed);
    # every stdout must hash to the digest recorded in perfbench/digests.json,
    # so large solves, the exact optima and the search's hit lists stay
    # byte-identical here too.  A command recorded with an error instead (the
    # DP on half-integer rings, which failed when the digests were taken)
    # must now succeed, give the output whose digest DP_SHA256_NOT_RECORDED
    # holds, and, as perfbench/checks.py requires, give no less than brute
    # force on the same ring.
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
        want = recorded["commands"][cmd.label].get("stdout_sha256")
        if want is None:
            assert cmd.alg == "dp", cmd.label
            want = DP_SHA256_NOT_RECORDED[cmd.label]
        assert hashlib.sha256(out.encode()).hexdigest() == want, cmd.label
        if cmd.kind == "solve":
            increases[cmd.ring, cmd.alg] = Fraction(json.loads(out)["max_increase"])
    for cmd in commands:
        if "stdout_sha256" not in recorded["commands"][cmd.label]:
            assert increases[cmd.ring, "dp"] >= increases[cmd.ring, "brute"], cmd.label

"""Record the stdout digests that run.py checks at the default seed.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the default seed, refuses to record
unless every successful output passes the oracle checks, and rewrites
digests.json.  Search shards do not depend on the seed, so their digests
apply to every seed.  A command that fails is recorded with its error
line; its output is not checked against a digest.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ringload
    import ringload.cli

    recorded = {}
    for name in workloads.NAMES:
        work = run.OUT / f"work-{os.getpid()}"
        try:
            workloads.setup(ringload, name, workloads.DEFAULT_SEED, work)
            commands = workloads.commands(name, work)
            _, _, results = run.untraced_pass(ringload.cli, commands)
            problems = checks.check_outputs(name, workloads.DEFAULT_SEED, commands, results, {})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        recorded[name] = {
            "seed": None if name == "search-shard" else workloads.DEFAULT_SEED,
            "commands": {
                cmd.label: checks.digest_entry(*result)
                for cmd, result in zip(commands, results)
            },
        }
        print(f"{name}: {len(commands)} commands recorded")
    checks.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

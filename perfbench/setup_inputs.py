"""The set-up step of a benchmark run, in a fresh interpreter.

    python3 perfbench/setup_inputs.py --workload W --seed N --work DIR [--sizes tiny]

Times importing `ringload`, its built-in self-checks and writing every
input of the workload, scales the time to the reference host speed with
speed.py's python probe taken before and after, and prints
{"setup_s": ..., "inputs_sha256": ...}.  run.py starts this several times
and reports the median, so that work moved into set-up shows.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import speed
    import workloads

    before = speed.probe("python")
    start = time.perf_counter()
    import ringload

    digest = workloads.setup(
        ringload, args.workload, args.seed, Path(args.work), workloads.SIZES[args.sizes]
    )
    elapsed = time.perf_counter() - start
    setup_s = speed.scale(elapsed, "python", [before, speed.probe("python")])
    print(json.dumps({"setup_s": setup_s, "inputs_sha256": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

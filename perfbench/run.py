"""The ringload benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): solve-large,
exact-optima, search-shard.  Inputs are generated from --seed; the search
shards are fixed.

A run is a closed loop with one caller: each command is
`ringload.cli.main(argv)` called in this process, with stdout and stderr
captured, and the next command starts when the previous one returns.  A
pass runs every command of the workload once.  A run makes a fixed number
of passes, round(S / reference pass time), where the reference pass time
was measured on a 2-core Xeon; a fixed count keeps the sample set the
same from run to run.

On a shared host the CPU's speed drifts by tens of percent over seconds
to minutes, so raw wall times mostly measure the host (see speed.py).  A
fixed probe loop, pure Python or NumPy as the command names, is therefore
timed before and after every command, and every latency is scaled to the
reference host speed by the median of the probes around it.  --trace 0
reports the end-to-end metrics, their times all scaled:

  wall_s        time of one pass: the sum over its commands of each
                command's median latency over the run's passes
  op_p50_s      median over the successful commands of each one's median
                latency over the passes
  op_tail_s     latency at the highest percentile with at least 10
                samples beyond it (the maximum when there are 10 or fewer
                samples)
  setup_s       median over SETUP_REPEATS fresh interpreters of importing
                ringload, its built-in self-checks and writing every input
  peak_rss_mb   peak resident memory of this process

and prints, not gated: indices_per_s (search-shard), failed_frac, the
tail's percentile and sample count, the median unscaled pass wall time and
derived numbers.  --trace 1 runs untraced and traced passes in turn and
reports the per-layer metrics of spans.py, with the traced over untraced
wall time as trace.overhead_frac.

NumPy's BLAS is held to one thread (unless the environment says
otherwise): the host has few cores, and a second BLAS thread measures the
scheduler rather than the enumerator.

Every output is checked (checks.py); the last stdout line is the JSON
result, and the full results go to .perfbench/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks
import speed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Seconds per pass on the reference machine (2-core Xeon, Python 3.11).
REFERENCE_PASS_S = {"solve-large": 7.6, "exact-optima": 3.0, "search-shard": 9.0}

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_command(cli, argv) -> tuple[float, bool, str, str | None]:
    """(latency, ok, stdout, error line) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaping exception is a failed command
        code = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0 and error is None:
        lines = err.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit code {code}"
    return latency, code == 0, out.getvalue(), error


def untraced_pass(cli, commands, probes: list | None = None) -> tuple[float, list[float], list]:
    """Wall time, per-command latencies and (ok, stdout, error) results.

    When probes is a list, it gets one {kind: probe time} entry before
    each command and one after the last: the probes of speed.py that the
    commands on either side of that point name.
    """
    latencies, results = [], []
    start = time.perf_counter()
    for op in range(len(commands) + 1):
        if probes is not None:
            kinds = {cmd.speed for cmd in commands[max(0, op - 1):op + 1]}
            probes.append({kind: speed.probe(kind) for kind in sorted(kinds)})
        if op == len(commands):
            break
        latency, ok, stdout, error = run_command(cli, commands[op].argv)
        latencies.append(latency)
        results.append((ok, stdout, error))
    return time.perf_counter() - start, latencies, results


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that leaves at least 10 samples beyond it; the maximum otherwise."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, when it is one."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def run_setup_children(workload: str, seed: int, work: Path, sizes: str) -> tuple[list[float], list[str]]:
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work), "--sizes", sizes],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip().splitlines()[-1:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        digests.append(result["inputs_sha256"])
    return times, digests


def shard_indices(commands) -> int:
    """Family indices the search commands of one pass scan."""
    total = 0
    for cmd in commands:
        if cmd.kind == "search":
            index, count = (int(x) for x in cmd.shard.split("/"))
            size = workloads.family_size()
            total += size * (index + 1) // count - size * index // count
    return total


class Run:
    """Results of one benchmark run, gathered pass by pass."""

    def __init__(self, workload: str, seed: int, commands) -> None:
        self.workload, self.seed, self.commands = workload, seed, commands
        self.pass_walls: list[float] = []
        self.by_op: list[list[float]] = [[] for _ in commands]  # scaled latencies
        self.ok_ops: set[int] = set()  # commands that succeeded
        self.attempted = self.failed = 0
        self.errors: Counter = Counter()
        self.first: list | None = None
        self.problems: list[str] = []

    def add_pass(self, wall: float, latencies: list[float], results: list,
                 probes: list[dict] | None = None) -> None:
        """Add one pass; with probes (see untraced_pass), each latency is
        scaled to the reference speed by the probes of its kind taken
        before and after it and one command further on either side."""
        self.pass_walls.append(wall)
        for op, (cmd, latency, (ok, stdout, error)) in enumerate(
            zip(self.commands, latencies, results)
        ):
            if probes:
                near = [p[cmd.speed] for p in probes[max(0, op - 1):op + 3] if cmd.speed in p]
                latency = speed.scale(latency, cmd.speed, near)
            self.attempted += 1
            self.by_op[op].append(latency)
            if ok:
                self.ok_ops.add(op)
            else:
                self.failed += 1
                self.errors[f"{cmd.label}: {error}"] += 1
        if self.first is None:
            self.first = results
            self.problems += checks.check_outputs(
                self.workload, self.seed, self.commands, results, checks.load_digests()
            )
        else:
            for cmd, (ok, stdout, _), (ok0, stdout0, _) in zip(self.commands, results, self.first):
                if (ok, stdout) != (ok0, stdout0):
                    self.problems.append(f"{cmd.label}: output differs between passes")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted,
            "errors": dict(self.errors),
            "problems": self.problems,
        }


def measure(args, cli, commands, passes: int, work: Path, sizes: str) -> tuple[dict, dict]:
    setup_times, digests = run_setup_children(args.workload, args.seed, work, sizes)
    run = Run(args.workload, args.seed, commands)
    if len(set(digests)) != 1:
        run.problems.append("set-up wrote different inputs on repeats")
    probes: list[list[dict]] = []
    for _ in range(passes):
        probes.append([])
        wall, latencies, results = untraced_pass(cli, commands, probes[-1])
        run.add_pass(wall, latencies, results, probes[-1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = [statistics.median(samples) for samples in run.by_op]
    wall = sum(typical)
    ok_ops = sorted(run.ok_ops)
    ok = [x for op in ok_ops for x in run.by_op[op]]
    tail_value, tail_pct, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    metrics = {
        "wall_s": wall,
        "op_p50_s": statistics.median(typical[op] for op in ok_ops) if ok else 0.0,
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    indices = shard_indices(commands)
    info = {
        "setup_s_samples": setup_times,
        "pass_walls_s": run.pass_walls,
        "median_pass_wall_s": statistics.median(run.pass_walls),
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(ok)},
        "indices_per_s": indices / wall if indices else None,
        "op_median_s": {cmd.label: t for cmd, t in zip(commands, typical)},
        "op_scaled_s": {cmd.label: v for cmd, v in zip(commands, run.by_op)},
        "probes_s": probes,
    }
    derived = {}
    if indices:
        derived["family_eta_h"] = workloads.family_size() / info["indices_per_s"] / 3600.0
    if "optimum fig7" in info["op_median_s"]:
        derived["fig7_optimum_command_s"] = info["op_median_s"]["optimum fig7"]
    info["derived"] = derived
    info.update(run.summary())
    return metrics, info


def measure_traced(args, rl, commands, passes: int, work: Path, sizes: str) -> tuple[dict, dict]:
    setup_tracer = spans.Tracer()
    workloads.setup(rl, args.workload, args.seed, work, workloads.SIZES[sizes], setup_tracer.span)
    run = Run(args.workload, args.seed, commands)
    tracers, traced_walls = [], []
    for pair in range(max(1, passes // 2)):
        if pair % 2 == 0:  # alternate the order, so neither side always runs first
            run.add_pass(*untraced_pass(rl.cli, commands))
        tracer = spans.Tracer()
        start = time.perf_counter()
        results = spans.traced_pass(rl, tracer, commands)
        traced_walls.append(time.perf_counter() - start)
        tracers.append(tracer)
        if pair % 2 == 1:
            run.add_pass(*untraced_pass(rl.cli, commands))
        for cmd, (ok, stdout, _), (ok0, stdout0, _) in zip(commands, results, run.first):
            if (ok, stdout) != (ok0, stdout0):
                run.problems.append(f"{cmd.label}: traced output differs from the CLI's")
    per_pass = [spans.layer_metrics(t.self_times(), t.counts) for t in tracers]
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        values = [p[name] for p in per_pass]
        if unit in ("s", "1/s", "1"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                run.problems.append(f"{name}: counts differ between traced passes: {values}")
    metrics["instances.builtin_s"] = setup_tracer.self_times().get("instances.builtin", 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(run.pass_walls) - 1.0
    )
    if any(cmd.kind == "search" for cmd in commands):
        run.problems += spans.funnel_problems(tracers[0].counts)
    derived = {}
    labels = [cmd.label for cmd in commands]
    for key, label, span in (
        ("fig7_enum_s", "optimum fig7", "exact.enum"),
        ("reduce_k2000_s", "solve-auto random k=2000", "reduction.reduce"),
    ):
        if label in labels:
            op = labels.index(label)
            derived[key] = statistics.median(t.self_times(op)[span] for t in tracers)
    first = tracers[0]
    info = {
        "pass_walls_s": run.pass_walls,
        "traced_walls_s": traced_walls,
        "spans_per_pass": len(first.start),
        "derived": derived,
        "self_s_by_command": {
            label: dict(first.self_times(op)) for op, label in enumerate(labels)
        },
        "counts": dict(first.counts),
    }
    info.update(run.summary())
    return metrics, info


def report(args, metrics: dict, units: dict, info: dict, machine: dict) -> None:
    print(f"machine: nproc={machine['nproc']} cpus_allowed={machine['cpus_allowed']} "
          f"cpu={machine['cpu']!r} python={machine['python']} numpy={machine['numpy']} "
          f"blas={machine['blas']} blas_threads={machine['blas_threads']} "
          f"thread_env={machine['thread_env']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['passes']} passes of {info['commands']} commands")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        tail_info = info["op_tail"]
        print(f"  op_tail_s is p{tail_info['percentile']:.1f} with "
              f"{tail_info['samples_beyond']} of {tail_info['samples']} samples beyond it")
        print(f"  median pass wall, unscaled (not gated) = {info['median_pass_wall_s']:.6g} s")
        ips = info["indices_per_s"]
        print(f"  indices_per_s = {ips:.6g} 1/s" if ips else
              "  indices_per_s = n/a 1/s (search-shard only)")
    print(f"  failed_frac = {info['failed_frac']:.6g} 1 "
          f"({info['failed']} of {info['attempted']} commands)")
    for line, count in info["errors"].items():
        print(f"  failed x{count}: {line}")
    for key, value in info["derived"].items():
        print(f"  derived (not gated) {key} = {value:.6g}")
    for problem in info["problems"]:
        print(f"  CHECK FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringload" / "__init__.py").is_file():
        print(f"error: no ringload sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ringload
    import ringload.cli

    if Path(ringload.__file__).resolve().parent != SRC / "ringload":
        print(f"error: imported ringload from {ringload.__file__}", file=sys.stderr)
        return 2

    passes = max(1, round(args.seconds / REFERENCE_PASS_S[args.workload]))
    work = OUT / f"work-{os.getpid()}"
    commands = workloads.commands(args.workload, work)
    try:
        if args.trace:
            metrics, info = measure_traced(args, ringload, commands, passes, work, "full")
            units = dict(spans.LAYER_METRICS)
        else:
            for name in ringload.instances.BUILTIN_NAMES:  # warm the self-check cache
                ringload.instances.builtin(name)
            metrics, info = measure(args, ringload.cli, commands, passes, work, "full")
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(passes=passes, commands=len(commands))
    machine = machine_info()
    report(args, metrics, units, info, machine)
    correct = not info["problems"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine, "correct": correct,
                    "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                    **info}, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

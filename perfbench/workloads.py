"""Workload inputs and command lists.

Every input is generated from the workload seed; the same seed writes the
same bytes.  A workload is a list of `ringload` commands that a pass runs
in order.  `Sizes` holds the input sizes, so the smoke test can run the
same workloads on tiny inputs.

Why each workload exists:

  solve-large   `solve --alg auto` on large rings.  Random rings with
                half-integer splits uncross heavily and reduce to a tiny
                crossing form; random crossing rings uncross nothing and
                keep a large one.  Together they use `reduction` both ways;
                `model` and `fileio` see large inputs; `approx` runs on
                every command but costs milliseconds.  Crossing rings cost
                the same on every seed; three of m = 750 and three of
                m = 1000 put the median and the tail latency inside groups
                of commands of one size, not on the edge between sizes.
  exact-optima  the exact solvers: the 2^22 enumeration of fig7, `verify
                fig8`, brute force and DP on shared small crossing rings,
                the DP on crossing rings with D = 1000, and the DP on small
                half-integer rings, which fails at the time of writing
                (counted, not hidden).  A single DP instance's cost varies
                by about 35% from seed to seed, so eight D = 1000 rings of
                50 demands each keep the pass time steady across seeds.
  search-shard  two fixed shards of the m=8, D=10 family at threshold 11:
                4656/20000 holds fig6, 7777/20000 is the long-standing
                throughput baseline.  Each runs as its ten sub-shards of
                200000 (46560-46569 and 77770-77779 cover exactly the same
                indices), so a pass gives twenty latency samples and the
                tail is a percentile, not the slowest of a handful.  Decode
                and canonicalization dominate; the DP runs thousands of
                times with tiny D.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
NAMES = ("solve-large", "exact-optima", "search-shard")

# The search family and its threshold; shards are fixed, not seeded.
# Shard 4656/20000 is sub-shards 46560-46569 of 200000; fig6 is in 46568.
FAMILY_M, FAMILY_D, THRESHOLD = 8, 10, "11"
SEARCH_SHARDS = tuple(
    f"{i}/200000" for start in (46560, 77770) for i in range(start, start + 10)
)
FIG6_SHARD = "46568/200000"


def family_size(m: int = FAMILY_M, D: int = FAMILY_D) -> int:
    """Members of the structured family: ((D/2)^2 * (D-1))^(m/2)."""
    return ((D // 2) ** 2 * (D - 1)) ** (m // 2)


@dataclass(frozen=True)
class Sizes:
    random_k: tuple[int, ...]  # demands per random ring, on k/2 nodes
    random_d: int  # largest demand value of a random ring
    crossing_m: tuple[int, ...]  # demands per large crossing ring
    crossing_d: int
    brute_m: tuple[int, ...]  # crossing rings solved by brute force and DP
    large_m: int  # crossing rings with large D, DP only
    large_d: tuple[int, ...]
    half_rings: int  # small half-integer rings, DP and brute force
    half_k: int
    shards: tuple[str, ...]  # search shards; FIG6_SHARD must hit fig6
    fig6_shard: str


FULL = Sizes(
    random_k=(500, 1000, 1500, 2000),
    random_d=20,
    crossing_m=(250, 500, 750, 750, 750, 1000, 1000, 1000),
    crossing_d=20,
    brute_m=(17, 19, 21),
    large_m=50,
    large_d=(1000,) * 8,
    half_rings=12,
    half_k=12,
    shards=SEARCH_SHARDS,
    fig6_shard=FIG6_SHARD,
)

# About 1280 family indices around fig6's canonical form.
TINY_FIG6_SHARD = "465681/2000000"
TINY = Sizes(
    random_k=(40,),
    random_d=20,
    crossing_m=(20,),
    crossing_d=20,
    brute_m=(10,),
    large_m=10,
    large_d=(60,),
    half_rings=2,
    half_k=8,
    shards=(TINY_FIG6_SHARD,),
    fig6_shard=TINY_FIG6_SHARD,
)

SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Command:
    """One `ringload` invocation and what its output is checked against.

    kind is solve, optimum, verify or search.  ring names the input file
    (solve and optimum) and groups commands that share it, so the checks
    can compare brute force with the DP on the same ring.  crossing marks
    rings in crossing form, where the DP must equal brute force exactly.
    speed names the probe of speed.py that matches the command's work:
    "numpy" for the 2^k enumerator over at least one 2^16 chunk, where
    NumPy's matrix products do the work, "python" otherwise.
    """

    label: str
    argv: tuple[str, ...]
    kind: str
    ring: str | None = None
    path: str | None = None
    alg: str | None = None
    crossing: bool = False
    shard: str | None = None
    expect_fig6: bool = False
    speed: str = "python"


def _solve(work: Path, ring: str, alg: str, crossing: bool, what: str,
           speed: str = "python") -> Command:
    path = str(work / f"{ring}.json")
    return Command(
        label=f"solve-{alg} {what}",
        argv=("solve", "--alg", alg, "-i", path),
        kind="solve",
        ring=ring,
        path=path,
        alg=alg,
        crossing=crossing,
        speed=speed,
    )


def commands(workload: str, work: Path, sizes: Sizes = FULL) -> list[Command]:
    """The commands of one pass; files are those `write_inputs` makes."""
    if workload == "solve-large":
        cmds = [
            _solve(work, f"random-k{k}", "auto", False, f"random k={k}")
            for k in sizes.random_k
        ]
        cmds += [
            _solve(work, f"crossing-{t}", "auto", True, f"crossing m={m} #{t}")
            for t, m in enumerate(sizes.crossing_m)
        ]
        return cmds
    if workload == "exact-optima":
        cmds = [
            Command(
                "optimum fig7",
                ("optimum", "-i", str(work / "fig7.json")),
                "optimum",
                ring="fig7",
                path=str(work / "fig7.json"),
                speed="numpy",
            ),
            Command("verify fig8", ("verify", "fig8"), "verify", speed="numpy"),
        ]
        for m in sizes.brute_m:
            for alg in ("brute", "dp"):
                speed = "numpy" if alg == "brute" and m >= 16 else "python"
                cmds.append(_solve(work, f"small-m{m}", alg, True, f"crossing m={m}", speed))
        for t, D in enumerate(sizes.large_d):
            cmds.append(
                _solve(work, f"large-{t}", "dp", True, f"crossing m={sizes.large_m} D={D} #{t}")
            )
        for t in range(sizes.half_rings):
            for alg in ("dp", "brute"):
                cmds.append(_solve(work, f"half-{t}", alg, False, f"half-integer #{t}"))
        return cmds
    if workload == "search-shard":
        return [
            Command(
                f"search shard {shard}",
                (
                    "search", "--m", str(FAMILY_M), "--d", str(FAMILY_D),
                    "--threshold", THRESHOLD, "--shard", shard,
                ),
                "search",
                shard=shard,
                expect_fig6=shard == sizes.fig6_shard,
            )
            for shard in sizes.shards
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _random_ring(rl, k: int, D: int, rng: random.Random):
    """k demands on k/2 nodes, each strictly split in half units.

    Values d are uniform in 1..D and the clockwise amount uniform over the
    half-integers strictly between 0 and d, so most demands start split.
    """
    model, SCALE = rl.model, rl.scaled.SCALE
    n = max(3, k // 2)
    demands, cw = [], []
    for _ in range(k):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        d = rng.randint(1, D)
        demands.append(model.Demand(i, j, d * SCALE))
        cw.append(rng.randint(1, 2 * d - 1) * SCALE // 2)
    return model.RingInstance(n, tuple(demands)), model.SplitRouting(tuple(cw))


def _crossing_ring(rl, m: int, D: int, rng: random.Random):
    cross = rl.instances.random_crossing(m, D, rng.randrange(1 << 32))
    return cross.to_ring()


def write_inputs(rl, workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> list[Path]:
    """Generate the workload's input files from the seed; return their paths.

    rl is the imported `ringload` package.  The search workload has no
    input files.
    """
    rng = random.Random(f"{workload}:{seed}")
    rings = {}
    if workload == "solve-large":
        for k in sizes.random_k:
            rings[f"random-k{k}"] = _random_ring(rl, k, sizes.random_d, rng)
        for t, m in enumerate(sizes.crossing_m):
            rings[f"crossing-{t}"] = _crossing_ring(rl, m, sizes.crossing_d, rng)
    elif workload == "exact-optima":
        rings["fig7"] = rl.instances.builtin("fig7")
        for m in sizes.brute_m:
            rings[f"small-m{m}"] = _crossing_ring(rl, m, 10, rng)
        for t, D in enumerate(sizes.large_d):
            rings[f"large-{t}"] = _crossing_ring(rl, sizes.large_m, D, rng)
        for t in range(sizes.half_rings):
            rings[f"half-{t}"] = _random_ring(rl, sizes.half_k, 10, rng)
    elif workload != "search-shard":
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, (inst, split) in rings.items():
        path = work / f"{name}.json"
        path.write_bytes(rl.fileio.write_instance(inst, split))
        paths.append(path)
    return paths


def setup(rl, workload: str, seed: int, work: Path, sizes: Sizes = FULL, span=None) -> str:
    """Run the built-in self-checks and write every input; returns the
    SHA-256 of the written files, so repeated set-ups can be compared.

    span, when given, wraps each built-in self-check (the traced run).
    """
    span = span or (lambda name: nullcontext())
    for name in rl.instances.BUILTIN_NAMES:
        with span("instances.builtin"):
            rl.instances.builtin(name)
    digest = hashlib.sha256()
    for path in write_inputs(rl, workload, seed, work, sizes):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()

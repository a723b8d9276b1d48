"""Shared test helpers and the acceptance summary.

The terminal summary prints one PASS/FAIL line per acceptance criterion
so a plain `pytest` run always shows the per-criterion outcome.
"""

from __future__ import annotations

import random
import re

from hypothesis import strategies as st

from ringload.instances import random_crossing
from ringload.model import Demand, RingInstance, SplitRouting
from ringload.reduction import CrossingInstance, standalone_crossing
from ringload.scaled import from_int


def random_ring(rng: random.Random, max_n: int = 10, max_demands: int = 6,
                max_d: int = 8) -> tuple[RingInstance, SplitRouting]:
    """Random instance with a split routing on the half-integer grid."""
    n = rng.randint(3, max_n)
    demands, cw = [], []
    for _ in range(rng.randint(0, max_demands)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        d = rng.randint(0, max_d)
        demands.append(Demand(i, j, from_int(d)))
        cw.append(rng.randint(0, 2 * d) * 14)  # multiples of one half
    return RingInstance(n, tuple(demands)), SplitRouting(tuple(cw))


@st.composite
def split_rings(draw, max_demands=10):
    """Small rings: shared endpoints, identical and zero demands, half-integer splits."""
    n = draw(st.integers(3, 9))
    demands, cw = [], []
    for _ in range(draw(st.integers(0, max_demands))):
        if demands and draw(st.booleans()):
            dem = draw(st.sampled_from(demands))
        else:
            i = draw(st.integers(1, n - 1))
            dem = Demand(i, draw(st.integers(i + 1, n)), from_int(draw(st.integers(0, 6))))
        demands.append(dem)
        cw.append(draw(st.integers(0, 2 * dem.d // 28)) * 14)  # multiples of one half
    return RingInstance(n, tuple(demands)), SplitRouting(tuple(cw))


def criterion_8_crossings() -> list[CrossingInstance]:
    """The 500 crossing rings of criterion 8, m = 2..12 and D = 2..50."""
    rng = random.Random(8000)
    rings = []
    for trial in range(500):
        m = rng.randint(2, 12)
        D = rng.randint(2, 50)
        rings.append(random_crossing(m, D, seed=10_000 + trial))
    return rings


def random_small_big(rng: random.Random, m: int, D: int) -> CrossingInstance:
    """Crossing instance whose demands avoid the medium band at delta 2/7."""
    small_hi = 2 * D // 7
    big_lo = D - small_hi
    pairs = []
    for _ in range(m):
        if rng.random() < 0.5 and small_hi >= 2:
            d = rng.randint(2, small_hi)
        else:
            d = rng.randint(max(big_lo, 2), D)
        u = rng.randint(1, d - 1)
        pairs.append((from_int(u), from_int(d - u)))
    return standalone_crossing(tuple(pairs), from_int(D))


_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                outcome = "PASS" if status == "passed" else "FAIL"
                lines[number] = f"criterion {number:2d} [{match.group(2)}]: {outcome}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])

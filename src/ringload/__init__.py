"""Unsplittable demand routing on ring networks.

Turn any split routing into an unsplittable one with a certified additive
load increase of at most 19/14 times the maximum demand, compute exact
optima by dynamic programming or branch and bound, and search the structured
instance family for lower-bound examples.  All arithmetic is exact
fixed-point on the 1/28 grid.
"""

from .approx import (
    SolveReport,
    medium_demand_solve,
    small_big_solve,
    solution_from_pattern,
    solve_19_14,
    ssw_three_halves,
)
from .exact import (
    brute_force_min_increase,
    brute_force_optimum_L,
    dp_feasible,
    dp_min_increase,
)
from .fileio import parse_instance, write_instance
from .instances import (
    BUILTIN_NAMES,
    ExtensionResult,
    builtin,
    certify_split_optimal,
    equalize_extension,
    random_crossing,
)
from .model import (
    CCW,
    CW,
    Demand,
    LoadVector,
    RingInstance,
    SplitRouting,
    UnsplitRouting,
    additive_increase,
    edge_loads,
    validate_instance,
)
from .patterns import (
    Pattern,
    backward_greedy,
    crossover,
    find_close,
    forward_greedy,
    performance,
)
from .reduction import (
    CrossingInstance,
    demands_cross,
    lift_solution,
    reduce_to_crossing,
    standalone_crossing,
)
from .scaled import SCALE, Scaled, rational_str
from .search import CanonicalForm, SearchHit, StructuredFamily, search_lower_bound

__all__ = [name for name in dir() if not name.startswith("_")]

"""Unsplittable demand routing on ring networks.

Turn any split routing into an unsplittable one with a certified additive
load increase of at most 19/14 times the maximum demand, compute exact
optima by dynamic programming or branch and bound, and search the structured
instance family for lower-bound examples.  All arithmetic is exact
fixed-point on the 1/28 grid.

Only the exact solvers and the search use numpy.  Their modules, `exact`
and `search`, and the names re-exported from them resolve on first use
(a module __getattr__), so importing ringload does not import numpy.
"""

from .approx import (
    SolveReport,
    medium_demand_solve,
    small_big_solve,
    solution_from_pattern,
    solve_19_14,
    ssw_three_halves,
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
    lift_solution,
    reduce_to_crossing,
    standalone_crossing,
)
from .scaled import SCALE, Scaled, rational_str

# Name -> the module that defines it, imported on first access.
_LAZY = {
    "exact": "exact",
    "brute_force_min_increase": "exact",
    "brute_force_optimum_L": "exact",
    "dp_feasible": "exact",
    "dp_min_increase": "exact",
    "search": "search",
    "CanonicalForm": "search",
    "SearchHit": "search",
    "StructuredFamily": "search",
    "search_lower_bound": "search",
}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

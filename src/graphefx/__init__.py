"""EFX allocation toolkit for fair division on multi-graphs."""

from .allocation import Allocation, EfxVerdict, EnvyGraph, envy_graph, is_efx
from .errors import (CapacityError, GraphEfxError, InputError, PreconditionError,
                     UnsupportedClassError, UnsupportedValuationError)
from .multigraph import Coloring, MultiGraph
from .oracle import OracleReport, brute_force_efx, first_efx_allocation
from .partition import cut_and_choose
from .solvers import Instance, Verdict, chromatic_efx, classify, solve, tree_efx
from .valuation import (Additive, BudgetAdditive, Table, UnitDemand, Valuation,
                        is_cancellable_bruteforce)

__all__ = [
    "Additive", "Allocation", "BudgetAdditive", "CapacityError", "Coloring", "EfxVerdict",
    "EnvyGraph", "GraphEfxError", "InputError", "Instance", "MultiGraph", "OracleReport",
    "PreconditionError", "Table", "UnitDemand", "UnsupportedClassError",
    "UnsupportedValuationError", "Valuation", "Verdict", "brute_force_efx", "chromatic_efx",
    "classify", "cut_and_choose", "envy_graph", "first_efx_allocation",
    "is_cancellable_bruteforce", "is_efx", "solve", "tree_efx",
]

__version__ = "0.1.0"

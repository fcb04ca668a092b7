"""EFX allocation toolkit for fair division on multi-graphs.

The names below are imported from their modules on first use (PEP 562), so
``import graphefx.cli`` loads only the modules that the CLI imports.
"""

_EXPORTS = {
    "allocation": ("Allocation", "EfxVerdict", "EnvyGraph", "envy_graph", "is_efx"),
    "errors": ("CapacityError", "GraphEfxError", "InputError", "PreconditionError",
               "UnsupportedClassError", "UnsupportedValuationError"),
    "multigraph": ("Coloring", "MultiGraph"),
    "oracle": ("OracleReport", "brute_force_efx", "first_efx_allocation"),
    "partition": ("cut_and_choose",),
    "solvers": ("Instance", "Verdict", "chromatic_efx", "classify", "solve", "tree_efx"),
    "valuation": ("Additive", "BudgetAdditive", "Table", "UnitDemand", "Valuation",
                  "is_cancellable_bruteforce"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

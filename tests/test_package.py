import inspect
import pickle
import subprocess
import sys
from types import MappingProxyType

import pytest

import graphefx
from graphefx import (
    Additive,
    Allocation,
    BudgetAdditive,
    Coloring,
    EfxVerdict,
    InputError,
    Instance,
    MultiGraph,
    OracleReport,
    Table,
    UnitDemand,
    Verdict,
)
from graphefx.audit import AuditReport
from graphefx.generators import generate
from graphefx.jsonio import instance_to_json
from graphefx.trace import ColoringUsed, CycleResolved, LeafAttached, StructureResolved

from .conftest import replace
from .test_cli import _run_cli_env

# The modules of perfbench/tracing.py's LAYERS: its tracer reads each from
# sys.modules once graphefx.cli is imported, oracle included.
SOLVE_PATH = ("cli", "jsonio", "multigraph", "solvers", "partition",
              "allocation", "audit", "oracle", "valuation", "trace")
# Modules that only gen, solve --batch or nothing at all use.
OFF_THE_SOLVE_PATH = ("dataclasses", "inspect", "pickle", "graphefx.generators")


def test_import_cli_loads_the_solve_path_and_nothing_else():
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import graphefx.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_run_cli_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert {f"graphefx.{m}" for m in SOLVE_PATH} <= loaded
    assert not loaded & set(OFF_THE_SOLVE_PATH)


def test_import_graphefx_loads_nothing_off_the_solve_path():
    # the package imports its exports eagerly, each from a module the CLI loads anyway
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import graphefx\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_run_cli_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "graphefx.solvers" in loaded and not loaded & set(OFF_THE_SOLVE_PATH)


def test_every_exported_name_imports_and_is_listed():
    for name in graphefx.__all__:
        namespace = {}
        exec(f"from graphefx import {name}", namespace)
        assert namespace[name] is getattr(graphefx, name)
        assert name in dir(graphefx)
    assert graphefx.__all__ == sorted(graphefx.__all__)


def test_an_unknown_name_is_not_exported():
    with pytest.raises(AttributeError, match="module 'graphefx' has no attribute 'nope'"):
        graphefx.nope
    with pytest.raises(ImportError):
        exec("from graphefx import nope", {})


G = MultiGraph(2, [(0, 1), (0, 1)])
TABLE = {frozenset(): 0, frozenset({0}): 1, frozenset({1}): 2, frozenset({0, 1}): 2}

# Per class: a factory called twice for two equal objects, an unequal object,
# whether the objects hash, and their repr.
VALUES = [
    (lambda: Allocation(bundles={0: {0}, 1: ()}), Allocation(bundles={1: {0}}), False,
     "Allocation(bundles=mappingproxy({0: frozenset({0})}))"),
    (lambda: EfxVerdict(ok=False, witness=(0, 1, 2)), EfxVerdict(True, None), True,
     "EfxVerdict(ok=False, witness=(0, 1, 2))"),
    (lambda: AuditReport(results={"distance": (True, ())}),
     AuditReport(results={"distance": (False, ())}), False,
     "AuditReport(results={'distance': (True, ())})"),
    (lambda: Coloring(colors={0: 0, 1: 1}, t=2), Coloring(colors={0: 0, 1: 1}, t=3), False,
     "Coloring(colors={0: 0, 1: 1}, t=2)"),
    (lambda: OracleReport(efx_count=1, sample=None, searched=4),
     OracleReport(1, Allocation({0: {1}}), 4), True,
     "OracleReport(efx_count=1, sample=None, searched=4)"),
    (lambda: Instance(graph=G, valuations={0: Additive({0: 1}), 1: UnitDemand({})}),
     Instance(G, {0: Additive({0: 2}), 1: UnitDemand({})}), False,
     "Instance(graph=MultiGraph(n=2, m=2), valuations={0: Additive(values={0: 1}),"
     " 1: UnitDemand(values={})})"),
    (lambda: Verdict("tree"), Verdict("tree", "not a multi-tree"), True,
     "Verdict(solver='tree', reason=None, structure=None)"),
    (lambda: Verdict(solver="chromatic", structure=Coloring({0: 0}, 1)), Verdict("chromatic"),
     False, "Verdict(solver='chromatic', reason=None, structure=Coloring(colors={0: 0}, t=1))"),
    (lambda: ColoringUsed(colors={0: 0, 1: 1}, t=2), ColoringUsed(colors={0: 0, 1: 1}, t=3),
     False, "ColoringUsed(colors={0: 0, 1: 1}, t=2)"),
    (lambda: StructureResolved(phase=1, root=0, favourite=1, branch="different_bundles",
                               moves={0: 1}),
     StructureResolved(1, 0, None, None, {0: 1}), False,
     "StructureResolved(phase=1, root=0, favourite=1, branch='different_bundles',"
     " moves={0: 1})"),
    (lambda: LeafAttached(leaf=1, parent=0, pieces=(frozenset({0}), frozenset({1})),
                          leftover_to=0, moves={0: 1, 1: 0}),
     LeafAttached(1, 0, (frozenset({0}), frozenset({1})), 1, {}), False,
     "LeafAttached(leaf=1, parent=0, pieces=(frozenset({0}), frozenset({1})), leftover_to=0,"
     " moves={0: 1, 1: 0})"),
    (lambda: CycleResolved(cycle=(0, 1), moves={0: 1, 1: None}),
     CycleResolved((1, 0), {0: 1, 1: None}), False,
     "CycleResolved(cycle=(0, 1), moves={0: 1, 1: None})"),
    (lambda: Additive(values={0: 1, 1: 0}), UnitDemand(values={0: 1, 1: 0}), False,
     "Additive(values={0: 1, 1: 0})"),
    (lambda: UnitDemand({1: 5}), UnitDemand({1: 4}), False, "UnitDemand(values={1: 5})"),
    (lambda: BudgetAdditive(values={0: 3}, cap=2), BudgetAdditive({0: 3}, 3), False,
     "BudgetAdditive(values={0: 3}, cap=2)"),
    (lambda: Table(entries=TABLE), Table({frozenset(): 0}), False, f"Table(entries={TABLE})"),
]
IDS = [text.partition("(")[0] for *_, text in VALUES]


@pytest.mark.parametrize("make, unequal, hashable, text", VALUES, ids=IDS)
def test_a_value_class_compares_hashes_shows_and_refuses_changes_by_its_fields(
        make, unequal, hashable, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != unequal and not a == unequal
    assert a != 1 and a != tuple(vars(a).values())
    if hashable:
        assert hash(a) == hash(b)
    else:  # a dict or mappingproxy field, as for a dataclass of the same fields
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    assert repr(a) == text
    for field in (*type(a).fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    assert a == b


@pytest.mark.parametrize("cls", sorted({type(make()) for make, *_ in VALUES}, key=str))
def test_a_value_class_s_fields_are_its_init_parameters(cls):
    # the readers build objects from fields by position (valuations) and by name (events)
    params = inspect.signature(cls).parameters
    assert cls.fields == tuple(params)
    # a bad call names the class whose __init__ refuses it, whether Frozen built it or not
    sample = next(make() for make, *_ in VALUES if type(make()) is cls)
    given = dict(zip(cls.fields, sample._values()))
    required = [f for f in cls.fields if params[f].default is params[f].empty]
    owner = next(c for c in cls.__mro__ if "__init__" in vars(c)).__qualname__
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) missing 1 required"
                                        rf" positional argument: '{required[-1]}'$"):
        cls(**{f: v for f, v in given.items() if f != required[-1]})
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) got an unexpected"
                                        r" keyword argument 'other'$"):
        cls(**given, other=None)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_value_classes_survive_a_pickle_round_trip(protocol):
    for make, *_ in VALUES:
        obj = make()
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is type(obj)
        if isinstance(obj, Instance):  # a MultiGraph equals only itself
            assert back.graph.edges == obj.graph.edges and back.valuations == obj.valuations
        else:
            assert back == obj
            assert vars(back) == vars(obj)
    back = pickle.loads(pickle.dumps(Allocation({0: {0}}), protocol))
    assert isinstance(back.bundles, MappingProxyType)


def test_replace_builds_the_copy_with_its_class_s_checks():
    val = BudgetAdditive(values={0: 3}, cap=2)
    assert replace(val, cap=5) == BudgetAdditive({0: 3}, 5)
    assert replace(val) == val and replace(val) is not val
    with pytest.raises(InputError, match="cap must be a nonnegative integer"):
        replace(val, cap=-1)
    with pytest.raises(InputError, match="bundles are not disjoint at agent 1"):
        replace(Allocation({0: {0}}), bundles={0: {0}, 1: {0}})
    with pytest.raises(TypeError, match="BudgetAdditive has no field 'values_'"):
        replace(val, values_={})


class Custom(Additive):
    """A valuation of a kind that the instance format does not know."""

    kind = "custom"


# Checks that the file readers, or the command line's choices, make first on
# every command, kept for direct callers: each bad input built through the
# library, and its message.
LIBRARY_CHECKS = [
    pytest.param(lambda: Instance(G, {0: Additive({0: 1})}), "missing valuation for agent 1",
                 id="instance-missing-valuation"),
    pytest.param(lambda: Instance(MultiGraph(3, [(0, 1), (1, 2)]),
                                  {0: Additive({0: 1, 1: 2}), 1: Additive({}), 2: Additive({})}),
                 "valuation of agent 0 supports non-incident edges [1]",
                 id="instance-non-incident-support"),
    pytest.param(lambda: MultiGraph(-1, []), "vertex_count must be nonnegative",
                 id="graph-negative-vertex-count"),
    pytest.param(lambda: MultiGraph(2, [(0, 1), (0, 2)]), "edge 1 has endpoint outside 0..1",
                 id="graph-endpoint-out-of-range"),
    pytest.param(lambda: G.endpoints(2), "unknown edge id 2", id="graph-unknown-edge"),
    pytest.param(lambda: G.find_coloring(0), "t_max must be at least 1",
                 id="graph-coloring-t-max-0"),
    pytest.param(lambda: Table({frozenset(): 0, frozenset({0}): -1}),
                 "table values must be nonnegative integers", id="table-negative-value"),
    pytest.param(lambda: Table({frozenset(): 0, frozenset({0}): 1.5}),
                 "table values must be nonnegative integers", id="table-non-integer-value"),
    pytest.param(lambda: instance_to_json(Instance(G, {0: Custom({0: 1}), 1: Additive({})}),
                                          ["a", "b"]),
                 "cannot serialize valuation Custom(values={0: 1})", id="json-unknown-kind"),
    pytest.param(lambda: generate("grid", seed=0),
                 "unknown family 'grid'; expected one of"
                 " ['bipartite', 'multicycle', 'multitree', 'petersen']", id="gen-unknown-family"),
    pytest.param(lambda: generate("multitree", seed=0, valuation_kind="convex", n=3),
                 "unknown valuation kind 'convex'", id="gen-unknown-valuation-kind"),
]


@pytest.mark.parametrize("make, message", LIBRARY_CHECKS)
def test_a_bad_input_built_through_the_library_raises_input_error(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message

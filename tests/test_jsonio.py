import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphefx import Allocation, InputError, Instance, MultiGraph, Table, UnitDemand, solve
from graphefx.generators import gen_multitree
from graphefx.jsonio import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    load_allocation,
    load_coloring,
    load_instance,
    load_trace,
    save_allocation,
    save_instance,
    save_trace,
)
from graphefx.trace import BRANCHES, event_line

from .conftest import additive_instance

# Small ints hit real agent and good ids; the rest are any other JSON values.
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 12), st.integers(),
                        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)


def _slots(value):
    """Every (container, key) of a nested JSON value, outermost first."""
    slots, todo = [], [value]
    while todo:
        container = todo.pop()
        keys = range(len(container)) if isinstance(container, list) else list(container)
        for key in keys:
            slots.append((container, key))
            if isinstance(container[key], (list, dict)):
                todo.append(container[key])
    return slots


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three random edits: replace a value with any JSON
    value or with a copy of another value of the document, delete it, or
    insert a new one beside it."""
    root = [copy.deepcopy(doc)]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(root)))
        edit = draw(st.sampled_from(["replace", "copy", "delete", "insert"]))
        if edit == "replace" or (edit == "delete" and container is root):
            container[key] = draw(JSON_VALUES)
        elif edit == "copy":
            other, other_key = draw(st.sampled_from(_slots(root)))
            container[key] = copy.deepcopy(other[other_key])
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, draw(JSON_VALUES))
        else:
            container[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return root[0]


# Other spellings of an integer's text, which a JSON object key naming an id may not take.
SPELLINGS = [lambda k: f" {k}", lambda k: f"{k} ", lambda k: f"0{k}", lambda k: f"+{k}",
             lambda k: f"{k}_0", lambda k: k.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]
# The fields of each event kind whose keys are ids.
ID_KEYED = {"coloring_used": ("colors",), "structure_resolved": ("snapshot",),
            "leaf_attached": ("snapshot",), "cycle_resolved": ("snapshot",)}


@st.composite
def lax(draw, lines):
    """Trace ``lines`` with one edit that only a lax reader accepts: a
    ``structure_resolved`` branch that is not a branch name or null, or an
    id key spelled otherwise than as its integer's own text."""
    lines = copy.deepcopy(lines)
    slots = [(line, "branch") for line in lines if line["type"] == "structure_resolved"]
    slots += [(line[f], k) for line in lines for f in ID_KEYED[line["type"]] for k in line[f]]
    container, key = draw(st.sampled_from(slots))
    if key == "branch":
        container[key] = draw(JSON_VALUES.filter(lambda x: x is not None))
    else:
        container[draw(st.sampled_from(SPELLINGS))(key)] = container.pop(key)
    return lines


def _lax(lines):
    """Whether a trace's ``lines`` hold an edit that ``lax`` could make."""
    for line in lines:
        if line["type"] == "structure_resolved" and line["branch"] not in (None, *BRANCHES):
            return True
        keys = [k for f in ID_KEYED[line["type"]] for k in line[f]]
        if any(k != str(int(k)) for k in keys):
            return True
    return False


def _lines(trace):
    """Each event's trace line, written with one running snapshot."""
    texts = {}
    return [event_line(ev, texts) for ev in trace]


def _instance():
    """A tree of additive, unit-demand and table agents beside a 4-cycle."""
    tree, _ = gen_multitree(seed=1, n=4, max_parallel=2, value_max=9, valuation_kind="table")
    n = tree.graph.vertex_count
    cycle = [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, n)]
    graph = MultiGraph(n + 4, list(tree.graph.edges) + cycle)
    vals = dict(additive_instance(graph).valuations)
    vals.update(tree.valuations)
    vals[n + 1] = UnitDemand(values=dict(vals[n + 1].values))
    assert any(isinstance(v, Table) for v in vals.values())
    return Instance(graph=graph, valuations=vals), [f"a{i}" for i in range(graph.vertex_count)]


INSTANCE, NAMES = _instance()
ALLOCATION, _, TRACE = solve(INSTANCE)
DOCS = {
    "instance": instance_to_json(INSTANCE, NAMES),
    "allocation": allocation_to_json(ALLOCATION, NAMES),
    "trace": [json.loads(line) for line in _lines(TRACE)],
    "coloring": {"colors": {name: i % 3 for i, name in enumerate(NAMES)}, "t": 3},
}
# Per document: how to load a file, how to save what was read, and its
# encoding.  A trace that is read, saved and read again must encode the same.
LOADERS = {
    "coloring": (lambda path: load_coloring(path, NAMES), None,
                 lambda got: {"colors": {NAMES[u]: c for u, c in got.colors.items()}, "t": got.t}),
    "instance": (load_instance, lambda got, path: save_instance(*got, path),
                 lambda got: instance_to_json(*got)),
    "allocation": (lambda path: load_allocation(path, NAMES, INSTANCE.graph.edge_count),
                   lambda got, path: save_allocation(got, NAMES, path),
                   lambda got: allocation_to_json(got, NAMES)),
    "trace": (lambda path: load_trace(path, INSTANCE.graph), save_trace, _lines),
}


def canonical(kind, doc):
    """The writer's encoding of what a reader accepted from an instance or an
    allocation document ``doc``: ``doc`` with version "1" filled in, the
    edges sorted by id, each edge's endpoints in agent declaration order,
    the goods of each table set and each bundle sorted, the table entries
    sorted by (size, goods), and empty bundles dropped.  Nothing else may
    differ, so a reader that ignores or reinterprets a part of ``doc``
    fails the comparison.  A ``--coloring`` file has no version and no
    normalisation: it is ``doc`` itself."""
    if kind == "coloring":
        return doc
    doc = {"version": "1", **copy.deepcopy(doc)}
    if kind == "allocation":
        doc["bundles"] = {name: sorted(b) for name, b in doc["bundles"].items() if b}
        return doc
    order = {name: i for i, name in enumerate(doc["agents"])}
    for e in doc["edges"]:
        e["endpoints"].sort(key=order.get)
    doc["edges"].sort(key=lambda e: e["id"])
    for val in doc["valuations"].values():
        if val["type"] == "table":
            for e in val["entries"]:
                e["goods"].sort()
            val["entries"].sort(key=lambda e: (len(e["goods"]), e["goods"]))
    return doc


def test_the_documents_cover_every_event_kind():
    assert {ev["type"] for ev in DOCS["trace"]} == {
        "coloring_used", "structure_resolved", "leaf_attached", "cycle_resolved"}


def test_a_document_without_a_version_loads():
    instance = {k: v for k, v in DOCS["instance"].items() if k != "version"}
    allocation = {k: v for k, v in DOCS["allocation"].items() if k != "version"}
    assert instance_to_json(*instance_from_json(instance)) == DOCS["instance"]
    alloc = allocation_from_json(allocation, NAMES, INSTANCE.graph.edge_count)
    assert allocation_to_json(alloc, NAMES) == DOCS["allocation"]


@pytest.mark.parametrize("kind", sorted(DOCS))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_document_round_trips_or_raises_input_error(tmp_path_factory, kind, data):
    # An instance, an allocation or a coloring file that loads must read as
    # its canonical form.  A trace must read back as it was read, and may also hold an
    # edit that only a lax reader accepts, which must raise InputError too.
    doc = DOCS[kind]
    if kind == "trace" and data.draw(st.booleans()):
        doc = data.draw(lax(doc))
    doc = data.draw(mutated(doc))
    load, save, key = LOADERS[kind]
    folder = tmp_path_factory.mktemp(kind)
    path, again = folder / "doc", folder / "again"
    lines = doc if kind == "trace" and isinstance(doc, list) else [doc]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    try:
        got = load(path)
    except InputError:
        return
    if kind != "trace":
        assert key(got) == canonical(kind, doc)
        return
    assert not _lax(lines)
    save(got, again)
    assert key(load(again)) == key(got)


# Names with quotes, backslashes, control and non-ASCII characters.  Raw and
# quoted order differ for "é" and "z", since "é" is quoted as "\u00e9", and
# for 'a"' and "a#", since 'a"' is quoted as "a\"".
_NAMES = st.lists(st.sampled_from(("é", "z", 'a"', "a#", "\\", "\x00")) | st.text(max_size=4),
                  unique=True, max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_NAMES, st.data())
def test_the_allocation_writer_writes_what_json_dumps_writes(tmp_path_factory, names, data):
    # Each of up to 40 goods goes to an agent or to no one, so an allocation
    # may be empty and a bundle may hold one good.  Goods above 7 make a
    # set's iteration order differ from its sorted order.
    holders = data.draw(st.lists(st.none() | st.integers(0, len(names) - 1), max_size=40)
                        if names else st.just([]))
    bundles: dict = {}
    for g, u in enumerate(holders):
        if u is not None:
            bundles.setdefault(u, set()).add(g)
    alloc = Allocation(bundles=bundles)
    path = tmp_path_factory.mktemp("allocation") / "a.json"
    save_allocation(alloc, names, path)
    want = json.dumps(allocation_to_json(alloc, names), indent=2, sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == want
    assert load_allocation(path, names, len(holders)) == alloc

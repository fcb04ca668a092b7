"""Replay solver traces against the solver invariants.

Four invariant families are audited on phase-based (bipartite / chromatic)
traces:

* localized envy      -- every allocation a structure event leaves is EFX, and
                         any envy edge points from a resolved root's favourite
                         neighbour to that root;
* good movement       -- each transfer of a structure event, its move of a good
                         held before it, goes from its root to its favourite,
                         and no good is transferred twice in one phase;
* allocated distances -- an agent valuing a held good is within color-bounded
                         hop distance of the holder, along allocated edges;
* unresolved union    -- an unresolved agent never envies the union of all
                         other unresolved agents' bundles.

The families apply to a trace that holds a structure event.  Tree traces hold
none and carry none of these obligations, so every family reports as not
applicable on them.

The colors are one map, merged over the trace's coloring events: a
component-wise solve emits one per phase-based component, on disjoint
vertices, and a trace without one colors no agent.  The distance family looks
up the colors of each good's endpoints and holder, and raises InputError at
the first structure event that involves an agent the map leaves uncolored.
The trace readers do not check colors.  Events hold ``moves``; a file keeps
them as ``snapshot`` and ``transfers``, and its reader checks the two agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .allocation import Allocation, EnvyGraph
from .errors import InputError
from .frozen import Frozen
from .trace import ColoringUsed, StructureResolved, TraceEvent

if TYPE_CHECKING:
    from .solvers import Instance

FAMILIES = ("localized_envy", "good_movement", "distance", "unresolved_union")


class AuditReport(Frozen):
    # family -> (applicable, violation messages)
    results: dict[str, tuple[bool, tuple[str, ...]]]

    @property
    def ok(self) -> bool:
        return all(not msgs for _, msgs in self.results.values())

    def status(self, family: str) -> str:
        """"n/a" when ``family`` does not apply to the trace, else "pass" or "fail"."""
        applicable, msgs = self.results[family]
        return "n/a" if not applicable else ("pass" if not msgs else "fail")


def _structure_steps(trace: list[TraceEvent]
                     ) -> Iterator[tuple[int, StructureResolved, dict[int, Optional[int]]]]:
    """(index, event, moves) for each StructureResolved event of ``trace``.

    The moves are the event's own on top of those of the tree events since
    the previous structure event, which the audit does not read: from one
    structure event's allocation to the next.
    """
    moves: dict[int, Optional[int]] = {}
    for i, ev in enumerate(trace):
        if not isinstance(ev, ColoringUsed):
            moves.update(ev.moves)
            if isinstance(ev, StructureResolved):
                yield i, ev, moves
                moves = {}


def _connect(adj: dict[int, set[int]], a: int, b: int) -> None:
    adj.setdefault(a, set()).add(b)
    adj.setdefault(b, set()).add(a)


def _within(adj: dict[int, set[int]], src: int, dst: int, depth: int) -> bool:
    """Whether ``dst`` is at most ``depth`` hops from ``src`` along ``adj``.

    Balls grow from both ends, the one with the smaller frontier first, and
    each of the ``depth`` steps grows one of them by a hop.  The balls are
    disjoint until a new frontier meets the other ball's frontier, and then
    the ends are exactly as many hops apart as there were steps.
    """
    if src == dst:
        return depth >= 0
    if dst in adj.get(src, ()):
        return depth >= 1
    near, far = {src}, {dst}  # the frontiers
    seen_near, seen_far = {src}, {dst}  # the balls
    for _ in range(depth):
        if len(far) < len(near):
            near, far, seen_near, seen_far = far, near, seen_far, seen_near
        near = set().union(*(adj.get(x, ()) for x in near)) - seen_near
        if not near:
            return False
        if not near.isdisjoint(far):
            return True
        seen_near |= near
    return False


def audit_trace(inst: "Instance", trace: list[TraceEvent]) -> AuditReport:
    """Check the allocation after every structure event of a phase-based trace
    against all four families.

    Envy is only checked between agents that share a good, which is exact
    because every valuation's support lies within the agent's incident edges.

    The audit steps one ``EnvyGraph`` in place by each structure event's
    moves, reads the bundles from it, and rechecks only what the agents
    whose bundles changed can affect; the report equals that of checking
    every such allocation from scratch:

    * every envy edge that a step adds or removes has an endpoint whose
      bundle changed.  An edge's EFX witness depends on its two bundles only,
      and whether it is stray (not from a resolved root's favourite to that
      root) changes only when it appears or its head is the event's root.
      So the stray edges are kept across events, and every one is reported
      at every event;
    * while no good is withdrawn, the allocated edges only grow, so an
      allocated distance only shrinks and a distance check that passed stays
      passed while its good keeps its holder.  A withdrawal rechecks every good.
      The adjacency along the allocated edges is brought up to date only
      when a check needs a search.
      A good held by one of its endpoints that is the good's root or colored
      higher passes all three checks without a search: the good is itself
      an allocated edge joining its endpoints, so the holder is 0 hops from
      itself and 1 from the other endpoint, within the valuers' bounds of
      color + 1 >= 1 and the root's bound of color(holder) - color(root);
    * a good held by the favourite w of one of its endpoints e, where a good
      of the (e, w) loop is held, passes all three checks without a search
      when color(w) >= 1 and color(w) - color(root) is at least 1 if e is
      the good's root, else 2: the held loop good puts w 1 hop from e, and
      the good itself puts w at most 2 hops from its other endpoint.  This
      is the keep branch's case, where a root's favourite takes goods that
      are not incident to it;
    * an unresolved agent z values only its incident goods, so its union
      check depends only on its own value and on the holders of those goods
      and which of them are resolved.  Resolving one more root, or moving
      one of those goods to z, to a resolved root or off the allocation,
      can only shrink the union.  So a check that passed can fail only when
      z gives up a good, and its own value may fall, or when one of its
      goods moves to another unresolved agent, and the union may grow.
    Checks that failed at the previous structure event are always made again.
    """
    if not any(isinstance(ev, StructureResolved) for ev in trace):
        return AuditReport(results={f: (False, ()) for f in FAMILIES})
    colors = {v: c for ev in trace if isinstance(ev, ColoringUsed) for v, c in ev.colors.items()}
    found: dict[str, list[str]] = {f: [] for f in FAMILIES}  # family -> violation messages
    localized, movement, distance, union = found.values()  # in the order of FAMILIES

    favourite_of: dict[int, Optional[int]] = {}
    resolved = favourite_of.keys()  # the roots resolved so far
    phase_moved: dict[int, set[int]] = {}
    envy = EnvyGraph(inst, Allocation.empty())
    holder = envy.holder
    ends = inst.graph.edges  # good -> endpoints; every good the audit reads is checked
    unfair: dict[tuple[int, int], int] = {}  # envy edge -> its EFX witness, where it has one
    stray: set[tuple[int, int]] = set()  # envy edges not from a resolved root's favourite to it
    adj: dict[int, set[int]] = {}  # skeleton adjacency along the allocated edges, less unlinked
    unlinked: list[int] = []  # allocated goods not yet in adj, linked before a search
    far_goods: set[int] = set()  # goods whose distance checks failed at the previous event
    union_enviers: set[int] = set()  # agents whose union check failed at the previous event

    for idx, ev, moves in _structure_steps(trace):
        favourite_of[ev.root] = ev.favourite
        transfers = sorted((g, holder[g], to) for g, to in moves.items()
                           if to is not None and holder.get(g, to) != to)
        moved, shrank = envy.step(moves)
        changed = shrank.union(map(holder.get, moved)) - {None}

        # localized envy: the allocation is EFX, envy only favourite -> resolved root
        unfair = {e: x for e, x in unfair.items() if changed.isdisjoint(e)}
        touched = {(y, w) for y in changed for w in envy.out_neighbours(y)}
        touched.update((u, y) for y in changed for u in envy.in_neighbours(y))
        for u, w in touched:
            x = envy.efx_witness(u, w)
            if x is not None:
                unfair[u, w] = x
        if unfair:
            first = min(unfair)
            localized.append(f"event {idx}: snapshot is not EFX, witness {(*first, unfair[first])}")
        # stray edges: re-decide those at changed agents and into the root (see above)
        stray = {e for e in stray if changed.isdisjoint(e)}
        for a, b in touched.union((u, ev.root) for u in envy.in_neighbours(ev.root)):
            if b not in resolved or favourite_of.get(b) != a:
                stray.add((a, b))
            else:
                stray.discard((a, b))
        for a, b in sorted(stray):
            localized.append(f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root")

        # good movement: only root -> favourite, at most once per phase
        moved_in_phase = phase_moved.setdefault(ev.phase, set())
        for g, frm, to in transfers:
            if frm != ev.root or to != ev.favourite:
                movement.append(
                    f"event {idx}: good {g} moved {frm}->{to}, expected root->favourite"
                )
            if g in moved_in_phase:
                movement.append(f"event {idx}: good {g} transferred twice in phase {ev.phase}")
            moved_in_phase.add(g)

        # distances along allocated edges; a good held by one of its endpoints
        # that is its root or colored higher passes all three checks, and so
        # does one held by an endpoint's favourite that a held good of their
        # loop joins to it, within the color bounds (see above)
        if any(g not in holder for g in moved):
            adj, unlinked = {}, list(holder)
            recheck = set(holder)
        else:
            unlinked.extend(moved)
            recheck = moved | far_goods
        far_goods = set()
        for g in sorted(recheck):
            w = holder[g]
            a, b = ends[g]
            # every good a changed bundle holds was moved, and so looked up here, at that
            # event or earlier: a missing color is met at the first event that involves it
            try:  # a trace read from a file may leave an agent it involves uncolored
                c_a, c_b, c_w = colors[a], colors[b], colors[w]
            except KeyError as missing:
                raise InputError(f"trace event {idx} involves agent {missing.args[0]},"
                                 " which has no color") from None
            root, c_root = (a, c_a) if c_a < c_b else (b, c_b)
            if w == a or w == b:
                if w == root or c_w > c_root:
                    continue
            elif c_w >= 1 and any(
                    favourite_of.get(e) == w and c_w - c_root >= 1 + (e != root)
                    and not holder.keys().isdisjoint(inst.graph.parallel_edges(e, w))
                    for e in (a, b)):
                continue
            for h in unlinked:
                _connect(adj, *ends[h])
            unlinked = []
            c_w += 1
            for z in (a, b):
                if not _within(adj, z, w, c_w):
                    far_goods.add(g)
                    distance.append(
                        f"event {idx}: valuer {z} of good {g} is farther than {c_w} from holder {w}"
                    )
            bound = c_w - (c_root + 1)
            if not _within(adj, root, w, bound):
                far_goods.add(g)
                distance.append(
                    f"event {idx}: structure root {root} of good {g} is farther than"
                    f" {bound} from holder {w}"
                )

        # unresolved union: z values only its incident goods, so the union of
        # the other unresolved bundles is worth what z's incident goods in it
        # are; recheck z when it gives up a good or its goods reach another
        # unresolved agent (see above)
        suspects = union_enviers.union(shrank)
        for g in moved:
            w = holder.get(g)
            if w is not None and w not in resolved:
                suspects.update(z for z in ends[g] if z != w)
        union_enviers = set()
        # filtered, not `suspects - resolved`, which walks every resolved root
        for z in sorted(z for z in suspects if z not in resolved):
            rest = [g for g in inst.graph.incident_edges(z)
                    if holder.get(g, z) != z and holder[g] not in resolved]
            if not rest:
                continue
            if envy.own_value(z) < inst.valuations[z].value(rest):
                union_enviers.add(z)
                union.append(
                    f"event {idx}: unresolved agent {z} envies the union of unresolved bundles"
                )

    return AuditReport(results={f: (True, tuple(msgs)) for f, msgs in found.items()})

"""Multi-graph with the structural queries the solvers' preconditions need.

Agents are vertices 0..n-1, goods are edges 0..m-1.  Parallel edges are
first-class; girth, bipartiteness, tree tests and colorings all operate on the
simple skeleton (parallel multiplicity never matters for them).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Sequence

from .errors import InputError
from .frozen import Frozen

# One connected component's sorted vertex list; None stands for every vertex.
Component = Optional[Sequence[int]]


class Coloring(Frozen):
    """Vertex -> color map using colors 0..t-1.  Properness is not implied."""

    colors: dict[int, int]
    t: int

    def __init__(self, colors: dict[int, int], t: int):
        self._set(colors, t)


class MultiGraph:
    """Immutable multi-graph.  Edge ids are dense: edge i is ``edges[i]``.

    Self-loops are rejected: every good must have two distinct endpoint agents.
    The structural queries take an optional ``component`` and then answer
    for that component alone, on the graph's own ids.
    """

    def __init__(self, vertex_count: int, edges: list[tuple[int, int]]):
        if vertex_count < 0:
            raise InputError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        pairs = []
        by_pair: dict[tuple[int, int], set[int]] = {}
        incident: list[set[int]] = [set() for _ in range(vertex_count)]
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for eid, (u, w) in enumerate(edges):
            if not (0 <= u < vertex_count) or not (0 <= w < vertex_count):
                raise InputError(f"edge {eid} has endpoint outside 0..{vertex_count - 1}")
            if u == w:
                raise InputError(f"edge {eid} is a self-loop at vertex {u}")
            pair = (u, w) if u < w else (w, u)
            pairs.append(pair)
            by_pair.setdefault(pair, set()).add(eid)
            incident[u].add(eid)
            incident[w].add(eid)
            adj[u].add(w)
            adj[w].add(u)
        self.edges: tuple[tuple[int, int], ...] = tuple(pairs)
        self._by_pair: dict[tuple[int, int], frozenset[int]] = {
            p: frozenset(s) for p, s in by_pair.items()}
        self._incident = tuple(frozenset(s) for s in incident)
        self._adj = tuple(frozenset(s) for s in adj)
        # The graph never changes, so structural queries are computed once.
        # Cached values are immutable; callers get fresh lists and colorings.
        self._memo: dict[object, object] = {}

    def vertices(self, component: Component = None) -> Sequence[int]:
        """The vertices of ``component``; every vertex when it is None."""
        return range(self.vertex_count) if component is None else component

    def _memo_key(self, key: object, vertices: Sequence[int]) -> object:
        if len(vertices) != self.vertex_count:  # a component that is not the whole graph
            return key, tuple(vertices)
        return key

    def _memoized(self, key: object, component: Component, compute):
        vertices = self.vertices(component)
        key = self._memo_key(key, vertices)
        if key not in self._memo:
            self._memo[key] = compute(vertices)
        return self._memo[key]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.vertex_count):
            raise InputError(f"invalid vertex index {u}")

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < len(self.edges)):
            raise InputError(f"unknown edge id {eid}")
        return self.edges[eid]

    def parallel_edges(self, u: int, w: int) -> frozenset[int]:
        """All edge ids with endpoint pair {u, w}; symmetric in (u, w)."""
        self._check_vertex(u)
        self._check_vertex(w)
        return self._by_pair.get((min(u, w), max(u, w)), frozenset())

    def neighbours(self, u: int) -> frozenset[int]:
        self._check_vertex(u)
        return self._adj[u]

    def incident_edges(self, u: int) -> frozenset[int]:
        self._check_vertex(u)
        return self._incident[u]

    def edges_of(self, component: Component = None) -> Sequence[int]:
        """Ids of the edges with an endpoint in ``component``, ascending."""
        if len(self.vertices(component)) == self.vertex_count:
            return range(len(self.edges))
        return sorted(frozenset().union(*map(self._incident.__getitem__, component)))

    def bipartition(self, component: Component = None) -> Optional[Coloring]:
        """Proper 2-coloring of the skeleton, or None.

        The lowest-indexed vertex of each connected component gets color 0,
        and the colors are keyed in ascending vertex order.  Each call returns
        a new ``Coloring``, so a caller cannot change the cached one.
        """
        colors = self._memoized("bipartition", component, self._bipartition)
        return None if colors is None else Coloring(colors=dict(colors), t=2)

    def _bipartition(self, vertices: Sequence[int]) -> Optional[tuple[tuple[int, int], ...]]:
        side: dict[int, int] = {}
        for start in vertices:
            if start in side:
                continue
            side[start] = 0
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in sorted(self._adj[x]):
                    if y not in side:
                        side[y] = 1 - side[x]
                        queue.append(y)
                    elif side[y] == side[x]:
                        return None
        return tuple((v, side[v]) for v in vertices)

    def is_multitree(self, component: Component = None) -> bool:
        """True iff the simple skeleton is a forest: each component has one
        vertex more than its skeleton edges."""
        parts = self._components() if component is None else (component,)
        return all(sum(map(len, map(self._adj.__getitem__, p))) == 2 * len(p) - 2 for p in parts)

    def girth(self, component: Component = None, limit: Optional[int] = None) -> float:
        """Length of the shortest skeleton cycle; math.inf on a forest.

        With a ``limit``, math.inf also when the girth exceeds it.  One
        ``_girth`` search serves every limit and ``shortest_cycle``: it is
        memoized with the limit it searched and the cycle it found, so it
        answers every smaller limit too.
        """
        best = self._girth_memo(component, math.inf if limit is None else limit)[1]
        return best if limit is None or best <= limit else math.inf

    def shortest_cycle(self, component: Component = None) -> tuple[float, Optional[list[int]]]:
        """(girth, one shortest cycle as a vertex list), (inf, None) on forests.

        The cycle is the one the girth search closed when it found the
        girth, so it costs nothing beyond ``girth(component)``.
        """
        _, best, cycle = self._girth_memo(component, math.inf)
        return best, None if cycle is None else list(cycle)

    def _girth_memo(self, component: Component,
                    limit: float) -> tuple[float, float, Optional[tuple[int, ...]]]:
        # (limit searched, girth or inf, a shortest cycle or None), searched
        # again only when no cycle was found and the limit grows
        if limit < 3:  # no skeleton cycle is shorter than 3
            return limit, math.inf, None
        vertices = self.vertices(component)
        key = self._memo_key("girth", vertices)
        found = self._memo.get(key, (0, math.inf, None))
        if found[1] == math.inf and found[0] < limit:
            found = self._memo[key] = (limit, *self._girth(vertices, limit))
        return found

    def _girth(self, vertices: Sequence[int],
               limit: float) -> tuple[float, Optional[tuple[int, ...]]]:
        # BFS from the lowest vertex left, then delete it and peel what is
        # left to its 2-core; repeat until nothing is left.  A shortest cycle
        # loses no vertex to peeling, so it is whole at the BFS from its first
        # deleted vertex, which finds a closed walk through that vertex no
        # longer than the cycle.  Every closed walk a BFS finds holds a cycle,
        # so no BFS gives less than the girth.  An edge from depth k closes a
        # walk of at least 2k edges, and only walks shorter than ``best``, the
        # shortest so far or else limit + 1, count.  So a BFS stops at the
        # depth k where 2k reaches it, and discovers no vertex when 2k + 2 does.
        # The walk root -> x, y -> root that sets the final ``best`` is a
        # shortest cycle: were its two tree paths to meet below the root, it
        # would hold a cycle shorter than the girth.
        adj = self._adj
        degree = {v: len(adj[v]) for v in vertices}  # the vertices left, and their degrees

        def delete(stack: list[int]) -> None:
            while stack:
                v = stack.pop()
                if degree.pop(v, None) is None:
                    continue
                for y in adj[v]:
                    if y in degree:
                        degree[y] -= 1
                        if degree[y] == 1:
                            stack.append(y)

        best = limit + 1
        walk = None  # (parent, x, y) of the shortest closed walk so far
        delete([v for v in vertices if degree[v] < 2])
        for root in vertices:
            if root not in degree:
                continue
            dist = {root: 0}
            parent = {root: -1}
            level = [root]
            depth = 0
            while level and 2 * depth < best:
                grow = 2 * depth + 2 < best
                below = []
                for x in level:
                    for y in adj[x]:
                        if y not in degree:
                            continue
                        if y not in dist:
                            if grow:
                                dist[y] = depth + 1
                                parent[y] = x
                                below.append(y)
                        elif parent[x] != y and depth + dist[y] + 1 < best:
                            best = depth + dist[y] + 1
                            walk = parent, x, y
                level = below
                depth += 1
            delete([root])
        if walk is None:  # a forest, or no cycle within the limit
            return math.inf, None
        parent, x, y = walk
        path_x, path_y = [x], [y]
        for path in (path_x, path_y):
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
        return best, tuple(path_x + path_y[-2::-1])

    def validate_coloring(self, col: Coloring, component: Component = None) -> tuple[bool, Optional[int]]:
        """(True, None) if proper, else (False, lowest violating edge id)."""
        for v in self.vertices(component):
            if v not in col.colors:
                raise InputError(f"coloring is missing vertex {v}")
            if not (0 <= col.colors[v] < col.t):
                raise InputError(f"vertex {v} has color outside 0..{col.t - 1}")
        for eid in self.edges_of(component):
            u, w = self.edges[eid]
            if col.colors[u] == col.colors[w]:
                return False, eid
        return True, None

    def find_coloring(self, t_max: int, component: Component = None) -> Optional[Coloring]:
        """Smallest proper coloring with at most t_max colors.

        t = 1 needs no edges and t = 2 is the bipartition's coloring.  Only
        t >= 3 is an exact search, for desk-scale graphs (n <= 20 or so):
        vertices in index order, colors ascending, which is deterministic.
        It runs once per t_max and component.  Each call returns a new
        ``Coloring``, so a caller cannot change the cached one.
        """
        if t_max < 1:
            raise InputError("t_max must be at least 1")

        def search(vertices: Sequence[int]) -> Optional[tuple[tuple[tuple[int, int], ...], int]]:
            if not any(map(self._adj.__getitem__, vertices)):
                return tuple((v, 0) for v in vertices), 1
            col = self.bipartition(component)
            if col is not None:
                return (tuple(col.colors.items()), 2) if t_max >= 2 else None
            for t in range(3, t_max + 1):
                colors = self._try_color(t, vertices)
                if colors is not None:
                    return tuple(colors.items()), t
            return None

        found = self._memoized(("find_coloring", t_max), component, search)
        return None if found is None else Coloring(colors=dict(found[0]), t=found[1])

    def _try_color(self, t: int, vertices: Sequence[int]) -> Optional[dict[int, int]]:
        # Backtracking with an explicit stack: ``colors`` maps the leading
        # vertices, in order, to their colors, and ``c`` is the next color to
        # try at the first uncolored vertex.  A new color is at most one above
        # the largest used, and colors are tried in ascending order.
        # ``highest[i]`` is the largest color of the first i vertices.
        colors: dict[int, int] = {}
        highest = [-1]
        c = 0
        while len(colors) < len(vertices):
            v = vertices[len(colors)]
            limit = min(t, highest[-1] + 2)
            while c < limit and any(colors.get(w) == c for w in self._adj[v]):
                c += 1
            if c < limit:
                colors[v] = c
                highest.append(max(highest[-1], c))
                c = 0
            elif colors:
                highest.pop()
                c = colors.popitem()[1] + 1
            else:
                return None
        return colors

    def connected_components(self) -> list[list[int]]:
        """Skeleton components as sorted vertex lists, ordered by minimum vertex."""
        return [list(comp) for comp in self._components()]

    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Skeleton components as sorted vertex tuples, ordered by minimum vertex."""
        return self._memoized("components", None, self._find_components)

    def _find_components(self, vertices: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.vertex_count
        comps = []
        for start in vertices:
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.vertex_count}, m={len(self.edges)})"

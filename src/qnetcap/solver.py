"""Exact snapshot capacity: maximum-value edge-disjoint path packing.

The optimum of the constrained flow program on a unit-capacity snapshot is
attained by a set of pairwise edge-disjoint simple source-sink paths, each
delivering the product of its internal nodes' gain factors. The solver
searches that space directly, on a multigraph with pair counts per link;
solve_snapshot folds each relay (a unit-gain node on two links, such as a
splitter of to_unit_capacity) back into a pair between its neighbours, so
a state is searched on the same graph as in the capacity engine. One
branch routine, PathPacker._branch, takes the first live source link and
yields the child that drops it, then one child per simple path routed over
it. The optimum (_value) and an optimal packing (_rebuild) both recurse
through it, so they walk the same branches in the same order. Optima of
pruned residual networks are memoized, so that repeated sub-networks
(ubiquitous during state enumeration) are solved once. Each level of the
recursion consumes a pair, which bounds its depth by 3 frames per pair
plus one open path (see PathPacker._with_stack).
"""

from __future__ import annotations

import math
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .flowcheck import FlowAssignment
from .model import MAX_LINK_PAIRS
from .snapshot import DirectedSnapshot

MEMO_CAP = 4_000_000  # entries per packer; cleared wholesale when exceeded


class PathPacker:
    """Maximum-value path packing on an indexed multigraph with node gains.

    Links are undirected with integer pair counts; a packing may route as
    many paths across a link as it holds pairs. Instances are cheap to keep
    around: the memo persists across calls, so sweeping many states of one
    topology amortizes the search.
    """

    def __init__(
        self,
        ids: Sequence[str],
        links: Sequence[tuple[int, int]],
        gains: Sequence[float],
        source: int,
        sink: int,
    ):
        self.ids = tuple(ids)
        self.num_nodes = num_nodes = len(self.ids)
        self.links = tuple((int(u), int(v)) for u, v in links)
        self.gains = tuple(float(g) for g in gains)
        self.source, self.sink = source, sink
        adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for idx, (u, v) in enumerate(self.links):
            adj[u].append((idx, v))
            adj[v].append((idx, u))
        self.adj = tuple(tuple(sorted(entries)) for entries in adj)
        self.memo: dict[bytes, float] = {}
        self._rebuild_memo: dict[bytes, tuple[tuple[int, ...], ...]] = {}
        self.nodes_explored = 0

    def _strip(self, counts: list[int]) -> bool:
        """Drops links that cannot lie on any source-sink path; False if cut."""
        adj = self.adj
        seen = bytearray(self.num_nodes)
        seen[self.source] = 1
        stack = [self.source]
        while stack:
            u = stack.pop()
            for idx, w in adj[u]:
                if counts[idx] and not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        if not seen[self.sink]:
            return False
        deg = [0] * self.num_nodes
        for idx, (u, v) in enumerate(self.links):
            if counts[idx]:
                if not seen[u]:
                    counts[idx] = 0
                    continue
                deg[u] += 1
                deg[v] += 1
        stack = [
            n
            for n in range(self.num_nodes)
            if deg[n] == 1 and n != self.source and n != self.sink
        ]
        while stack:
            n = stack.pop()
            if deg[n] != 1:
                continue
            for idx, w in adj[n]:
                if counts[idx]:
                    counts[idx] = 0
                    deg[n] -= 1
                    deg[w] -= 1
                    if deg[w] == 1 and w != self.source and w != self.sink:
                        stack.append(w)
                    break
        return True

    def _with_stack(self, search, counts: Sequence[int]):
        """Runs search(list(counts)) with room for its recursion.

        Both searches recurse only through _branch. Each level of the
        recursion is one child of _branch and consumes at least one pair:
        the excluded first source link holds one or more, and a path holds
        one per link. A level costs the frames of _value (or _rebuild),
        _branch and visit, plus one extend frame per path link after the
        first: at most 3 frames per pair. The open path of the deepest
        level adds at most num_nodes frames, and 512 frames are left for
        the caller and the leaf calls. A raised recursion limit is put back
        before returning.
        """
        need = 512 + 3 * sum(counts) + self.num_nodes
        limit = sys.getrecursionlimit()
        if need <= limit:
            return search(list(counts))
        sys.setrecursionlimit(need)
        try:
            return search(list(counts))
        finally:
            sys.setrecursionlimit(limit)

    def _branch(self, counts: list[int], visit) -> None:
        """Calls visit(gain, prefix, rest) once per child of a stripped state.

        The first live source link e is branched on. The first child drops
        e (gain 0.0, prefix None). The others route one more path over e,
        one per simple source-sink path, in adjacency order: gain is the
        path's delivered flow, prefix its nodes before the sink (a list
        valid only during the call), and rest the counts left by the path.
        Every rest is a fresh list that visit may keep or change.
        """
        adj = self.adj
        gains = self.gains
        source = self.source
        sink = self.sink
        for idx, other in adj[source]:
            if counts[idx]:
                e0, u0 = idx, other
                break
        rest = counts.copy()
        rest[e0] = 0
        visit(0.0, None, rest)
        counts[e0] -= 1
        visited = bytearray(self.num_nodes)
        visited[source] = 1
        prefix = [source]

        def extend(node: int, gain: float) -> None:
            prefix.append(node)
            for idx, w in adj[node]:
                if not counts[idx] or visited[w]:
                    continue
                counts[idx] -= 1
                if w == sink:
                    visit(gain, prefix, counts.copy())
                else:
                    visited[w] = 1
                    extend(w, gain * gains[w])
                    visited[w] = 0
                counts[idx] += 1
            prefix.pop()

        if u0 == sink:
            visit(1.0, prefix, counts.copy())
        else:
            visited[u0] = 1
            extend(u0, gains[u0])
        counts[e0] += 1

    def value(self, counts: Sequence[int]) -> float:
        """Optimal total delivered flow for the given per-link pair counts."""
        return self._with_stack(self._value, counts)

    def _value(self, counts: list[int]) -> float:
        self.nodes_explored += 1
        if not self._strip(counts):
            return 0.0
        key = bytes(counts)
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = 0.0

        def visit(gain: float, prefix, rest: list[int]) -> None:
            nonlocal best
            cand = gain + self._value(rest)
            if cand > best:
                best = cand

        self._branch(counts, visit)
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[key] = best
        return best

    def best_packing(self, counts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """One optimal path set: fewest paths, then lexicographically least.

        Paths are node-index tuples from source to sink; the returned set is
        sorted. Deterministic for a given problem. solve_snapshot breaks ties
        on the graph with relays folded in, then hands out the relays.
        """
        return self._with_stack(self._rebuild, counts)

    def _rebuild(self, counts: list[int]) -> tuple[tuple[int, ...], ...]:
        if not self._strip(counts):
            return ()
        total = self._value(counts.copy())
        if total == 0.0:
            return ()
        key = bytes(counts)
        cached = self._rebuild_memo.get(key)
        if cached is not None:
            return cached
        sink = self.sink
        candidates: list[tuple[tuple[int, ...], ...]] = []

        def visit(gain: float, prefix, rest: list[int]) -> None:
            if gain + self._value(rest.copy()) != total:
                return
            sub = self._rebuild(rest)
            if prefix is not None:
                sub = tuple(sorted(sub + (tuple(prefix) + (sink,),)))
            candidates.append(sub)

        self._branch(counts, visit)
        best = min(candidates, key=lambda sol: (len(sol), sol))
        self._rebuild_memo[key] = best
        return best


def index_network(
    gains: Mapping[str, float], links: Sequence[tuple[str, str]], source: str, sink: str
) -> PathPacker:
    """Packer over named nodes (the keys of gains) and links, node i being
    ids[i]: sorted ids and the caller's link order set the branch order."""
    ids = tuple(sorted(gains))
    index = {n: i for i, n in enumerate(ids)}
    links = [(index[u], index[v]) for u, v in links]
    return PathPacker(ids, links, [gains[n] for n in ids], index[source], index[sink])


@dataclass(frozen=True)
class PathFlow:
    """One source-sink path and the flow it delivers to the sink."""

    nodes: tuple[str, ...]
    delivered: float


@dataclass(frozen=True)
class SolveStats:
    nodes_explored: int
    wall_time_s: float


@dataclass(frozen=True)
class SnapshotSolution:
    objective: float
    paths: tuple[PathFlow, ...]
    assignment: FlowAssignment
    stats: SolveStats


def _indexed_problem(g: DirectedSnapshot):
    """Validates a directed snapshot and maps it onto a packer, with its
    relays folded into pair counts.

    A relay is an internal node of gain 1 on exactly two links, where
    neither neighbour is also such a node. It becomes one more pair on the
    link between its neighbours; past MAX_LINK_PAIRS on one link, relays
    stay nodes. Ids are sorted and links sorted by endpoint pair. Returns
    the packer and, per link, the nodes each of its pairs passes: () for
    the direct link, first, then (relay,) in name order.
    """
    for endpoint in (g.source, g.sink):
        if endpoint not in g.gains:
            raise ValueError(f"node '{endpoint}' missing from snapshot gains")
    for node, gain in g.gains.items():
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain of node '{node}' out of (0, 1]: {gain}")
    nbrs: dict[str, list[str]] = {}
    for u, v in sorted(g.arcs):
        if u == g.source or v == g.sink:
            if (v, u) in g.arcs:
                raise ValueError(f"unexpected reverse arc for ({u}, {v})")
        elif (v, u) not in g.arcs:
            raise ValueError(
                f"internal adjacency ({u}, {v}) lacks its reverse arc; ill-formed snapshot"
            )
        elif u > v:
            continue
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    routes = {(u, v): [()] for u, ns in nbrs.items() for v in ns if u < v}
    twos = {n for n, ns in nbrs.items() if len(ns) == 2 and g.gains[n] == 1.0}
    twos -= {g.source, g.sink}
    gains = dict(g.gains)
    for n in sorted(twos):
        a, b = pair = tuple(sorted(nbrs[n]))
        if twos.isdisjoint(pair) and len(routes.get(pair, ())) < MAX_LINK_PAIRS:
            routes.setdefault(pair, []).append((n,))
            del routes[min(a, n), max(a, n)], routes[min(b, n), max(b, n)], gains[n]
    links = sorted(routes)
    return index_network(gains, links, g.source, g.sink), [routes[l] for l in links]


def assignment_from_paths(
    g: DirectedSnapshot, paths: Sequence[Sequence[str]]
) -> FlowAssignment:
    """Explicit feasible variable assignment realizing the given path set."""
    flows: dict[tuple[str, str], float] = {}
    matchings: dict[tuple[str, str, str], int] = {}
    for path in paths:
        f = 1.0
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            if i > 0:
                f *= g.gains[a]
                matchings[(path[i - 1], a, b)] = 1
            if (a, b) in flows:
                raise ValueError(f"paths are not edge-disjoint at arc ({a}, {b})")
            flows[(a, b)] = f
    return FlowAssignment(flows, matchings)


def solve_snapshot(g: DirectedSnapshot) -> SnapshotSolution:
    """Exact snapshot capacity with a certifying assignment and path set.

    Packs g with its relays folded in (see _indexed_problem), then routes
    the packed paths, in order, back through g: each link hands out its
    direct arc first, then its relays in name order.
    """
    started = time.perf_counter()
    packer, routes = _indexed_problem(g)
    counts = [len(r) for r in routes]
    objective = packer.value(counts)
    unused = {link: iter(r) for link, r in zip(packer.links, routes)}
    paths = []
    for path in packer.best_packing(counts):
        named = [packer.ids[path[0]]]
        for a, b in zip(path, path[1:]):
            named += (*next(unused[min(a, b), max(a, b)]), packer.ids[b])
        delivered = math.prod((g.gains[n] for n in named[1:-1]), start=1.0)
        paths.append(PathFlow(tuple(named), delivered))
    assignment = assignment_from_paths(g, [p.nodes for p in paths])
    stats = SolveStats(packer.nodes_explored, time.perf_counter() - started)
    return SnapshotSolution(objective, tuple(paths), assignment, stats)


def max_disjoint_paths(g: DirectedSnapshot) -> int:
    """Maximum number of edge-disjoint source-sink paths (unit-cap max flow).

    Deliberately independent of the packing solver: breadth-first
    augmentation on the directed arcs, for use as a cross-check and bound.
    """
    residual: dict[tuple[str, str], int] = {}
    adj: dict[str, list[str]] = {}
    for u, v in sorted(g.arcs):
        residual[(u, v)] = residual.get((u, v), 0) + 1
        adj.setdefault(u, []).append(v)
        if (v, u) not in residual:
            residual[(v, u)] = 0
            adj.setdefault(v, []).append(u)
    source, sink = g.source, g.sink
    flow = 0
    while True:
        parent: dict[str, Optional[str]] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[(u, v)] -= 1
            residual[(v, u)] += 1
            v = u
        flow += 1

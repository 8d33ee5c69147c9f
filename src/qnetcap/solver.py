"""Exact snapshot capacity: maximum-value edge-disjoint path packing.

The optimum of the constrained flow program on a unit-capacity snapshot is
attained by a set of pairwise edge-disjoint simple source-sink paths, each
delivering the product of its internal nodes' gain factors. The solver
searches that space directly, on a multigraph with pair counts per link;
solve_snapshot folds each relay (a unit-gain node on two links, such as a
splitter of to_unit_capacity) back into a pair between its neighbours, so
a state is searched on the same graph as in the capacity engine. One
branch generator, PathPacker._branch, takes the first live source link and
yields one child per simple path routed over it, read from the packer's
route table of that link's paths, best gain first, then the child that
drops the link. The optimum (value) and an optimal packing (best_packing)
both loop over its children, so they walk the same branches in the same
order, each on an explicit stack of frames. Optima of pruned residual
networks are memoized, so that repeated sub-networks (ubiquitous during
state enumeration) are solved once.

The search is a branch and bound: a child that misses the memo is skipped
when its gain plus an upper bound on its optimum (PathPacker._bound, times
SLACK for rounding) cannot beat the best child of its parent so far. A
node's optimum is the max over its children, which does not depend on
their order, and a skipped child cannot raise it, so every optimum is the
exhaustive search's, to the bit. Skipped children are not memoized, so the
memo holds exact optima only.

A search state is one int, the packed state: byte i holds the pair count
of link i, which MAX_LINK_PAIRS keeps within a byte. value and
best_packing pack their count vector once (PathPacker.pack), with each
series group at its least count, as a path uses all of a group or none.
The groups are those of the strip walk of the full state (see below):
links joined at internal nodes that the strip leaves with two live links.
A smaller support's strip keeps no link that the full one drops, so a
node with two live links there has at most two in any state, and each
group is a series group of every state. A path's byte mask has a 1
in the byte of each of its links, so routing the path is one subtraction,
which never borrows where every link holds a pair, and dropping a link is
one AND.

Every search node is first stripped (a root that comes stripped, as a leaf
of the capacity engine's conditioning tree does, skips it): links on no
source-sink path are zeroed, and a cut-off sink ends the node. What the
strip drops depends only on the support, the set of links that hold pairs,
not on how many they hold. The support is folded out of the state with
three shifts (bit 8i is set when link i holds pairs), and each packer
keeps a keep mask per support in a strip table of at most STRIP_CAP
supports, computing the strip only on a miss, by one breadth-first walk
from the source (PathPacker._support_strip). PathPacker._reduce reads the
series groups off a walk's visit order and live degrees: for pack on the
full state, and for the capacity engine's tree at each of its settled
supports. The memo is keyed on the stripped state itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

from .flowcheck import FlowAssignment
from .model import MAX_LINK_PAIRS
from .snapshot import DirectedSnapshot

MEMO_CAP = 4_000_000  # entries per packer; cleared wholesale when exceeded
STRIP_CAP = 1 << 13  # supports per packer strip table; later misses are not stored
SLACK = 1 + 1e-9  # factor on PathPacker._bound: covers optima a few ulp above it


class PathPacker:
    """Maximum-value path packing on an indexed multigraph with node gains.

    Links are undirected with integer pair counts; a packing may route as
    many paths across a link as it holds pairs. Instances are cheap to keep
    around: the memo persists across calls, so sweeping many states of one
    topology amortizes the search. Both searches walk explicit stacks of
    frames, so no instance is too deep for the interpreter's stack.

    States are packed (see pack): byte i of the int is the pair count of
    link i, and every stripped state, so every memo key and every state
    _bound reads, holds each group of chain_table at its least count:
    the series groups that _reduce finds on the strip walk of the full
    support, which are the root groups of the capacity engine's tree.
    The support of a state s is the fold
    x = s | s >> 4; x |= x >> 2; x |= x >> 1; x & ones, with bit 8i set
    when link i holds pairs (ones has a 1 in every link's byte). The strip
    table (strips) maps a support to its keep mask: 0xFF in the byte of
    each link the strip keeps, or 0 when the sink is cut off, so a stripped
    state is s & keep and a cut one is 0. It fills up to STRIP_CAP
    supports; later misses are stripped but not stored, so the table never
    evicts and a stored answer stays valid. A miss is one walk
    (_support_strip), which also hands back its breadth-first visit order,
    the live degree of each node and the live links, as the stripped support
    has them, from which _reduce reads the series groups. The memo (memo,
    and _rebuild_memo for best_packing) is keyed on the stripped state.

    The route table (routes) holds each source link's paths on the full
    graph (_routes), best gain first; the first one's gain is the link's
    lead, which _bound reads. It has no cap: a search of the full state,
    which solve_snapshot and every capacity mode make, walks all of them on
    its spine of states that drop the source links one by one, unless the
    bound skips a part of that spine.
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
        self.links = tuple(links)
        self.gains = tuple(gains)
        self.source, self.sink = source, sink
        self.internal = [n != source and n != sink for n in range(num_nodes)]
        adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for idx, (u, v) in enumerate(self.links):  # in link order, so each entry list is sorted
            adj[u].append((idx, v))
            adj[v].append((idx, u))
        self.adj = tuple(map(tuple, adj))
        self.source_links = self.adj[source]
        self.ones = int.from_bytes(b"\x01" * len(self.links), "little")
        # per source link in branch order: its support bit, the mask that
        # clears its byte, and its adjacency entry
        full = self.ones * 0xFF
        self._firsts = tuple(
            (1 << 8 * first[0], full ^ 0xFF << 8 * first[0], first) for first in self.source_links
        )
        self._source_ones = sum(1 << 8 * idx for idx, _ in self.source_links)
        self._sink_ones = sum(1 << 8 * idx for idx, _ in self.adj[sink])
        self.memo: dict[int, float] = {}
        self._rebuild_memo: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.strips: dict[int, int] = {}
        self.routes: dict[int, list[tuple]] = {}
        self.nodes_explored = 0

    def pack(self, counts: Sequence[int]) -> int:
        """The packed count vector: byte i is counts[i], or, once some count
        is above 1, the least count of its series group (see chain_table)."""
        if len(counts) != len(self.links):
            raise ValueError(
                f"count vector has {len(counts)} entries, the packer has {len(self.links)} links"
            )
        data = bytearray(counts)
        if len(data) != len(counts):  # a buffer of wider items, such as a numpy int64 array
            data = bytearray(list(counts))
        if max(data, default=0) > 1:  # else the strip leaves each group at its least count
            for chain in self.chain_table:
                least = min(map(data.__getitem__, chain))
                for l in chain:
                    data[l] = least
        return int.from_bytes(data, "little")

    @cached_property
    def chain_table(self) -> list[tuple[int, ...]]:
        """The series groups of two or more links that _reduce finds on the
        strip walk of the full support, found on first use, each as its
        sorted link indices, in the order of their first links."""
        keep, *walk = self._support_strip(self.ones)
        joined = self._reduce(self.ones, *walk)[2] if keep else {}
        links = range(len(self.links))
        return sorted(tuple(l for l in links if group >> 8 * l & 1) for group in {*joined.values()})

    def _support(self, s: int) -> int:
        """The support of the state s: bit 8i is set where link i holds pairs."""
        x = s | s >> 4
        x |= x >> 2
        x |= x >> 1
        return x & self.ones

    def _strip(self, s: int) -> int:
        """The state s with links on no source-sink path zeroed; 0 if cut.

        The keep mask depends only on the support, so it is looked up in
        the strip table and computed by _support_strip on a miss.
        """
        x = self._support(s)
        keep = self.strips.get(x)
        if keep is None:
            keep = self._support_strip(x)[0]
        return s & keep

    def _support_strip(self, x: int) -> tuple[int, list, list, list]:
        """The strip walk of support x: (keep, queue, deg, live), with the
        keep mask stored in the strip table while it has room.

        The sink is cut off at once (keep 0, and queue, deg and live empty)
        when no link at the source or none at the sink holds pairs.
        Otherwise one breadth-first search from the source lists the nodes
        it reaches in queue, in visit order, counts the live links of each
        in deg (-1 at the others) and collects the degree-1 leaves; the
        sink is cut off (keep 0) if it is not reached. A live link it did
        not reach has both ends unreached; such links are looked for only
        when the reached link ends fall short of two per live link. Then
        leaves are peeled until none is left; the links peeled do not
        depend on the order. Unless the sink is cut off, deg and the
        per-link flags live end as the stripped support has them (a
        dropped node has degree 0 or -1), and the links left are read off
        as the keep mask.
        """
        if not x & self._source_ones or not x & self._sink_ones:
            if len(self.strips) < STRIP_CAP:
                self.strips[x] = 0
            return 0, [], [], []
        adj, source, sink = self.adj, self.source, self.sink
        live = list(x.to_bytes(len(self.links), "little"))  # a list indexes fastest
        deg = [-1] * self.num_nodes
        deg[source] = 0
        leaves = []
        ends = 0
        queue = [source]
        for u in queue:
            d = 0
            for idx, w in adj[u]:
                if live[idx]:
                    d += 1
                    if deg[w] < 0:
                        deg[w] = 0
                        queue.append(w)
            deg[u] = d
            ends += d
            if d == 1 and u != source and u != sink:
                leaves.append(u)
        if deg[sink] < 0:
            keep = 0
        else:
            kept = x
            if ends < 2 * x.bit_count():
                for idx, (u, _) in enumerate(self.links):
                    if live[idx] and deg[u] < 0:
                        live[idx] = 0
                        kept ^= 1 << 8 * idx
            while leaves:
                n = leaves.pop()
                if deg[n] != 1:
                    continue
                for idx, w in adj[n]:
                    if live[idx]:
                        live[idx] = 0
                        kept ^= 1 << 8 * idx
                        deg[n] -= 1
                        deg[w] -= 1
                        if deg[w] == 1 and w != source and w != sink:
                            leaves.append(w)
                        break
            keep = kept * 0xFF
        if len(self.strips) < STRIP_CAP:
            self.strips[x] = keep
        return keep, queue, deg, live

    def _reduce(self, x: int, queue: list, deg: list, live: list) -> tuple:
        """The series reductions of the settled support x, read off its
        strip walk's queue, live degrees and live links (see
        _support_strip), as (support, links, joined).

        links lists every link the support holds, in the order the walk's
        breadth-first search first meets it. joined maps each link joined
        to others at internal nodes with two live links to its group, the
        links so joined, as a mask with a 1 in the byte of each (see pack):
        a path uses all of a group or none of it, so only the group's least
        count matters.
        """
        adj, internal = self.adj, self.internal
        links: dict[int, None] = {}  # a link met again keeps its first place
        joins = []
        for u in queue:
            d = deg[u]
            if d > 0:
                first = -1
                for idx, _ in adj[u]:
                    if live[idx]:
                        links[idx] = None
                        if d == 2:  # an internal u joins its two live links
                            if first < 0:
                                first = idx
                            elif internal[u]:
                                joins.append((first, idx))
        joined: dict[int, int] = {}
        for a, b in joins:
            group = rest = joined.get(a, 1 << 8 * a) | joined.get(b, 1 << 8 * b)
            while rest:
                bit = rest & -rest
                rest ^= bit
                joined[bit.bit_length() >> 3] = group
        return x, tuple(links), joined

    def _branch(self, s: int, support: int):
        """Yields (gain, prefix, rest) once per child of a stripped state s
        with the given support.

        The first live source link e is branched on. The first children
        route one more path over e, one per route of e (see _routes) whose
        links all hold pairs, in the table's order, best gain first: gain
        is the path's delivered flow, prefix the tuple of its nodes before
        the sink, and rest the state left by the path, s less the path's
        mask. The last child drops e (gain 0.0, prefix None).
        """
        for bit, clear, first in self._firsts:
            if support & bit:
                break
        routes = self.routes.get(first[0])
        if routes is None:
            routes = self.routes[first[0]] = self._routes(first)
        for mask, gain, prefix in routes:
            if mask & support == mask:
                yield gain, prefix, s - mask
        yield 0.0, None, s & clear

    def _routes(self, first: tuple[int, int]) -> list[tuple]:
        """Simple source-sink paths over the source's adjacency entry first
        on the full graph, as (mask, gain, prefix): mask has a 1 in the
        byte of each link on the path. They are sorted by gain, descending;
        paths of equal gain keep their depth-first order (adjacency order).
        """
        adj, gains, sink = self.adj, self.gains, self.sink
        routes = []
        # gain and untried are the last prefix node's path gain and unvisited
        # links; stack keeps those of each earlier prefix node, and its link
        visited = bytearray(self.num_nodes)
        visited[self.source] = 1
        prefix = [self.source]
        gain, untried = 1.0, iter((first,))
        stack = []
        while True:
            for idx, w in untried:
                if w == sink:
                    links = (*(frame[1] for frame in stack), idx)
                    routes.append((sum(1 << 8 * i for i in links), gain, tuple(prefix)))
                elif not visited[w]:
                    visited[w] = 1
                    prefix.append(w)
                    stack.append((gain, idx, untried))
                    gain, untried = gain * gains[w], iter(adj[w])
                    break
            else:
                if not stack:
                    routes.sort(key=itemgetter(1), reverse=True)  # stable: ties stay depth first
                    return routes
                visited[prefix.pop()] = 0
                gain, _, untried = stack.pop()

    def _bound(self, s: int) -> float:
        """An upper bound on the optimum of the stripped state s.

        Each path leaves over one source link and enters over one sink
        link, and delivers at most the lead of its source link: the gain of
        the link's first route, the best (see _routes), or 0 if it has none.
        So the optimum is at most the sum over live source links of count
        times lead, and at most the sink links' total count times the
        largest lead of a live source link; the bound is the lesser.
        Rounding can put a computed optimum a few ulp above it, which
        SLACK covers.
        """
        counts = s.to_bytes(len(self.links), "little")
        routes = self.routes
        ahead = top = 0.0
        for first in self.source_links:
            count = counts[first[0]]
            if count:
                table = routes.get(first[0])
                if table is None:
                    table = routes[first[0]] = self._routes(first)
                if table:
                    lead = table[0][1]
                    ahead += count * lead
                    if lead > top:
                        top = lead
        sinks = 0
        for idx, _ in self.adj[self.sink]:
            sinks += counts[idx]
        return min(ahead, sinks * top)

    def value(self, counts: Sequence[int]) -> float:
        """Optimal total delivered flow for the given per-link pair counts."""
        return self._search(self.pack(counts))

    def _search(self, s: int, support: int = 0) -> float:
        """Optimal total delivered flow of the packed state s.

        The walk keeps one frame per unfinished search node on the way down:
        its memo key, its children still to come, the best value so far and
        the gain of the child being walked. A child that misses the memo
        once its parent's best is above 0 is skipped, and counted as a node,
        when its gain plus its _bound times SLACK is at most that best.
        Given its support, s is taken as stripped and absent from the memo
        (a leaf of the conditioning tree), so the root is branched on at
        once.
        """
        memo, strips, ones, bound = self.memo, self.strips, self.ones, self._bound
        frames: list[list] = []
        nodes = 0
        if support:
            nodes = 1
            children = self._branch(s, support)
            frames.append(frame := [s, children, 0.0, 0.0])
            frame[3], _, s = next(children)
        while True:
            nodes += 1
            # _support and _strip, inline: this loop runs once per search node
            x = s | s >> 4
            x |= x >> 2
            x |= x >> 1
            x &= ones
            keep = strips.get(x)
            if keep is None:
                keep = self._support_strip(x)[0]
            if keep:
                s &= keep
                value = memo.get(s)
                if value is None:
                    # skip a child that cannot beat its parent's best; it is
                    # not memoized, and value 0.0 leaves that best as it is
                    if not (
                        frames
                        and (frame := frames[-1])[2] > 0.0
                        and frame[3] + bound(s) * SLACK <= frame[2]
                    ):
                        children = self._branch(s, x & keep)
                        frames.append(frame := [s, children, 0.0, 0.0])
                        frame[3], _, s = next(children)
                        continue
                    value = 0.0
            else:
                value = 0.0
            while frames:
                key, children, best, gain = frame = frames[-1]
                if gain + value > best:
                    frame[2] = gain + value
                child = next(children, None)
                if child is not None:
                    frame[3], _, s = child
                    break
                frames.pop()
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                value = memo[key] = frame[2]
            else:
                self.nodes_explored += nodes
                return value

    def best_packing(self, counts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """One optimal path set: fewest paths, then lexicographically least.

        Paths are node-index tuples from source to sink; the returned set is
        sorted. Deterministic for a given problem. solve_snapshot breaks ties
        on the graph with relays folded in, then hands out the relays.
        """
        return self._rebuild(self.pack(counts))

    def _rebuild(self, s: int) -> tuple[tuple[int, ...], ...]:
        """best_packing of the packed state s.

        The walk descends only into children that reach the optimum, with
        one frame per unfinished node: its key and optimum, its children
        still to come, the candidates so far and the walked child's path.
        A child's optimum is read from the memo; a child the search skipped
        is searched only if its gain plus its _bound times SLACK reaches the
        node's optimum, since a tie is a candidate.
        """
        rebuilt, strip, search, sink = self._rebuild_memo, self._strip, self._search, self.sink
        memo, bound = self.memo, self._bound
        frames: list[list] = []
        while True:
            s = strip(s)
            if not s or (total := search(s)) == 0.0:
                packing = ()
            else:
                packing = rebuilt.get(s)
                if packing is None:
                    frames.append([s, total, self._branch(s, self._support(s)), [], None])
            while frames:
                key, total, children, candidates, path = frame = frames[-1]
                if packing is not None:  # None: this frame was just pushed
                    if path is not None:
                        packing = tuple(sorted(packing + (path,)))
                    candidates.append(packing)
                for gain, prefix, rest in children:
                    rest = strip(rest)
                    if not rest:
                        value = 0.0
                    else:
                        value = memo.get(rest)
                        if value is None:
                            # skipped by the search; a tie may still be a candidate
                            if gain + bound(rest) * SLACK < total:
                                continue
                            value = search(rest)
                    if gain + value == total:
                        frame[4] = None if prefix is None else (*prefix, sink)
                        s = rest
                        break
                else:
                    frames.pop()
                    packing = rebuilt[key] = min(candidates, key=lambda sol: (len(sol), sol))
                    continue
                break
            else:
                return packing


def index_network(
    ids: Sequence[str], gains: Mapping[str, float], links: Sequence[tuple[str, str]],
    source: str, sink: str,
) -> PathPacker:
    """Packer over the named nodes ids, node i being ids[i], with gains[n]
    the gain of node n, and named links: the caller's node and link orders
    set the branch order."""
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
    """Maps a directed snapshot onto a packer, with its relays folded into
    pair counts.

    A relay is an internal node of gain 1 on exactly two links, where
    neither neighbour is also such a node. It becomes one more pair on the
    link between its neighbours; past MAX_LINK_PAIRS on one link, relays
    stay nodes. Ids keep the order of g.sorted_nodes, sorted once per
    snapshot, and links are sorted by endpoint pair. Returns the packer
    and, per link, the nodes each of its pairs passes: () for the direct
    link, first, then (relay,) in name order.
    """
    nbrs: dict[str, list[str]] = {n: [] for n in g.sorted_nodes}
    routes: dict[tuple[str, str], list[tuple]] = {}
    for u, v in g.sorted_arcs:
        if u > v and u != g.source and v != g.sink:
            continue  # an internal pair is taken once, as its arc with u < v
        routes[(u, v) if u < v else (v, u)] = [()]
        nbrs[u].append(v)
        nbrs[v].append(u)
    twos = {n for n, ns in nbrs.items() if len(ns) == 2 and g.gains[n] == 1.0}
    twos -= {g.source, g.sink}
    gains = dict(g.gains)
    for n in sorted(twos):
        a, b = pair = tuple(sorted(nbrs[n]))
        if twos.isdisjoint(pair) and len(routes.get(pair, ())) < MAX_LINK_PAIRS:
            routes.setdefault(pair, []).append((n,))
            del routes[min(a, n), max(a, n)], routes[min(b, n), max(b, n)], gains[n]
    links = sorted(routes)
    ids = [n for n in g.sorted_nodes if n in gains]
    return index_network(ids, gains, links, g.source, g.sink), [routes[l] for l in links]


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

    Packs g with its relays folded in (see _indexed_problem), once: the
    search (value) and the path rebuild (best_packing) start from one packed
    state. Then routes the packed paths, in order, back through g: each link
    hands out its direct arc first, then its relays in name order.
    """
    started = time.perf_counter()
    packer, routes = _indexed_problem(g)
    s = packer.pack([len(r) for r in routes])
    objective = packer._search(s)
    nodes = packer.nodes_explored  # before the rebuild, whose memo reads would count
    unused = {link: iter(r) for link, r in zip(packer.links, routes)}
    paths = []
    for path in packer._rebuild(s):
        named = [packer.ids[path[0]]]
        for a, b in zip(path, path[1:]):
            named += (*next(unused[min(a, b), max(a, b)]), packer.ids[b])
        delivered = math.prod((g.gains[n] for n in named[1:-1]), start=1.0)
        paths.append(PathFlow(tuple(named), delivered))
    assignment = assignment_from_paths(g, [p.nodes for p in paths])
    stats = SolveStats(nodes, time.perf_counter() - started)
    return SnapshotSolution(objective, tuple(paths), assignment, stats)


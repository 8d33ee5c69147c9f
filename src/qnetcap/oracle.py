"""Independent cross-checks for the snapshot solver.

brute_force_capacity is ground truth for the solver: enumerate every
maximal set of pairwise link-disjoint source-sink paths, score each as the
sum of per-path products of internal node gains, and take the maximum.
Deliberately naive; a size guard refuses instances where the factorial
blow-up would hurt. max_disjoint_paths is the unit-capacity max flow: the
number of link-disjoint paths, which equals the optimum when every gain is
1 and bounds it from above otherwise.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .snapshot import DirectedSnapshot

DEFAULT_MAX_EDGES = 20


class SizeGuardError(ValueError):
    """Instance exceeds the configured brute-force size cap."""


def _undirected_edges(g: DirectedSnapshot) -> set[frozenset[str]]:
    return {frozenset((u, v)) for u, v in g.arcs}


def _all_simple_paths(g: DirectedSnapshot) -> list[tuple[tuple[str, ...], float, frozenset]]:
    """Every simple source-sink path with its gain product and edge set,
    sorted by node tuple."""
    paths = []
    out = g.out_arcs
    # depth first on an explicit stack of (node, path, gain, edges), as a
    # level per node would overflow Python's recursion limit on a long
    # chain; the sort makes the list independent of the walk's order
    stack = [(g.source, (g.source,), 1.0, frozenset())]
    while stack:
        node, path, gain, edges = stack.pop()
        for nxt in out.get(node, ()):
            if nxt in path:
                continue
            taken = edges | {frozenset((node, nxt))}
            if nxt == g.sink:
                paths.append((path + (nxt,), gain, taken))
            else:
                stack.append((nxt, path + (nxt,), gain * g.gains[nxt], taken))
    paths.sort(key=lambda entry: entry[0])
    return paths


def enumerate_path_sets(
    g: DirectedSnapshot, max_edges: int = DEFAULT_MAX_EDGES
) -> Iterator[tuple[tuple[tuple[str, ...], ...], float]]:
    """Streams every maximal link-disjoint path set with its total value.

    Maximal means no further source-sink path fits in the leftover edges.
    Each set is yielded exactly once (paths sorted lexicographically).
    """
    edges = _undirected_edges(g)
    if len(edges) > max_edges:
        raise SizeGuardError(
            f"instance has {len(edges)} realized links, cap is {max_edges}; "
            "raise max_edges explicitly to force the enumeration"
        )
    paths = _all_simple_paths(g)
    if not paths:
        return
    n = len(paths)

    def fits(i: int, used: frozenset) -> bool:
        return not (paths[i][2] & used)

    # depth first on an explicit stack (a path per level would overflow
    # Python's recursion limit): path i taken, if it fits, before path i
    # left out, so sets come in the order of the recursive enumeration
    stack: list[tuple[int, tuple[int, ...], frozenset]] = [(0, (), frozenset())]
    while stack:
        i, chosen, used = stack.pop()
        if i == n:
            if all(not fits(j, used) for j in range(n)):
                yield (
                    tuple(paths[j][0] for j in chosen),
                    sum(paths[j][1] for j in chosen),
                )
            continue
        stack.append((i + 1, chosen, used))
        if fits(i, used):
            stack.append((i + 1, chosen + (i,), used | paths[i][2]))


def brute_force_capacity(g: DirectedSnapshot, max_edges: int = DEFAULT_MAX_EDGES) -> float:
    """Maximum total value over all link-disjoint path sets (0 if none)."""
    best = 0.0
    for _, value in enumerate_path_sets(g, max_edges=max_edges):
        if value > best:
            best = value
    return best


def max_disjoint_paths(g: DirectedSnapshot) -> int:
    """Maximum number of edge-disjoint source-sink paths (unit-cap max flow).

    Deliberately independent of the packing solver: breadth-first
    augmentation on the directed arcs, for use as a cross-check and bound.
    """
    residual: dict[tuple[str, str], int] = {}
    adj: dict[str, list[str]] = {}
    for u, v in g.sorted_arcs:
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

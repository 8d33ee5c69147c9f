"""Brute-force snapshot capacity by exhaustive path-set enumeration.

Ground truth for the solver: enumerate every maximal set of pairwise
link-disjoint source-sink paths, score each as the sum of per-path products
of internal node gains, and take the maximum. Deliberately naive; a size
guard refuses instances where the factorial blow-up would hurt.
"""

from __future__ import annotations

from typing import Iterator

from .snapshot import DirectedSnapshot

DEFAULT_MAX_EDGES = 20


class SizeGuardError(ValueError):
    """Instance exceeds the configured brute-force size cap."""


def _undirected_edges(g: DirectedSnapshot) -> set[frozenset[str]]:
    return {frozenset((u, v)) for u, v in g.arcs}


def _all_simple_paths(g: DirectedSnapshot) -> list[tuple[tuple[str, ...], float, frozenset]]:
    """Every simple source-sink path with its gain product and edge set."""
    paths = []
    out = g.out_arcs

    def walk(node: str, seq: list[str], gain: float, used: set[frozenset]) -> None:
        for nxt in out.get(node, ()):
            edge = frozenset((node, nxt))
            if nxt in seq or edge in used:
                continue
            if nxt == g.sink:
                paths.append((tuple(seq) + (nxt,), gain, frozenset(used | {edge})))
                continue
            seq.append(nxt)
            used.add(edge)
            walk(nxt, seq, gain * g.gains[nxt], used)
            used.remove(edge)
            seq.pop()

    walk(g.source, [g.source], 1.0, set())
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

"""Shared fixtures: bundled datasets, hand-built networks, random instances."""

from __future__ import annotations

import numpy as np
import pytest

ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(criterion: str, detail: str) -> None:
    """Registers a passed acceptance criterion for the terminal summary."""
    ACCEPTANCE_RESULTS.append((criterion, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"PASS  {criterion}: {detail}")

from qnetcap import datasets
from qnetcap.model import LinkSpec, NodeSpec, Topology
from qnetcap.snapshot import SnapshotState, to_directed, to_unit_capacity
from qnetcap.solver import solve_snapshot


@pytest.fixture(scope="session")
def five_node():
    return datasets.load_dataset("five_node")


@pytest.fixture(scope="session")
def abilene():
    return datasets.load_dataset("abilene")


@pytest.fixture(scope="session")
def abilene_mux2():
    return datasets.load_dataset("abilene_mux2")


@pytest.fixture(scope="session")
def nsfnet():
    return datasets.load_dataset("nsfnet")


@pytest.fixture(scope="session")
def surfnet():
    return datasets.load_dataset("surfnet")


def make_topology(qmap, pairs, source="s", sink="t", p=1.0, caps=None):
    """Small test network; qmap holds internal gains, links default to p=1."""
    names = [source, *sorted(qmap), sink]
    nodes = tuple(NodeSpec(n, qmap.get(n, 1.0)) for n in names)
    caps = caps or {}
    links = tuple(
        LinkSpec(u, v, p=p if isinstance(p, float) else p[(u, v)], c=caps.get((u, v), 1))
        for u, v in pairs
    )
    return Topology(nodes, links, source, sink)


def long_chain(n):
    """s-n0-...-n{n-1}-t, each link p = 1, and the relays' gains in path
    order, each just below 1."""
    relays = [f"n{i}" for i in range(n)]
    q = {r: 1.0 - (i % 7 + 1) / 4000 for i, r in enumerate(relays)}
    names = ["s", *relays, "t"]
    return make_topology(q, list(zip(names, names[1:]))), [q[r] for r in relays]


def two_route_network(q1, q2, q3, q4):
    """Two parallel chains s-a1-a2-t / s-a3-a4-t plus the a3-a2 chord.

    Full-state capacity has the closed form max(q1*q2 + q3*q4, q2*q3).
    """
    return make_topology(
        {"a1": q1, "a2": q2, "a3": q3, "a4": q4},
        [("s", "a1"), ("a1", "a2"), ("a2", "t"),
         ("s", "a3"), ("a3", "a4"), ("a4", "t"), ("a3", "a2")],
    )


def solve_state(t, state=None):
    """Full pipeline on one state: transform, direct, solve."""
    if state is None:
        state = SnapshotState.full(t)
    unit_t, unit_state = to_unit_capacity(t, state)
    return solve_snapshot(to_directed(unit_t, unit_state))


def directed_state(t, state=None):
    if state is None:
        state = SnapshotState.full(t)
    unit_t, unit_state = to_unit_capacity(t, state)
    return to_directed(unit_t, unit_state)


def random_instance(
    rng: np.random.Generator, max_internal=4, max_edges=8, mux=False, vary_p=False
):
    """Random small topology plus a random realized state; links have
    p = 0.5, or with vary_p a p drawn per link from [0, 1]."""
    while True:
        n_internal = int(rng.integers(0, max_internal + 1))
        names = ["s", "t"] + [f"n{i}" for i in range(n_internal)]
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
        n_edges = int(rng.integers(1, max_edges + 1))
        if n_edges > len(pairs):
            n_edges = len(pairs)
        chosen = rng.choice(len(pairs), size=n_edges, replace=False)
        links = []
        for idx in sorted(chosen):
            u, v = pairs[idx]
            c = int(rng.integers(1, 3)) if mux else 1
            p = float(rng.random()) if vary_p else 0.5
            links.append(LinkSpec(u, v, p=p, c=c))
        qmap = {f"n{i}": float(1.0 - rng.random() * 0.95) for i in range(n_internal)}
        nodes = tuple(NodeSpec(n, qmap.get(n, 1.0)) for n in names)
        t = Topology(nodes, tuple(links), "s", "t")
        vec = tuple(int(rng.integers(0, c + 1)) for c in t.capacities)
        if sum(vec) == 0:
            continue
        return t, SnapshotState(t.link_ids, vec)


def reference_root_groups(t):
    """The series groups of two or more links of t's full graph, over node
    names, with its own incidence map: the links the source cannot reach
    are dropped and leaves peeled, then links are joined at each internal
    node with two kept links. Each group is its sorted link indices, in the
    order of their first links."""
    ends = (t.source, t.sink)
    at = {}
    for i, link in enumerate(t.links):
        at.setdefault(link.u, set()).add(i)
        at.setdefault(link.v, set()).add(i)
    reached, frontier = {t.source}, [t.source]
    while frontier:
        for i in at.get(frontier.pop(), ()):
            for n in (t.links[i].u, t.links[i].v):
                if n not in reached:
                    reached.add(n)
                    frontier.append(n)
    kept = {i for i, link in enumerate(t.links) if link.u in reached}
    if t.sink not in reached:
        kept = set()
    while True:
        leaves = [n for n, links in at.items() if n not in ends and len(links & kept) == 1]
        if not leaves:
            break
        for n in leaves:
            kept -= at[n]
    group_of = {i: {i} for i in kept}
    for n, links in at.items():
        pair = links & kept
        if n not in ends and len(pair) == 2:
            a, b = pair
            merged = group_of[a] | group_of[b]
            for i in merged:
                group_of[i] = merged
    groups = {tuple(sorted(group)) for group in group_of.values() if len(group) > 1}
    return sorted(groups)

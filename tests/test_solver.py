"""Exact solver: worked examples, certificates, properties, oracle parity."""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    directed_state,
    make_topology,
    random_instance,
    reference_root_groups,
    solve_state,
    two_route_network,
)
from qnetcap import datasets
from qnetcap.flowcheck import TAU, check_assignment
from qnetcap.model import NodeSpec, Topology
from qnetcap.oracle import brute_force_capacity, max_disjoint_paths
from qnetcap.snapshot import SnapshotState, to_directed, to_unit_capacity
from qnetcap.solver import solve_snapshot


def test_five_node_full_state(five_node):
    solution = solve_state(five_node)
    assert solution.objective == pytest.approx(3.415, abs=1e-9)
    assert sorted((p.delivered for p in solution.paths), reverse=True) == pytest.approx(
        [1.0, 0.64, 0.64, 0.5, 0.5, 0.135]
    )


@pytest.mark.parametrize(
    "q, expected",
    [
        ((0.1, 0.9, 0.9, 0.1), 0.81),
        ((0.9, 0.9, 0.9, 0.9), 1.62),
        ((0.5, 0.8, 0.7, 0.6), max(0.5 * 0.8 + 0.7 * 0.6, 0.8 * 0.7)),
    ],
)
def test_two_route_closed_form(q, expected):
    t = two_route_network(*q)
    solution = solve_state(t)
    assert solution.objective == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eps, expected", [(0.01, 0.505), (0.1, 0.55), (0.9, 0.95)])
def test_c7_demo_network_optimum(eps, expected):
    # optimum is one full path plus the leftover half flow through the weak node
    solution = solve_state(datasets.c7_demo(eps))
    assert solution.objective == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eps, expected", [(0.1, 1.0), (0.7, 1.4), (0.5, 1.0)])
def test_c6_demo_network_optimum(eps, expected):
    # two weak disjoint paths (2 * eps) against the single strong path (1)
    solution = solve_state(datasets.c6_demo(eps))
    assert solution.objective == pytest.approx(expected, abs=1e-12)


def test_single_direct_edge():
    t = make_topology({}, [("s", "t")], p=0.5)
    assert solve_state(t).objective == 1.0


def test_no_connectivity_zero(five_node):
    state = SnapshotState.from_counts(five_node, {"0-1": 1})
    solution = solve_state(five_node, state)
    assert solution.objective == 0.0
    assert solution.paths == ()


def test_solver_requires_bidirectional_internal_arcs():
    from qnetcap.snapshot import DirectedSnapshot

    # the snapshot itself refuses a one-way internal arc, so no solver,
    # oracle or checker sees one
    with pytest.raises(ValueError, match="reverse arc"):
        DirectedSnapshot(
            arcs=frozenset({("s", "a"), ("a", "b"), ("b", "t")}),
            gains={"s": 1.0, "a": 0.5, "b": 0.5, "t": 1.0},
            source="s",
            sink="t",
        )


def test_solution_certificate(five_node):
    solution = solve_state(five_node)
    g = directed_state(five_node)
    report = check_assignment(g, solution.assignment)
    assert report.feasible
    assert report.objective == pytest.approx(solution.objective, abs=1e-9)
    assert sum(p.delivered for p in solution.paths) == pytest.approx(
        solution.objective, abs=1e-9
    )
    assert solution.stats.nodes_explored > 0
    assert solution.stats.wall_time_s >= 0.0


def test_deterministic_output(five_node):
    a = solve_state(five_node)
    b = solve_state(five_node)
    assert a.objective == b.objective
    assert [p.nodes for p in a.paths] == [p.nodes for p in b.paths]


@pytest.mark.parametrize(
    "t, expected",
    [
        # s-a3-a2-t alone (0.5 * 0.5) ties exactly with s-a1-a2-t plus
        # s-a3-a4-t (0.125 + 0.125): the packing with fewer paths wins
        (two_route_network(0.25, 0.5, 0.5, 0.25), [("s", "a3", "a2", "t")]),
        # one path fits through m-t, via a or via b: the least one wins,
        # though the search meets the b route first (it drops s-a first)
        (
            make_topology(
                {"a": 0.5, "b": 0.5, "m": 0.5},
                [("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"), ("m", "t")],
            ),
            [("s", "a", "m", "t")],
        ),
    ],
    ids=["fewest-paths", "least-path"],
)
def test_best_packing_tie_break(t, expected):
    solution = solve_state(t)
    assert solution.objective == 0.25
    assert [p.nodes for p in solution.paths] == expected


def test_max_disjoint_paths_two_route():
    g = directed_state(two_route_network(0.5, 0.5, 0.5, 0.5))
    assert max_disjoint_paths(g) == 2


def test_max_disjoint_paths_empty(five_node):
    g = directed_state(five_node, SnapshotState.empty(five_node))
    assert max_disjoint_paths(g) == 0


def test_max_disjoint_paths_five_node_full(five_node):
    g = directed_state(five_node)
    # 8 source-side pair slots, 7 sink-side, but the third 3-4 pair has no
    # feeder left: six disjoint routes
    flows = max_disjoint_paths(g)
    assert flows == 6
    unit = Topology(
        tuple(NodeSpec(n.id, 1.0) for n in five_node.nodes),
        five_node.links,
        five_node.source,
        five_node.sink,
    )
    assert solve_state(unit).objective == pytest.approx(flows, abs=1e-9)


CORPUS_SEED = 20240816


def corpus(n, mux=False):
    rng = np.random.default_rng(CORPUS_SEED + (1 if mux else 0))
    for _ in range(n):
        yield random_instance(rng, mux=mux)


@pytest.mark.parametrize("mux", [False, True])
def test_solver_matches_oracle_on_random_corpus(mux):
    for t, state in corpus(300, mux=mux):
        unit_t, unit_state = to_unit_capacity(t, state)
        g = to_directed(unit_t, unit_state)
        solution = solve_snapshot(g)
        assert solution.objective == pytest.approx(
            brute_force_capacity(g), abs=1e-9
        ), f"{t.link_ids} {state.vector}"


def test_solver_matches_oracle_on_harder_instances():
    rng = np.random.default_rng(555)
    for _ in range(150):
        t, state = random_instance(rng, max_internal=5, max_edges=10, mux=True)
        unit_t, unit_state = to_unit_capacity(t, state)
        g = to_directed(unit_t, unit_state)
        assert solve_snapshot(g).objective == pytest.approx(
            brute_force_capacity(g, max_edges=40), abs=1e-9
        )


def test_unit_gain_reduction_matches_max_flow():
    rng = np.random.default_rng(CORPUS_SEED)
    for _ in range(300):
        t, state = random_instance(rng)
        unit = Topology(
            tuple(NodeSpec(n.id, 1.0) for n in t.nodes),
            t.links,
            t.source,
            t.sink,
        )
        g = to_directed(unit, state)
        solution = solve_snapshot(g)
        assert solution.objective == pytest.approx(max_disjoint_paths(g), abs=1e-9)


def test_reversal_invariance_random():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    for _ in range(200):
        t, state = random_instance(rng)
        forward = solve_state(t, state).objective
        swapped = dataclasses.replace(t, source=t.sink, sink=t.source)
        backward = solve_state(swapped, state).objective
        assert forward == pytest.approx(backward, abs=1e-9)


def test_monotone_in_added_edges():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    for _ in range(100):
        t, state = random_instance(rng)
        base = solve_state(t, state).objective
        vec = list(state.vector)
        grow = [i for i, (k, c) in enumerate(zip(vec, t.capacities)) if k < c]
        if not grow:
            continue
        vec[grow[0]] += 1
        bigger = solve_state(t, SnapshotState(t.link_ids, tuple(vec))).objective
        assert bigger >= base - 1e-12


def test_monotone_in_gains():
    rng = np.random.default_rng(CORPUS_SEED + 4)
    for _ in range(100):
        t, state = random_instance(rng)
        internal = [n for n in t.nodes if n.id not in (t.source, t.sink)]
        if not internal:
            continue
        base = solve_state(t, state).objective
        bumped = {n.id: min(1.0, n.q * 1.2) for n in internal}
        t2 = Topology(
            tuple(NodeSpec(n.id, bumped.get(n.id, n.q)) for n in t.nodes),
            t.links,
            t.source,
            t.sink,
        )
        assert solve_state(t2, state).objective >= base - 1e-12


def test_objective_bounded_by_max_disjoint_paths():
    rng = np.random.default_rng(CORPUS_SEED + 5)
    for _ in range(200):
        t, state = random_instance(rng)
        g = directed_state(t, state)
        assert solve_state(t, state).objective <= max_disjoint_paths(g) + 1e-12


def test_lemma_no_bidirectional_flow():
    rng = np.random.default_rng(CORPUS_SEED + 6)
    for _ in range(200):
        t, state = random_instance(rng)
        flows = solve_state(t, state).assignment.flows
        for (i, j), f in flows.items():
            if f > TAU:
                assert flows.get((j, i), 0.0) <= TAU


def test_lemma_split_merge_free():
    rng = np.random.default_rng(CORPUS_SEED + 7)
    for _ in range(200):
        t, state = random_instance(rng)
        unit_t, unit_state = to_unit_capacity(t, state)
        g = to_directed(unit_t, unit_state)
        flows = solve_snapshot(g).assignment.flows
        for node in g.gains:
            if node in (g.source, g.sink):
                continue
            incoming = sorted(
                f * g.gains[node]
                for (i, j), f in flows.items()
                if j == node and f > TAU
            )
            outgoing = sorted(
                f for (i, j), f in flows.items() if i == node and f > TAU
            )
            assert len(incoming) == len(outgoing)
            for a, b in zip(incoming, outgoing):
                assert a == pytest.approx(b, abs=TAU)


def test_paths_start_at_source_end_at_sink():
    rng = np.random.default_rng(CORPUS_SEED + 8)
    for _ in range(200):
        t, state = random_instance(rng)
        solution = solve_state(t, state)
        for p in solution.paths:
            assert p.nodes[0] == t.source
            assert p.nodes[-1] == t.sink
            assert len(set(p.nodes)) == len(p.nodes)


def test_multiplex_transform_equivalent_to_direct_packing():
    # solving the splitter-transformed graph runs the capacity engine's search
    # on the state's own multigraph, so the optima agree to the last bit
    from qnetcap.capacity import topology_packer

    rng = np.random.default_rng(CORPUS_SEED + 9)
    for name in datasets.DATASETS:
        t = datasets.load_dataset(name)
        packer = topology_packer(t)
        draws = [tuple(int(rng.integers(0, c + 1)) for c in t.capacities) for _ in range(50)]
        for vec in [t.capacities, *draws]:
            direct = packer.value(vec)
            via_transform = solve_state(t, SnapshotState(t.link_ids, vec)).objective
            assert via_transform == direct, f"{name} {vec}"


RELAY_CASES = {
    # r is a second a-b pair beside the direct a-b link; both are needed
    "relay-beside-link": (
        {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.6, "r": 1.0},
        [("s", "a"), ("s", "c"), ("c", "a"), ("a", "b"), ("a", "r"), ("r", "b"),
         ("b", "t"), ("b", "d"), ("d", "t")],
        {"r"},
        [("s", "a", "b", "t"), ("s", "c", "a", "r", "b", "d", "t")],
    ),
    # the same with an a-u-v-b chain: u and v neighbour each other, so they
    # stay nodes
    "adjacent-unit-nodes": (
        {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.6, "u": 1.0, "v": 1.0},
        [("s", "a"), ("s", "c"), ("c", "a"), ("a", "b"), ("a", "u"), ("u", "v"),
         ("v", "b"), ("b", "t"), ("b", "d"), ("d", "t")],
        set(),
        [("s", "a", "b", "t"), ("s", "c", "a", "u", "v", "b", "d", "t")],
    ),
    # relays on a source link, on a sink link and between source and sink
    "relays-at-endpoints": (
        {"a": 0.5, "b": 0.7, "r1": 1.0, "r2": 1.0, "r3": 1.0},
        [("s", "r1"), ("r1", "a"), ("s", "a"), ("a", "t"), ("a", "r2"), ("r2", "t"),
         ("s", "b"), ("b", "t"), ("s", "t"), ("s", "r3"), ("r3", "t")],
        {"r1", "r2", "r3"},
        [("s", "a", "t"), ("s", "r1", "a", "r2", "t"), ("s", "b", "t"), ("s", "t"),
         ("s", "r3", "t")],
    ),
}


@pytest.mark.parametrize("case", RELAY_CASES)
def test_relays_fold_into_pair_counts(case):
    from qnetcap.solver import _indexed_problem

    qmap, pairs, relays, expected_paths = RELAY_CASES[case]
    g = directed_state(make_topology(qmap, pairs))
    packer, routes = _indexed_problem(g)
    assert set(g.gains) - set(packer.ids) == relays
    assert sum(len(r) for r in routes) == len(pairs) - len(relays)
    solution = solve_snapshot(g)
    assert solution.objective == pytest.approx(brute_force_capacity(g), abs=1e-12)
    # packed paths are routed back through g: direct link first, then relays
    assert [p.nodes for p in solution.paths] == expected_paths
    report = check_assignment(g, solution.assignment)
    assert report.feasible
    assert report.objective == pytest.approx(solution.objective, abs=1e-12)
    delivered = math.fsum(p.delivered for p in solution.paths)
    assert delivered == pytest.approx(solution.objective, abs=1e-12)


def test_relays_past_the_pair_limit_stay_nodes():
    # 300 relays between source and sink: 255 fold into the s-t link (one
    # byte per link in the memo key), the other 45 stay nodes
    from qnetcap.snapshot import DirectedSnapshot
    from qnetcap.solver import _indexed_problem

    relays = [f"r{i:03d}" for i in range(300)]
    arcs = {("s", r) for r in relays} | {(r, "t") for r in relays}
    gains = {"s": 1.0, "t": 1.0, **{r: 1.0 for r in relays}}
    g = DirectedSnapshot(frozenset(arcs), gains, "s", "t")
    packer, routes = _indexed_problem(g)
    assert packer.num_nodes == 2 + 45
    assert max(len(r) for r in routes) == 255
    solution = solve_snapshot(g)
    assert solution.objective == 300.0
    assert check_assignment(g, solution.assignment).feasible


def test_snapshot_search_folds_splitters(abilene_mux2):
    # the splitters of the all-pairs state fold back into abilene_mux2's own
    # pair counts; a search over the 39-node splitter graph takes 432,303 nodes
    from qnetcap.capacity import full_state_capacity

    solution = solve_state(abilene_mux2)
    assert solution.stats.nodes_explored < 2_000
    assert solution.objective == full_state_capacity(abilene_mux2)


def deep_topologies():
    """A direct s-t link and a 9-link chain, 255 pairs per link, with their
    full-state capacities c * prod(q)."""
    direct = make_topology({}, [("s", "t")], caps={("s", "t"): 255})
    qmap = {f"a{i}": 0.99 - 0.01 * i for i in range(8)}
    names = ["s", *qmap, "t"]
    pairs = list(zip(names, names[1:]))
    chain = make_topology(qmap, pairs, caps={uv: 255 for uv in pairs})
    return [(direct, 255.0), (chain, 255 * math.prod(qmap.values()))]


def two_deep_source_links():
    """s-a, s-t and a-t with 255 pairs each and q_a = 0.9: 510 pairs on the
    source's links, 510 paths delivering 255 + 255 * 0.9."""
    caps = {("s", "a"): 255, ("s", "t"): 255, ("a", "t"): 255}
    return make_topology({"a": 0.9}, list(caps), caps=caps)


def three_deep_source_links():
    """s-a, s-b, s-t, a-t and b-t with 255 pairs each, q_a = 0.9 and
    q_b = 0.8: 765 pairs on the source's links, 765 paths delivering
    255 + 255 * 0.9 + 255 * 0.8."""
    caps = {uv: 255 for uv in [("s", "a"), ("s", "b"), ("s", "t"), ("a", "t"), ("b", "t")]}
    return make_topology({"a": 0.9, "b": 0.8}, list(caps), caps=caps)


def frame_depth():
    """Frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_packer_restores_recursion_limit(abilene_mux2, five_node, monkeypatch):
    from qnetcap.capacity import full_state_capacity, topology_packer

    start = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        full_state_capacity(abilene_mux2)
        assert sys.getrecursionlimit() == 1000
        solve_state(five_node)  # value and best_packing
        assert sys.getrecursionlimit() == 1000
        for t, expected in deep_topologies():
            assert full_state_capacity(t) == pytest.approx(expected, rel=1e-12)
            assert sys.getrecursionlimit() == 1000
        # deep enough that a recursive search would need a raised limit
        calls = []
        set_limit = sys.setrecursionlimit

        def spy(n):
            calls.append(n)
            set_limit(n)

        monkeypatch.setattr(sys, "setrecursionlimit", spy)
        t = two_deep_source_links()
        packer = topology_packer(t)
        assert packer.value(t.capacities) == pytest.approx(484.5, rel=1e-12)
        assert len(packer.best_packing(t.capacities)) == 510
        assert calls == []
        assert sys.getrecursionlimit() == 1000
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(start)


def test_packer_fits_its_documented_frame_bound(abilene_mux2):
    # the searches walk explicit stacks of frames, so a few frames above the
    # caller suffice however many pairs the source's links hold
    from qnetcap.capacity import topology_packer
    from qnetcap.solver import index_network

    topologies = [t for t, _ in deep_topologies()]
    topologies += [two_deep_source_links(), three_deep_source_links()]
    cases = [(topology_packer(t), t.capacities) for t in topologies]
    # abilene_mux2's 39-node splitter graph, unfolded
    g = directed_state(abilene_mux2)
    links = sorted({tuple(sorted(arc)) for arc in g.arcs})
    packer = index_network(g.sorted_nodes, g.gains, links, g.source, g.sink)
    cases.append((packer, [1] * len(links)))
    assert cases[-1][0].num_nodes == 39
    start = sys.getrecursionlimit()
    try:
        for packer, counts in cases:
            limit = frame_depth() + 32
            sys.setrecursionlimit(limit)
            # on a fresh packer, best_packing runs the whole value search
            # from inside its own; value then reads the memo
            packing = packer.best_packing(counts)
            delivered = [math.prod(packer.gains[n] for n in p[1:-1]) for p in packing]
            assert packer.value(counts) == pytest.approx(sum(delivered), rel=1e-12)
            assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(start)
    packer, counts = cases[3]
    assert packer.value(counts) == pytest.approx(688.5, rel=1e-12)
    assert len(packer.best_packing(counts)) == 765


def test_packer_leaves_recursion_limit_alone_on_datasets(monkeypatch, nsfnet, abilene_mux2):
    from qnetcap.capacity import full_state_capacity, topology_packer

    calls = []
    start = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
        assert full_state_capacity(nsfnet) > 0.0
        assert full_state_capacity(abilene_mux2) > 0.0
        for t, expected in deep_topologies():
            assert full_state_capacity(t) == pytest.approx(expected, rel=1e-12)
        for t, value, paths in [
            (two_deep_source_links(), 484.5, 510),
            (three_deep_source_links(), 688.5, 765),
        ]:
            packer = topology_packer(t)
            assert packer.value(t.capacities) == pytest.approx(value, rel=1e-12)
            assert len(packer.best_packing(t.capacities)) == paths
        assert calls == []
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(start)


# full-state search counts per dataset, named in the test ids: the exhaustive
# search's nodes and memo entries (the drop child first, routes depth first,
# no bound), then the bounded search's nodes and memo entries, the packing's
# paths, and the nodes and rebuild memo entries after best_packing
FULL_STATE_COUNTS = [
    ("five_node", 23, 11, 13, 6, 6, 19, 6),
    ("abilene_mux2", 447, 87, 108, 23, 4, 112, 4),
    ("nsfnet", 198, 29, 48, 3, 3, 51, 3),
]


def exhaustive_counts(t):
    """Nodes and memo entries of the exhaustive reference search of t's
    full state."""
    from qnetcap.capacity import topology_packer

    ref = ReferencePacker(topology_packer(t))
    reference_value(ref, t.capacities)
    return ref.nodes_explored, len(ref.memo)


@pytest.mark.parametrize(
    "name, exhaustive, memo_exhaustive, nodes, memo, paths, rebuilt_nodes, rebuilt",
    [pytest.param(*counts, id=f"{counts[0]}-{counts[1]}-{counts[2]}") for counts in FULL_STATE_COUNTS],
)
def test_packer_visit_order_is_pinned(
    name, exhaustive, memo_exhaustive, nodes, memo, paths, rebuilt_nodes, rebuilt
):
    # the search's node and memo counts on the full state depend on the order
    # in which it walks its children and on what its bound skips, which
    # these counts pin; so do the counts of best_packing, run after value on
    # the same packer
    from qnetcap.capacity import topology_packer

    t = datasets.load_dataset(name)
    assert exhaustive_counts(t) == (exhaustive, memo_exhaustive)
    packer = topology_packer(t)
    packer.value(t.capacities)
    assert packer.nodes_explored == nodes
    assert len(packer.memo) == memo
    assert len(packer.best_packing(t.capacities)) == paths
    assert packer.nodes_explored == rebuilt_nodes
    assert len(packer._rebuild_memo) == rebuilt


@pytest.mark.parametrize(
    "name, nodes", [pytest.param(c[0], c[3], id=f"{c[0]}-{c[1]}") for c in FULL_STATE_COUNTS]
)
def test_solve_snapshot_counts_search_nodes_only(name, nodes):
    # the nodes column of test_packer_visit_order_is_pinned: the search
    # alone, without the memo reads of the path rebuild that follows it
    solution = solve_state(datasets.load_dataset(name))
    assert solution.stats.nodes_explored == nodes


@pytest.mark.parametrize("name", [c[0] for c in FULL_STATE_COUNTS])
def test_solve_snapshot_packs_its_counts_once(name, monkeypatch):
    # the search and the path rebuild both start from one packed state
    from qnetcap.solver import PathPacker

    packed = []
    pack = PathPacker.pack

    def spy(self, counts):
        packed.append(list(counts))
        return pack(self, counts)

    monkeypatch.setattr(PathPacker, "pack", spy)
    g = directed_state(datasets.load_dataset(name))
    solution = solve_snapshot(g)
    assert len(packed) == 1
    assert solution.objective > 0.0 and solution.paths


def reference_strip(packer, counts):
    """(ok, counts) of a two-pass strip built from packer.links alone: the
    links unreached from the source go, then leaves (internal nodes on one
    live link) are peeled until none is left; ok is False, with the counts
    untouched, when the sink is unreached."""
    counts = list(counts)
    reached = {packer.source}
    grew = True
    while grew:
        grew = False
        for idx, (u, v) in enumerate(packer.links):
            if counts[idx] and (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    if packer.sink not in reached:
        return False, counts
    for idx, (u, _) in enumerate(packer.links):
        if u not in reached:
            counts[idx] = 0
    terminals = {packer.source, packer.sink}
    peeled = True
    while peeled:
        peeled = False
        for n in set(range(packer.num_nodes)) - terminals:
            live = [i for i, link in enumerate(packer.links) if counts[i] and n in link]
            if len(live) == 1:
                counts[live[0]] = 0
                peeled = True
    return True, counts


def unpack(packer, s):
    """The count list of the packed state s: byte i is the count of link i."""
    return list(s.to_bytes(len(packer.links), "little"))


def support(counts):
    """The strip table's key for counts: bit 8i set where link i holds pairs."""
    return int.from_bytes(bytes(1 if c else 0 for c in counts), "little")


def raw(counts):
    """The packed state of counts with every count as it is: byte i is
    counts[i]. pack returns it only when no count is above 1 (it sets each
    series chain to its least count)."""
    return int.from_bytes(bytes(counts), "little")


def strip(packer, counts):
    """packer._strip on a count list, as reference_strip answers: (True,
    the stripped counts), or (False, counts untouched) when the sink is cut."""
    s = packer._strip(raw(counts))
    return (True, unpack(packer, s)) if s else (False, list(counts))


def assert_strip_matches(packer, counts):
    """Strips counts twice against the reference: the first call is a
    table miss unless the support was seen before, the second a hit.
    Returns the support key."""
    key = support(counts)
    expected = reference_strip(packer, counts)
    for _ in range(2):
        assert strip(packer, counts) == expected
        assert key in packer.strips
    return key


STRIP_DRAW_SEED = 20261018


@pytest.mark.parametrize("name", datasets.DATASETS)
def test_strip_matches_two_pass_reference_on_datasets(name):
    from qnetcap.capacity import topology_packer

    t = datasets.load_dataset(name)
    packer = topology_packer(t)
    rng = np.random.default_rng(STRIP_DRAW_SEED)
    states = [list(t.capacities), [0] * len(t.links)]
    states += [
        [int(k) for k in rng.integers(0, np.asarray(t.capacities) + 1)] for _ in range(300)
    ]
    for counts in states:
        assert_strip_matches(topology_packer(t), counts)  # miss, then hit
        assert_strip_matches(packer, counts)  # its support may be stored
    assert len(packer.strips) <= len(states)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strip_matches_two_pass_reference_on_mux_counts(data, abilene_mux2):
    from qnetcap.capacity import topology_packer

    packer = topology_packer(abilene_mux2)
    n = len(packer.links)
    counts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    key = assert_strip_matches(packer, counts)
    # the same support under other counts hits the entry the first one left
    other = data.draw(
        st.lists(st.integers(1, 2), min_size=n, max_size=n).map(
            lambda ks: [k if c else 0 for k, c in zip(ks, counts)]
        )
    )
    assert assert_strip_matches(packer, other) == key
    assert len(packer.strips) == 1


def test_strip_table_stops_at_its_cap(abilene_mux2, monkeypatch):
    from qnetcap import solver
    from qnetcap.capacity import topology_packer

    rng = np.random.default_rng(STRIP_DRAW_SEED)
    caps = np.asarray(abilene_mux2.capacities)
    draws = [[int(k) for k in rng.integers(0, caps + 1)] for _ in range(2000)]

    def sweep():
        packer = topology_packer(abilene_mux2)
        values = []
        for counts in draws:
            values.append(repr(packer.value(counts)))
            assert len(packer.strips) <= solver.STRIP_CAP
        return values, packer.nodes_explored, packer.memo, packer.strips

    values, nodes, memo, strips = sweep()
    assert len(strips) > 4
    monkeypatch.setattr(solver, "STRIP_CAP", 4)
    capped = sweep()
    assert capped[:3] == (values, nodes, memo)
    assert len(capped[3]) == 4


def reference_branch(packer, counts):
    """The depth-first child generator the route table replaced, verbatim:
    each path is walked again at every call, and prefix is one list that
    changes from child to child."""
    adj = packer.adj
    gains = packer.gains
    sink = packer.sink
    for first in packer.source_links:
        if counts[first[0]]:
            break
    rest = counts.copy()
    rest[first[0]] = 0
    yield 0.0, None, rest
    # depth first over e: gain and untried are the last prefix node's
    # path gain and unvisited links; stack keeps those of each earlier
    # prefix node, with the link taken out of it, for the way back
    visited = bytearray(packer.num_nodes)
    visited[packer.source] = 1
    prefix = [packer.source]
    gain, untried = 1.0, iter((first,))
    stack = []
    while True:
        for idx, w in untried:
            if counts[idx] and not visited[w]:
                counts[idx] -= 1
                if w == sink:
                    yield gain, prefix, counts.copy()
                    counts[idx] += 1
                    continue
                visited[w] = 1
                prefix.append(w)
                stack.append((gain, idx, untried))
                gain, untried = gain * gains[w], iter(adj[w])
                break
        else:
            if not stack:
                return
            visited[prefix.pop()] = 0
            gain, idx, untried = stack.pop()
            counts[idx] += 1


def assert_branch_matches(packer, counts):
    """Strips counts, unless the sink is cut off, and checks _branch child
    by child against reference_branch: gain, prefix (a tuple) and rest, with
    the packed state unchanged after the last child. _branch yields the
    reference's route children by gain, descending, ties in depth-first
    order, then its drop child. Returns the number of paths."""
    ok, counts = strip(packer, counts)
    if not ok:
        return 0
    drop, *routes = [
        (gain, None if prefix is None else tuple(prefix), rest)
        for gain, prefix, rest in reference_branch(packer, list(counts))
    ]
    expected = sorted(routes, key=lambda child: -child[0]) + [drop]
    s = raw(counts)
    children = packer._branch(s, support(counts))
    assert [(gain, prefix, unpack(packer, rest)) for gain, prefix, rest in children] == expected
    assert unpack(packer, s) == counts
    return len(expected) - 1


def spine(packer, counts):
    """The stripped states a search of counts walks first: counts, then
    with its live source links dropped one by one, until the sink is cut."""
    ok, counts = strip(packer, counts)
    while ok:
        yield list(counts)
        counts[next(idx for idx, _ in packer.source_links if counts[idx])] = 0
        ok, counts = strip(packer, counts)


def drawn_states(t, n=300):
    rng = np.random.default_rng(STRIP_DRAW_SEED)
    caps = np.asarray(t.capacities)
    return [[int(k) for k in rng.integers(0, caps + 1)] for _ in range(n)]


@pytest.mark.parametrize("name", datasets.DATASETS)
def test_branch_matches_depth_first_reference_on_datasets(name):
    from qnetcap.capacity import topology_packer

    t = datasets.load_dataset(name)
    packer = topology_packer(t)
    for counts in [list(t.capacities), *drawn_states(t)]:
        assert_branch_matches(packer, counts)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_branch_matches_depth_first_reference_on_mux3_counts(data, abilene):
    # abilene with c = 3 on every link: counts of 0..3 pairs per link
    from qnetcap.capacity import topology_packer

    packer = topology_packer(abilene)
    n = len(packer.links)
    assert_branch_matches(packer, data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))


def test_branch_matches_depth_first_reference_on_deep_and_parallel_links():
    from qnetcap.capacity import topology_packer
    from qnetcap.solver import PathPacker

    topologies = [t for t, _ in deep_topologies()]
    topologies += [two_deep_source_links(), three_deep_source_links()]
    for t in topologies:
        packer = topology_packer(t)
        for counts in spine(packer, t.capacities):
            assert assert_branch_matches(packer, counts) > 0
    # s-a twice, s-t direct, s-b, a-b, a-t and b-t; every count in 0..2
    packer = PathPacker(
        "sabt", [(0, 1), (0, 1), (0, 3), (0, 2), (1, 2), (1, 3), (2, 3)], [1.0, 0.9, 0.8, 1.0], 0, 3
    )
    paths = [assert_branch_matches(packer, list(c)) for c in itertools.product(range(3), repeat=7)]
    assert max(paths) == 2  # over either s-a link: a-t and a-b-t
    assert set(packer.routes) == {0, 1, 2, 3}


@pytest.mark.parametrize("name", datasets.DATASETS)
def test_route_table_holds_the_full_state_spine(name):
    # the full-state search walks every path of the table on its spine, so
    # the table is no larger than that search; later states add nothing
    from qnetcap.capacity import topology_packer

    t = datasets.load_dataset(name)
    packer = topology_packer(t)
    packer.value(t.capacities)
    expected = {}
    for counts in spine(packer, t.capacities):
        first = next(idx for idx, _ in packer.source_links if counts[idx])
        expected[first] = sum(1 for _ in reference_branch(packer, counts)) - 1
    ok, stripped = strip(packer, t.capacities)
    assert ok
    assert set(expected) == {idx for idx, _ in packer.source_links if stripped[idx]}
    table = {first: len(routes) for first, routes in packer.routes.items()}
    assert table == expected
    for counts in drawn_states(t):
        packer.value(counts)
    assert {first: len(routes) for first, routes in packer.routes.items()} == table


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bound_covers_every_searched_optimum(data):
    # the search skips a child only when its bound, times SLACK, cannot
    # beat the best, so that bound must hold for every exact optimum: the
    # memo's entries
    from qnetcap.capacity import topology_packer
    from qnetcap.solver import SLACK

    t = datasets.load_dataset(data.draw(st.sampled_from(datasets.DATASETS)))
    packer = topology_packer(t)
    n = len(packer.links)
    packer.value(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    for key, optimum in packer.memo.items():  # the root's optimum among them
        assert optimum <= packer._bound(key) * SLACK


def test_bound_needs_its_slack(five_node):
    # rounding puts this state's optimum one ulp above its bound
    from qnetcap.capacity import topology_packer
    from qnetcap.solver import SLACK

    packer = topology_packer(five_node)
    counts = [0, 1, 1, 1, 4, 2, 3]
    s = packer._strip(packer.pack(counts))
    assert repr(packer.value(counts)) == "1.7750000000000001"
    assert repr(packer._bound(s)) == "1.775"
    assert packer.value(counts) <= packer._bound(s) * SLACK


@pytest.mark.parametrize("extra", [-1, 1])
def test_packer_rejects_count_vectors_of_the_wrong_length(five_node, extra):
    # a packed state would read a short vector's missing links as 0
    from qnetcap.capacity import topology_packer

    packer = topology_packer(five_node)
    n = len(packer.links)
    counts = list(five_node.capacities)
    counts = counts + [1] if extra > 0 else counts[:-1]
    message = f"count vector has {n + extra} entries, the packer has {n} links"
    with pytest.raises(ValueError, match=message):
        packer.value(counts)
    with pytest.raises(ValueError, match=message):
        packer.best_packing(counts)


class ReferencePacker:
    """State of the list-based search that packed states replaced: memo and
    path-rebuild memo keyed by bytes(counts), and a strip table keyed by the
    support bytes, filled from reference_strip."""

    def __init__(self, packer):
        self.packer = packer
        self.memo = {}
        self._rebuild_memo = {}
        self.strips = {}
        self.nodes_explored = 0

    def _strip(self, counts):
        key = bytes(1 if c else 0 for c in counts)
        drop = self.strips.get(key)
        if drop is None:
            ok, stripped = reference_strip(self.packer, counts)
            drop = self.strips[key] = ok and [i for i, c in enumerate(stripped) if c != counts[i]]
        if drop is False:
            return False
        for idx in drop:
            counts[idx] = 0
        return True

    def _branch(self, counts):
        for gain, prefix, rest in reference_branch(self.packer, list(counts)):
            yield gain, None if prefix is None else tuple(prefix), rest


def reference_value(ref, counts):
    """PathPacker.value as it was on count lists, less the MEMO_CAP clear,
    which no test reaches."""
    memo, strip = ref.memo, ref._strip
    counts = list(counts)
    frames = []
    while True:
        ref.nodes_explored += 1
        if not strip(counts):
            value = 0.0
        else:
            key = bytes(counts)
            value = memo.get(key)
            if value is None:
                children = ref._branch(counts)
                gain, _, counts = next(children)
                frames.append([key, children, 0.0, gain])
                continue
        while frames:
            key, children, best, gain = frame = frames[-1]
            if gain + value > best:
                frame[2] = gain + value
            child = next(children, None)
            if child is not None:
                frame[3], _, counts = child
                break
            frames.pop()
            value = memo[key] = frame[2]
        else:
            return value


def reference_packing(ref, counts):
    """PathPacker.best_packing as it was on count lists, with
    reference_value for its optima."""
    rebuilt, strip, sink = ref._rebuild_memo, ref._strip, ref.packer.sink
    counts = list(counts)
    frames = []
    while True:
        if not strip(counts) or (total := reference_value(ref, counts)) == 0.0:
            packing = ()
        else:
            key = bytes(counts)
            packing = rebuilt.get(key)
            if packing is None:
                frames.append([key, total, ref._branch(counts), [], None])
        while frames:
            key, total, children, candidates, path = frame = frames[-1]
            if packing is not None:
                if path is not None:
                    packing = tuple(sorted(packing + (path,)))
                candidates.append(packing)
            for gain, prefix, rest in children:
                if gain + reference_value(ref, rest) == total:
                    frame[4] = None if prefix is None else (*prefix, sink)
                    counts = rest
                    break
            else:
                frames.pop()
                packing = rebuilt[key] = min(candidates, key=lambda sol: (len(sol), sol))
                continue
            break
        else:
            return packing


def chain_min(chains, counts):
    """counts with every link of each chain at the chain's least count."""
    counts = list(counts)
    for chain in chains:
        least = min(counts[l] for l in chain)
        for l in chain:
            counts[l] = least
    return counts


def chain_min_keys(chains, table):
    """A reference memo (keyed by bytes(counts)) keyed on packed states with
    every link of each chain at the chain's least count, as pack keys a
    state; entries that merge must hold the same value."""
    merged = {}
    for key, v in table.items():
        assert merged.setdefault(raw(chain_min(chains, key)), v) == v
    return merged


def assert_search_matches(t, states):
    """Runs value then best_packing on each state, on one packer and one
    exhaustive reference, and checks value reprs and packings after each,
    and that the bounded search took no more nodes and memo entries; at the
    end, that every packer memo entry is the reference's, and the path
    rebuild memos entry by entry. The reference keys its memos on raw
    counts, so they are compared at each chain's least count
    (chain_min_keys over reference_root_groups)."""
    from qnetcap.capacity import topology_packer

    chains = reference_root_groups(t)
    packer = topology_packer(t)
    ref = ReferencePacker(packer)
    for counts in states:
        assert repr(packer.value(counts)) == repr(reference_value(ref, counts))
        assert packer.nodes_explored <= ref.nodes_explored
        assert len(packer.memo) <= len(ref.memo)
        assert packer.best_packing(counts) == reference_packing(ref, counts)
        assert packer.nodes_explored <= ref.nodes_explored
        assert len(packer._rebuild_memo) == len(chain_min_keys(chains, ref._rebuild_memo))
    memo = chain_min_keys(chains, ref.memo)
    assert {key: memo.get(key) for key in packer.memo} == packer.memo
    assert packer._rebuild_memo == chain_min_keys(chains, ref._rebuild_memo)


@pytest.mark.parametrize("name", datasets.DATASETS)
def test_search_matches_list_reference_on_datasets(name):
    t = datasets.load_dataset(name)
    assert_search_matches(t, [list(t.capacities), *drawn_states(t)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_search_matches_list_reference_on_mux3_counts(data, abilene):
    n = len(abilene.links)
    assert_search_matches(abilene, [data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))])


def test_search_matches_list_reference_on_deep_topologies():
    topologies = [t for t, _ in deep_topologies()]
    topologies += [two_deep_source_links(), three_deep_source_links()]
    for t in topologies:
        assert_search_matches(t, [list(t.capacities)])


def raise_chains(chains, counts, rng):
    """counts with each link of a series group but its first least one
    raised, at random, by 1 to 3 pairs, so the group's least count stays."""
    counts = list(counts)
    for chain in chains:
        keep = min(chain, key=lambda l: counts[l])
        for l in chain:
            if l != keep and rng.random() < 0.7:
                counts[l] += int(rng.integers(1, 4))
    return counts


def assert_chain_min_states_match(t, states):
    """Each state holds some chain above its least count; pack sets the
    chain to that count when some count is above 1, and value and
    best_packing still equal the exhaustive reference's on the raw counts
    (see assert_search_matches)."""
    from qnetcap.capacity import topology_packer

    chains = reference_root_groups(t)
    packer = topology_packer(t)
    for counts in states:
        assert chain_min(chains, counts) != counts
        packed = chain_min(chains, counts) if max(counts) > 1 else counts
        assert packer.pack(counts) == raw(packed)
    assert_search_matches(t, states)


def test_chain_min_states_match_the_reference_on_five_node(five_node):
    # the full state [2, 3, 2, 1, 4, 3, 3] holds chains (1, 4) at 3 and 4
    # pairs and (2, 6) at 2 and 3
    chains = reference_root_groups(five_node)
    assert chains == [(1, 4), (2, 6)]
    rng = np.random.default_rng(STRIP_DRAW_SEED)
    states = [list(five_node.capacities)]
    states += [raise_chains(chains, five_node.capacities, rng) for _ in range(20)]
    assert_chain_min_states_match(five_node, [s for s in states if chain_min(chains, s) != s])


def test_chain_min_states_match_the_reference_on_abilene_mux2(abilene_mux2):
    chains = reference_root_groups(abilene_mux2)
    rng = np.random.default_rng(STRIP_DRAW_SEED)
    states = [raise_chains(chains, s, rng) for s in drawn_states(abilene_mux2, 100)]
    assert_chain_min_states_match(abilene_mux2, [s for s in states if chain_min(chains, s) != s])


def test_chain_min_states_match_the_reference_on_random_mux_networks():
    rng = np.random.default_rng(STRIP_DRAW_SEED)
    checked = 0
    for _ in range(200):
        t, state = random_instance(rng, max_internal=5, max_edges=10, mux=True)
        chains = reference_root_groups(t)
        counts = raise_chains(chains, state.vector, rng)
        if chain_min(chains, counts) != counts:
            assert_chain_min_states_match(t, [counts])
            checked += 1
    assert checked > 20


def test_pack_joins_two_live_links_beside_a_dead_end():
    # a has three links, but the strip of the full graph peels the dead end
    # a-d, which leaves s-a and a-t as one group, packed at its least count
    from qnetcap.capacity import topology_packer

    caps = {("s", "a"): 3, ("a", "t"): 2, ("a", "d"): 1, ("s", "t"): 1}
    t = make_topology({"a": 0.7, "d": 0.5}, list(caps), caps=caps)
    sa, at = t.link_index["s-a"], t.link_index["a-t"]
    assert topology_packer(t).chain_table == reference_root_groups(t) == [(sa, at)]
    counts = list(t.capacities)  # s-a at 3 pairs, a-t at 2
    packed = list(counts)
    packed[sa] = 2
    assert topology_packer(t).pack(counts) == raw(packed)
    assert_chain_min_states_match(t, [counts])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pack_keeps_counts_of_at_most_one_pair(data):
    # no count above 1: byte i is counts[i], and the chain table is not built
    from qnetcap.capacity import topology_packer

    t = datasets.load_dataset(data.draw(st.sampled_from(datasets.DATASETS)))
    packer = topology_packer(t)
    n = len(packer.links)
    counts = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    assert packer.pack(counts) == raw(counts)
    assert packer.pack(np.asarray(counts, dtype=np.int64)) == raw(counts)
    assert "chain_table" not in vars(packer)

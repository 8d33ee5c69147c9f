"""Exact solver: worked examples, certificates, properties, oracle parity."""

import math
import sys

import numpy as np
import pytest

from conftest import (
    directed_state,
    make_topology,
    random_instance,
    solve_state,
    two_route_network,
)
from qnetcap import datasets
from qnetcap.flowcheck import TAU, check_assignment
from qnetcap.model import NodeSpec, Topology
from qnetcap.oracle import brute_force_capacity
from qnetcap.snapshot import SnapshotState, to_directed, to_unit_capacity
from qnetcap.solver import max_disjoint_paths, solve_snapshot


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

    g = DirectedSnapshot(
        arcs=frozenset({("s", "a"), ("a", "b"), ("b", "t")}),
        gains={"s": 1.0, "a": 0.5, "b": 0.5, "t": 1.0},
        source="s",
        sink="t",
    )
    with pytest.raises(ValueError, match="reverse arc"):
        solve_snapshot(g)


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
        tuple(NodeSpec(n.id, 1.0, n.role) for n in five_node.nodes),
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
            tuple(NodeSpec(n.id, 1.0, n.role) for n in t.nodes),
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
        backward = solve_state(t.with_endpoints(t.sink, t.source), state).objective
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
        bigger = solve_state(t, SnapshotState.from_vector(t, vec)).objective
        assert bigger >= base - 1e-12


def test_monotone_in_gains():
    rng = np.random.default_rng(CORPUS_SEED + 4)
    for _ in range(100):
        t, state = random_instance(rng)
        internal = [n for n in t.nodes if n.role == "internal"]
        if not internal:
            continue
        base = solve_state(t, state).objective
        bumped = {n.id: min(1.0, n.q * 1.2) for n in internal}
        t2 = Topology(
            tuple(
                NodeSpec(n.id, bumped.get(n.id, n.q), n.role) for n in t.nodes
            ),
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
            via_transform = solve_state(t, SnapshotState.from_vector(t, vec)).objective
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


def frame_depth():
    """Frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_packer_restores_recursion_limit(abilene_mux2, five_node):
    from qnetcap.capacity import full_state_capacity

    start = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        full_state_capacity(abilene_mux2)
        assert sys.getrecursionlimit() == 1000
        solve_state(five_node)  # value and best_packing
        assert sys.getrecursionlimit() == 1000
        # deep enough that the limit is raised for the search and put back
        for t, expected in deep_topologies():
            assert full_state_capacity(t) == pytest.approx(expected, rel=1e-12)
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(start)


def test_packer_fits_its_documented_frame_bound(abilene_mux2):
    # the search needs at most 512 + 3 * sum(counts) + num_nodes frames above
    # its caller, so it must complete with exactly that room
    from qnetcap.capacity import topology_packer
    from qnetcap.solver import index_network

    cases = [(topology_packer(t), t.capacities) for t, _ in deep_topologies()]
    # abilene_mux2's 39-node splitter graph, unfolded
    g = directed_state(abilene_mux2)
    links = sorted({tuple(sorted(arc)) for arc in g.arcs})
    cases.append((index_network(g.gains, links, g.source, g.sink), [1] * len(links)))
    assert cases[-1][0].num_nodes == 39
    start = sys.getrecursionlimit()
    try:
        for packer, counts in cases:
            limit = frame_depth() + 512 + 3 * sum(counts) + packer.num_nodes
            sys.setrecursionlimit(limit)
            # on a fresh packer, best_packing runs the whole value search one
            # frame below its own; value then reads the memo
            packing = packer.best_packing(counts)
            delivered = [math.prod(packer.gains[n] for n in p[1:-1]) for p in packing]
            assert packer.value(counts) == pytest.approx(sum(delivered), rel=1e-12)
            assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(start)


def test_packer_leaves_recursion_limit_alone_on_datasets(monkeypatch, nsfnet, abilene_mux2):
    from qnetcap.capacity import full_state_capacity

    calls = []
    start = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
        assert full_state_capacity(nsfnet) > 0.0
        assert full_state_capacity(abilene_mux2) > 0.0
        assert calls == []
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(start)

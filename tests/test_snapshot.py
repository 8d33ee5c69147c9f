"""State enumeration, probabilities, multiplex transform, directed graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_topology, random_instance
from qnetcap import datasets
from qnetcap.model import LinkSpec, Topology
from qnetcap.snapshot import (
    DirectedSnapshot,
    SnapshotState,
    enumerate_states,
    link_pmfs,
    num_states,
    state_from_index,
    state_index,
    state_probability,
    to_directed,
    to_unit_capacity,
)


def single_link(p=0.3, c=1):
    return make_topology({}, [("s", "t")], p=p, caps={("s", "t"): c})


def test_five_node_unit_variant_has_128_states(five_node):
    unit = Topology(
        five_node.nodes,
        tuple(LinkSpec(l.u, l.v, p=l.p) for l in five_node.links),
        five_node.source,
        five_node.sink,
    )
    states = list(enumerate_states(unit))
    assert len(states) == 128
    full = [s for s, _ in states if all(k == 1 for k in s.vector)]
    assert len(full) == 1
    expected = math.prod(unit.probabilities)
    _, prob = next(
        (s, p) for s, p in states if all(k == 1 for k in s.vector)
    )
    assert prob == pytest.approx(expected, rel=1e-12)


def test_five_node_state_count(five_node):
    assert num_states(five_node) == math.prod(c + 1 for c in five_node.capacities)


def test_abilene_mux2_state_count(abilene_mux2):
    assert num_states(abilene_mux2) == 3**14


@pytest.mark.slow
def test_abilene_mux2_stream_is_exhaustive(abilene_mux2):
    count = sum(1 for _ in enumerate_states(abilene_mux2))
    assert count == 4_782_969


def test_bernoulli_single_link():
    states = dict()
    for s, p in enumerate_states(single_link(p=0.3)):
        states[s.vector] = p
    assert states == {(0,): pytest.approx(0.7), (1,): pytest.approx(0.3)}


def test_probabilities_sum_to_one(five_node):
    total = math.fsum(p for _, p in enumerate_states(five_node))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_partitioned_enumeration_matches_full(five_node):
    n = num_states(five_node)
    split = n // 3
    merged = list(enumerate_states(five_node, 0, split)) + list(
        enumerate_states(five_node, split, n)
    )
    full = list(enumerate_states(five_node))
    assert [s.vector for s, _ in merged] == [s.vector for s, _ in full]


def test_state_index_round_trip(five_node):
    for index in (0, 1, 17, num_states(five_node) - 1):
        s = state_from_index(five_node, index)
        assert state_index(five_node, s) == index


def test_state_probability_binomial():
    t = single_link(p=0.5, c=2)
    s = SnapshotState.from_vector(t, (1,))
    assert state_probability(t, s) == pytest.approx(0.5)


def test_state_probability_all_zero(five_node):
    s = SnapshotState.empty(five_node)
    expected = math.prod(
        (1 - p) ** c for p, c in zip(five_node.probabilities, five_node.capacities)
    )
    assert state_probability(five_node, s) == pytest.approx(expected, rel=1e-12)


def test_state_probability_rejects_excess_count():
    t = single_link(c=1)
    s = SnapshotState(t.link_ids, (2,))
    with pytest.raises(ValueError, match="exceeds"):
        state_probability(t, s)


@pytest.mark.parametrize("check", [state_index, state_probability, to_unit_capacity])
def test_state_checks_reject_bad_vectors(check, five_node, abilene):
    link = five_node.link_index["0-4"]  # c = 1
    over = [0] * len(five_node.links)
    over[link] = 2
    with pytest.raises(ValueError, match="count 2 on link 0-4 exceeds capacity 1"):
        check(five_node, SnapshotState.from_vector(five_node, over))
    negative = [0] * len(five_node.links)
    negative[link] = -1
    with pytest.raises(ValueError, match="count -1 on link 0-4 is negative"):
        check(five_node, SnapshotState.from_vector(five_node, negative))
    # a state of another topology, with twice as many links
    with pytest.raises(ValueError, match="14 counts for 7 links"):
        check(five_node, SnapshotState.empty(abilene))


def test_counts_mapping_omits_zeros(five_node):
    s = SnapshotState.from_counts(five_node, {"0-1": 2})
    assert s.counts == {"0-1": 2}
    assert s.vector[five_node.link_index["0-1"]] == 2


def test_unit_transform_identity_when_unit_counts(five_node):
    s = SnapshotState.from_counts(five_node, {"0-1": 1, "3-4": 1})
    t2, s2 = to_unit_capacity(five_node, s)
    assert [l.key for l in t2.links] == [l.key for l in five_node.links]
    assert s2.vector == s.vector


def rebuilt_unit_topology(t):
    """A unit topology rebuilt link by link for a state with counts <= 1:
    the same nodes and links, each link with c = 1."""
    links = tuple(LinkSpec(l.u, l.v, p=l.resolved_p(t.constants), c=1) for l in t.links)
    return Topology(t.nodes, links, t.source, t.sink, t.constants)


@pytest.mark.parametrize(
    "name, counts",
    [
        ("nsfnet", None),  # every link holds its one pair
        ("five_node", {"0-1": 1, "0-3": 1, "1-2": 1, "3-4": 1}),  # links of c >= 2 hold 1
    ],
)
def test_unit_transform_passes_unit_states_through(name, counts):
    t = datasets.load_dataset(name)
    s = SnapshotState.full(t) if counts is None else SnapshotState.from_counts(t, counts)
    assert max(s.vector) == 1
    t2, s2 = to_unit_capacity(t, s)
    assert t2 is t and s2 is s
    rebuilt = rebuilt_unit_topology(t)
    old = to_directed(rebuilt, SnapshotState.from_vector(rebuilt, s.vector))
    new = to_directed(t2, s2)
    assert new.arcs == old.arcs
    assert new.gains == old.gains


def test_unit_transform_count_three_link():
    t = single_link(p=0.5, c=3)
    s = SnapshotState.from_vector(t, (3,))
    t2, s2 = to_unit_capacity(t, s)
    splitters = [n for n in t2.nodes if "__" in n.id]
    assert len(splitters) == 3
    assert all(n.q == 1.0 for n in splitters)
    assert len(t2.links) == 6
    assert all(k == 1 for k in s2.vector)
    degree = {}
    for l in t2.links:
        degree[l.u] = degree.get(l.u, 0) + 1
        degree[l.v] = degree.get(l.v, 0) + 1
    assert all(degree[n.id] == 2 for n in splitters)


@pytest.mark.parametrize(
    "pairs, mux",
    [
        # a node holds the first splitter's id
        ([("s", "t"), ("s", "s__t__1"), ("s__t__1", "t")], ("s", "t")),
        # a link holds the id s-a-b__s__1 of the first splitter's link to s
        ([("s", "a-b"), ("a-b", "t"), ("s", "s-a"), ("s-a", "b__s__1"), ("b__s__1", "t")],
         ("s", "a-b")),
    ],
)
def test_unit_transform_splitter_ids_avoid_node_and_link_ids(pairs, mux):
    from qnetcap.capacity import topology_packer
    from qnetcap.flowcheck import check_assignment
    from qnetcap.solver import solve_snapshot

    q = {n: 0.9 for pair in pairs for n in pair if n not in ("s", "t")}
    t = make_topology(q, pairs, p=0.5, caps={mux: 2})
    state = SnapshotState.full(t)
    t2, s2 = to_unit_capacity(t, state)
    splitters = [n.id for n in t2.nodes[len(t.nodes):]]
    assert len(splitters) == 2 and not set(splitters) & set(t.node_by_id)
    assert splitters == [n.id for n in to_unit_capacity(t, state)[0].nodes[len(t.nodes):]]
    assert set(s2.vector) == {1}  # each link id addresses its own link
    g = to_directed(t2, s2)
    solution = solve_snapshot(g)
    assert solution.objective == topology_packer(t).value(state.vector)
    assert check_assignment(g, solution.assignment).feasible


def test_unit_transform_full_five_node(five_node):
    s = SnapshotState.full(five_node)
    t2, s2 = to_unit_capacity(five_node, s)
    # each link with count >= 2 spawns count splitters; count-1 links unchanged
    expected_splitters = sum(c for c in five_node.capacities if c >= 2)
    splitters = [n for n in t2.nodes if "__" in n.id]
    assert len(splitters) == expected_splitters
    assert set(s2.vector) == {1}


def test_unit_transform_rejects_count_over_capacity(five_node):
    s = SnapshotState.from_counts(five_node, {"0-4": 2})
    with pytest.raises(ValueError, match="exceeds capacity"):
        to_unit_capacity(five_node, s)


def test_directed_arc_rules():
    t = make_topology(
        {"a": 0.5, "b": 0.5},
        [("s", "a"), ("a", "b"), ("b", "t"), ("s", "t")],
    )
    g = to_directed(t, SnapshotState.full(t))
    assert ("s", "a") in g.arcs and ("a", "s") not in g.arcs
    assert ("b", "t") in g.arcs and ("t", "b") not in g.arcs
    assert ("a", "b") in g.arcs and ("b", "a") in g.arcs
    assert ("s", "t") in g.arcs
    assert g.gains["s"] == 1.0 and g.gains["t"] == 1.0 and g.gains["a"] == 0.5


@pytest.mark.parametrize(
    "arcs, sink, message",
    [
        ({("s", "a")}, "s", "source and sink coincide"),
        ({("a", "a")}, "t", r"self-arc \(a, a\) forbidden"),
        ({("a", "s")}, "t", r"arc \(a, s\) enters the source"),
        ({("t", "a")}, "t", r"arc \(t, a\) leaves the sink"),
        ({("s", "x")}, "t", r"arc \(s, x\) references node without a gain"),
    ],
)
def test_directed_snapshot_rejects_ill_formed_arcs(arcs, sink, message):
    gains = {"s": 1.0, "a": 0.5, "t": 1.0}
    with pytest.raises(ValueError, match=f"^{message}$"):
        DirectedSnapshot(frozenset(arcs), gains, "s", sink)


def test_directed_empty_state(five_node):
    g = to_directed(five_node, SnapshotState.empty(five_node))
    assert g.arcs == frozenset()


def test_directed_rejects_multiplexed_counts(five_node):
    with pytest.raises(ValueError, match="to_unit_capacity"):
        to_directed(five_node, SnapshotState.full(five_node))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_directed_respects_endpoint_rules(seed):
    rng = np.random.default_rng(seed)
    t, s = random_instance(rng)
    t2, s2 = to_unit_capacity(t, s)
    g = to_directed(t2, s2)
    for u, v in g.arcs:
        assert v != g.source
        assert u != g.sink
    for u, v in g.arcs:
        if u not in (g.source, g.sink) and v not in (g.source, g.sink):
            assert (v, u) in g.arcs


def test_pmf_tables_normalized(five_node):
    for table in link_pmfs(five_node):
        assert math.fsum(table) == pytest.approx(1.0, abs=1e-12)

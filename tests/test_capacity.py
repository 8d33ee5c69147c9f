"""Capacity aggregation: exact, truncated, sampled; determinism; CSV."""

import csv
import dataclasses
import functools
import hashlib
import io
import math

import numpy as np
import pytest

from conftest import make_topology, random_instance, reference_series_chains
from qnetcap import capacity, datasets
from qnetcap.capacity import (
    SAMPLE_CHUNK,
    CapacityReport,
    StateBudgetError,
    exact_capacity,
    full_state_capacity,
    sampled_capacity,
    topology_packer,
    truncated_capacity,
)
from qnetcap.montecarlo import SimConfig, simulate_local_knowledge
from qnetcap.snapshot import num_states


def single_link(p=0.3):
    return make_topology({}, [("s", "t")], p=p)


def test_exact_five_node(five_node):
    report = exact_capacity(five_node, threads=1)
    assert report.value == pytest.approx(1.2121, abs=5e-4)
    assert report.lower == report.upper == report.value
    assert report.covered_probability == pytest.approx(1.0, abs=1e-9)
    assert report.states_evaluated == num_states(five_node)
    assert report.mode == "exact"


def test_exact_single_link():
    report = exact_capacity(single_link(0.3), threads=1)
    assert report.value == pytest.approx(0.3, abs=1e-12)
    # a direct link holding up to c pairs delivers c * p on average, up to
    # the largest pair count a link may hold
    for c in (1, 2, 255):
        t = make_topology({}, [("s", "t")], p=0.3, caps={("s", "t"): c})
        assert exact_capacity(t, threads=1).value == pytest.approx(c * 0.3, rel=1e-12)
        sampled = sampled_capacity(t, 500, seed=c, threads=1)
        assert abs(sampled.value - c * 0.3) <= 5 * sampled.stderr


def test_exact_series_chain_is_product():
    p = {("s", "a"): 0.9, ("a", "b"): 0.7, ("b", "t"): 0.6}
    t = make_topology({"a": 0.8, "b": 0.5}, list(p), p=p)
    expected = 0.9 * 0.7 * 0.6 * 0.8 * 0.5
    assert exact_capacity(t, threads=1).value == pytest.approx(expected, rel=1e-12)


def test_exact_disjoint_chains_add():
    p = {("s", "a"): 0.9, ("a", "t"): 0.4, ("s", "b"): 0.7, ("b", "c"): 0.6, ("c", "t"): 0.8}
    q = {"a": 0.3, "b": 0.5, "c": 0.9}
    t = make_topology(q, list(p), p=p)
    expected = 0.9 * 0.4 * 0.3 + 0.7 * 0.6 * 0.8 * 0.5 * 0.9
    assert exact_capacity(t, threads=1).value == pytest.approx(expected, rel=1e-12)


def test_exact_monotone_in_each_probability_and_gain():
    pairs = [("s", "a"), ("a", "b"), ("b", "t"), ("s", "b"), ("a", "t")]
    p = dict(zip(pairs, (0.5, 0.6, 0.7, 0.4, 0.3)))
    q = {"a": 0.6, "b": 0.7}
    caps = {("s", "a"): 2, ("b", "t"): 2}

    def capacity(p, q):
        return exact_capacity(make_topology(q, pairs, p=p, caps=caps), threads=1).value

    base = capacity(p, q)
    for pair in pairs:
        assert capacity({**p, pair: p[pair] + 0.2}, q) >= base * (1 - 1e-12)
    for node in q:
        assert capacity(p, {**q, node: q[node] + 0.2}) >= base * (1 - 1e-12)


def test_exact_budget_guard(five_node):
    with pytest.raises(StateBudgetError, match="budget"):
        exact_capacity(five_node, budget=100)


def test_exact_thread_count_is_bit_stable(five_node, nsfnet):
    for t in (five_node, nsfnet):
        serial = exact_capacity(t, threads=1)
        parallel = exact_capacity(t, threads=2)
        assert serial.value == parallel.value
        assert serial.covered_probability == parallel.covered_probability


def test_full_state_capacity_five_node(five_node):
    assert full_state_capacity(five_node) == pytest.approx(3.415, abs=1e-9)


def test_full_state_capacity_disconnected():
    t = make_topology({"a": 0.5, "b": 0.5}, [("s", "a"), ("b", "t")], p=0.9)
    assert full_state_capacity(t) == 0.0


def test_exact_reversal_five_node(five_node):
    forward = exact_capacity(five_node, threads=1).value
    backward = exact_capacity(
        five_node.with_endpoints(five_node.sink, five_node.source), threads=1
    ).value
    assert forward == pytest.approx(backward, abs=1e-9)


def test_truncated_rejects_nonpositive_k(five_node):
    with pytest.raises(ValueError):
        truncated_capacity(five_node, 0)


def test_truncated_single_link_most_likely_state():
    report = truncated_capacity(single_link(0.3), 1)
    assert report.states_evaluated == 1
    assert report.covered_probability == pytest.approx(0.7)
    assert report.lower == 0.0
    assert report.upper == pytest.approx(0.3)  # gap 0.3 times full capacity 1


def test_truncated_brackets_tighten(five_node):
    exact = exact_capacity(five_node, threads=1).value
    widths = []
    for k in (1, 8, 32, 128):
        report = truncated_capacity(five_node, k)
        assert report.lower <= exact + 1e-9
        assert exact <= report.upper + 1e-9
        assert report.upper - report.lower == pytest.approx(
            (1.0 - report.covered_probability) * report.full_state_capacity, abs=1e-9
        )
        widths.append(report.upper - report.lower)
    assert widths == sorted(widths, reverse=True)


def test_truncated_collapses_at_full_budget(five_node):
    n = num_states(five_node)
    exact = exact_capacity(five_node, threads=1).value
    report = truncated_capacity(five_node, n)
    assert report.states_evaluated == n
    assert report.upper - report.lower <= 1e-9
    assert report.lower == pytest.approx(exact, abs=1e-9)
    assert report.value == pytest.approx(exact, abs=1e-9)


def test_truncated_visits_states_by_probability(five_node):
    # covered probability of top-k must dominate any other k-subset: spot
    # check that it grows and that k=1 picks the single most likely state
    from qnetcap.snapshot import enumerate_states

    best = max(p for _, p in enumerate_states(five_node))
    report = truncated_capacity(five_node, 1)
    assert report.covered_probability == pytest.approx(best, rel=1e-12)
    prev = 0.0
    for k in (1, 4, 16, 64):
        covered = truncated_capacity(five_node, k).covered_probability
        assert covered > prev
        prev = covered


def test_sampled_reproducible_and_thread_stable(five_node):
    a = sampled_capacity(five_node, 3000, seed=11, threads=1)
    b = sampled_capacity(five_node, 3000, seed=11, threads=2)
    assert a.value == b.value
    assert a.stderr == b.stderr
    c = sampled_capacity(five_node, 3000, seed=12, threads=1)
    assert c.value != a.value


def test_sampled_close_to_exact(five_node):
    exact = exact_capacity(five_node, threads=1).value
    report = sampled_capacity(five_node, 20_000, seed=5, threads=1)
    assert abs(report.value - exact) <= 4 * report.stderr
    assert report.seed == 5
    assert report.mode == "sampled"


def test_sampled_deterministic_topology_zero_stderr():
    t = make_topology({"a": 0.5}, [("s", "a"), ("a", "t"), ("s", "t")], p=1.0)
    report = sampled_capacity(t, 500, seed=3)
    assert report.value == full_state_capacity(t)
    assert report.stderr == 0.0


def test_sampled_rejects_nonpositive_count(five_node):
    with pytest.raises(ValueError):
        sampled_capacity(five_node, 0)


@pytest.mark.slow
def test_sampled_abilene_mux2_converges(abilene_mux2):
    report = sampled_capacity(abilene_mux2, 1_000_000, seed=21, threads=2)
    assert abs(report.value - 1.983) <= 3 * report.stderr


def test_exact_per_state_csv(five_node, monkeypatch):
    # smaller chunks, so that two workers share the states
    monkeypatch.setattr(capacity, "STATE_CHUNK", 1024)
    out = {}
    for threads in (1, 2):
        buf = io.StringIO()
        report = exact_capacity(five_node, threads=threads, per_state=buf)
        out[threads] = buf.getvalue()
    assert out[1] == out[2]
    rows = list(csv.DictReader(io.StringIO(out[1])))
    assert len(rows) == report.states_evaluated
    assert rows[0]["state_counts"] == ";".join("0" for _ in five_node.links)
    total = math.fsum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    recombined = math.fsum(
        float(r["probability"]) * float(r["capacity"]) for r in rows
    )
    assert recombined == pytest.approx(report.value, abs=1e-9)
    assert rows[-1]["state_counts"] == ";".join(str(c) for c in five_node.capacities)


def test_sampled_per_state_csv(five_node):
    n = 3 * SAMPLE_CHUNK  # three chunks, so that two workers share them
    out = {}
    for threads in (1, 2):
        buf = io.StringIO()
        sampled_capacity(five_node, n, seed=1, per_state=buf, threads=threads)
        out[threads] = buf.getvalue()
    assert out[1] == out[2]
    rows = list(csv.DictReader(io.StringIO(out[1])))
    assert len(rows) == n
    assert all(len(r["state_counts"].split(";")) == len(five_node.links) for r in rows)


def test_exact_matches_bruteforce_expectation_on_random_networks():
    # independent route of the whole pipeline: enumerate states and score
    # each with the brute-force oracle, then compare the expectation
    import numpy as np

    from conftest import random_instance
    from qnetcap.oracle import brute_force_capacity
    from qnetcap.snapshot import enumerate_states, to_directed, to_unit_capacity

    rng = np.random.default_rng(424242)
    checked = 0
    while checked < 25:
        t, _ = random_instance(rng, max_internal=3, max_edges=5, mux=True)
        reference = 0.0
        for state, prob in enumerate_states(t):
            unit_t, unit_state = to_unit_capacity(t, state)
            reference += prob * brute_force_capacity(to_directed(unit_t, unit_state))
        report = exact_capacity(t, threads=1)
        assert report.value == pytest.approx(reference, abs=1e-9)
        checked += 1


def test_truncated_on_multiplexed_network(abilene_mux2):
    report = truncated_capacity(abilene_mux2, 50)
    assert report.states_evaluated == 50
    assert 0.0 < report.covered_probability < 1.0
    assert report.lower <= 1.983 <= report.upper


def test_multiplexed_estimates_are_pinned(abilene_mux2):
    # reprs of the estimates before the packer's strip table: the table
    # changes how a state is stripped, never the result
    report = truncated_capacity(abilene_mux2, 5000)
    assert (repr(report.value), repr(report.lower), repr(report.upper)) == (
        "2.017985806740938",
        "1.627689239380471",
        "2.4082823741014048",
    )
    report = sampled_capacity(abilene_mux2, 16384, seed=1, threads=1)
    assert (repr(report.value), repr(report.stderr)) == (
        "1.9811505880832148",
        "0.004310119736969984",
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_exact_nsfnet_is_pinned(nsfnet, threads):
    assert repr(exact_capacity(nsfnet, threads=threads).value) == "0.10133961805534757"


@pytest.mark.parametrize("threads", [1, 2])
def test_exact_multiplexed_tree_is_pinned(abilene_mux2, threads):
    # the tree over chains of two-pair links, past the state budget: each
    # decided chain rewrites its links' bytes in the packed state
    value = exact_capacity(abilene_mux2, budget=None, threads=threads).value
    assert repr(value) == "1.9824218130138982"


def test_unit_gain_capacity_is_expected_max_flow():
    # with perfect swaps the expectation reduces to the mean number of
    # disjoint routes, checkable against the independent max-flow routine
    from qnetcap.model import NodeSpec, Topology
    from qnetcap.snapshot import enumerate_states, to_directed
    from qnetcap.solver import max_disjoint_paths

    base = make_topology(
        {"a": 0.3, "b": 0.8},
        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("a", "b"), ("s", "t")],
        p=0.6,
    )
    unit = Topology(
        tuple(NodeSpec(n.id, 1.0, n.role) for n in base.nodes),
        base.links, base.source, base.sink,
    )
    expected = math.fsum(
        prob * max_disjoint_paths(to_directed(unit, state))
        for state, prob in enumerate_states(unit)
    )
    report = exact_capacity(unit, threads=1)
    assert report.value == pytest.approx(expected, abs=1e-9)


def test_report_as_dict_round_trips(five_node):
    report = sampled_capacity(five_node, 100, seed=9)
    doc = report.as_dict()
    assert doc["mode"] == "sampled"
    assert doc["seed"] == 9
    assert "stderr" in doc
    exact_doc = exact_capacity(five_node, threads=1).as_dict()
    assert "stderr" not in exact_doc and "seed" not in exact_doc


class RowSums:
    """Write-only per-state row sink: as each chunk of CSV text arrives,
    sums its rows' probability * capacity and probability, parsed from
    their reprs, and hashes the text, so that no row is kept.

    Given check, a packer that no exact run has touched, it also asserts
    that each row's capacity is check.value of the row's counts: a run with
    one worker writes its rows on the packer whose memo its tree filled, so
    without this the sums would repeat the tree's leaf optima rather than
    test them.
    """

    def __init__(self, check=None):
        self.check = check
        self.terms, self.probs, self.rows, self.last = [], [], 0, None
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        rows = [r for r in csv.reader(io.StringIO(text)) if r[0] != "state_index"]
        if rows:
            probs = [float(r[2]) for r in rows]
            caps = [float(r[3]) for r in rows]
            if self.check is not None:
                value = self.check.value
                for row, cap in zip(rows, caps):
                    assert cap == value([int(c) for c in row[1].split(";")]), row
            self.terms.append(math.fsum(p * c for p, c in zip(probs, caps)))
            self.probs.append(math.fsum(probs))
            self.rows += len(rows)
            self.last = caps[-1]

    @property
    def value(self):
        return math.fsum(self.terms)

    @property
    def covered(self):
        return math.fsum(self.probs)


def enumerated(t, threads=1, check=True):
    """The report of a per-state run of t and the sums of its rows, each
    row checked, if check, on a fresh packer of t."""
    rows = RowSums(topology_packer(t) if check else None)
    return exact_capacity(t, threads=threads, budget=None, per_state=rows), rows


@functools.cache
def enumerated_dataset(name, threads):
    """enumerated() of a bundled dataset, once per session: the tests
    below share these runs, which take up to a minute each. Only the rows
    of two workers are checked on a fresh packer (in this process, while
    the workers write them); the one-worker rows must hash the same."""
    return enumerated(datasets.load_dataset(name), threads, check=threads > 1)


DATASET_PARAMS = [
    "five_node",
    "abilene",
    pytest.param("surfnet", marks=pytest.mark.slow),
    pytest.param("nsfnet", marks=pytest.mark.slow),
    pytest.param("abilene_mux2", marks=pytest.mark.nightly),
]


@pytest.mark.parametrize("name", DATASET_PARAMS)
def test_tree_matches_enumerator_on_datasets(name):
    t = datasets.load_dataset(name)
    tree = exact_capacity(t, threads=1, budget=None)
    _, rows = enumerated_dataset(name, 2)
    assert tree.value == pytest.approx(rows.value, rel=1e-12, abs=0)
    assert tree.covered_probability == pytest.approx(1.0, abs=1e-12)
    assert rows.covered == pytest.approx(1.0, abs=1e-12)
    # the last row is the state with every pair present
    assert tree.full_state_capacity == rows.last
    assert tree.states_evaluated == rows.rows == num_states(t)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", DATASET_PARAMS)
def test_per_state_does_not_change_the_report(name, threads):
    # the rows are an export beside the tree: every field, bit for bit
    report, rows = enumerated_dataset(name, threads)
    t = datasets.load_dataset(name)
    assert report == exact_capacity(t, threads=threads, budget=None)
    # and the same bytes at any worker count, checked ones included
    assert rows.digest.digest() == enumerated_dataset(name, 2)[1].digest.digest()


def random_mux_networks():
    """60 small multiplexed networks with a p drawn per link."""
    from conftest import random_instance

    rng = np.random.default_rng(20261018)
    return [
        random_instance(rng, max_internal=5, max_edges=10, mux=True, vary_p=True)[0]
        for _ in range(60)
    ]


def test_tree_matches_enumerator_on_random_networks(monkeypatch):
    for t in random_mux_networks():
        oracle = enumerated(t)[1].value
        # the default jobs, then the whole tree as one job under one memo
        for depth in (capacity.TREE_JOB_DEPTH, 0):
            monkeypatch.setattr(capacity, "TREE_JOB_DEPTH", depth)
            tree = exact_capacity(t, threads=1)
            assert tree.value == pytest.approx(oracle, rel=1e-12, abs=0)
            assert tree.covered_probability == pytest.approx(1.0, abs=1e-12)


def test_tree_skips_impossible_counts():
    # a link at p = 0 or p = 1 has one possible count, so the tree's other
    # children of it have probability 0
    pairs = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("a", "b"), ("s", "t")]
    p = dict(zip(pairs, (1.0, 0.4, 0.0, 1.0, 0.7, 0.0)))
    caps = {("s", "a"): 2, ("a", "t"): 3, ("a", "b"): 2}
    t = make_topology({"a": 0.6, "b": 0.8}, pairs, p=p, caps=caps)
    assert exact_capacity(t, threads=1).value == pytest.approx(
        enumerated(t)[1].value, rel=1e-12, abs=0
    )


def tail(c, p, k):
    """P(X >= k) for X ~ Binomial(c, p)."""
    return math.fsum(math.comb(c, i) * p**i * (1 - p) ** (c - i) for i in range(k, c + 1))


def test_exact_multiplexed_chain_is_expected_minimum():
    # a chain delivers its least pair count times the product of its gains:
    # E[min] * prod q = sum_k prod_i P(X_i >= k) * prod q
    p = {("s", "a"): 0.9, ("a", "b"): 0.35, ("b", "c"): 0.6, ("c", "t"): 0.75}
    c = {("s", "a"): 3, ("a", "b"): 5, ("b", "c"): 2, ("c", "t"): 4}
    q = {"a": 0.8, "b": 0.5, "c": 0.9}
    t = make_topology(q, list(p), p=p, caps=c)
    assert capacity.series_chains(topology_packer(t)) == [(0, 1, 2, 3)]
    expected = math.fsum(
        math.prod(tail(c[l], p[l], k) for l in p) for k in range(1, 3)
    ) * math.prod(q.values())
    assert exact_capacity(t, threads=1).value == pytest.approx(expected, rel=1e-12)


def parallel_routes_at_255():
    """s-t beside the chain s-a-t, every link at c = 255, the largest count."""
    caps = {("s", "t"): 255, ("s", "a"): 255, ("a", "t"): 255}
    p = {("s", "t"): 0.3, ("s", "a"): 0.6, ("a", "t"): 0.45}
    return make_topology({"a": 0.7}, list(caps), p=p, caps=caps)


def shared_link_at_255(qa=0.9, qb=0.3):
    """Routes s-b-t (gain qb) and s-a-b-t (qa * qb) share b-t, at c = 255;
    a-d is a dead end."""
    p = {("s", "a"): 0.8, ("a", "b"): 0.6, ("s", "b"): 0.4, ("b", "t"): 0.05, ("a", "d"): 0.5}
    return make_topology({"a": qa, "b": qb, "d": 0.5}, list(p), p=p, caps={("b", "t"): 255})


@pytest.mark.parametrize("depth", [0, capacity.TREE_JOB_DEPTH])
def test_exact_parallel_routes_at_count_255(depth, monkeypatch):
    # depth 0 runs the whole tree as one job, under one memo
    monkeypatch.setattr(capacity, "TREE_JOB_DEPTH", depth)
    t = parallel_routes_at_255()
    assert capacity.series_chains(topology_packer(t)) == [(0, 1), (2,)]
    expected = 255 * 0.3 + 0.7 * math.fsum(
        tail(255, 0.6, k) * tail(255, 0.45, k) for k in range(1, 256)
    )
    report = exact_capacity(t, threads=1, budget=None)
    assert report.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("depth", [0, capacity.TREE_JOB_DEPTH])
def test_exact_decided_full_count_is_not_undecided(depth, monkeypatch):
    # as one job, the tree meets s-b decided at its full count of 1 and s-b
    # undecided with the same counts, so a memo key without the undecided
    # chains would confuse the two
    monkeypatch.setattr(capacity, "TREE_JOB_DEPTH", depth)
    qa, qb = 0.9, 0.3
    t = shared_link_at_255(qa, qb)
    route_a, route_b = 0.8 * 0.6, 0.4
    x1, x2 = tail(255, 0.05, 1), tail(255, 0.05, 2)
    # s-b-t takes the first pair of b-t; s-a-b-t the next one
    expected = qb * route_b * x1 + qa * qb * route_a * (route_b * x2 + (1 - route_b) * x1)
    report = exact_capacity(t, threads=1, budget=None)
    assert report.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.nightly
def test_exact_abilene_mux3_is_pinned(abilene):
    # c = 3 on every link: 4^14 = 2.7e8 states, past the default budget
    links = tuple(dataclasses.replace(link, c=3) for link in abilene.links)
    t = dataclasses.replace(abilene, links=links)
    assert num_states(t) == 4**14
    assert exact_capacity(t, threads=2, budget=None).value == 3.1875812178752434


def test_negative_thread_counts_are_refused(five_node):
    calls = [
        lambda: exact_capacity(five_node, threads=-2),
        lambda: sampled_capacity(five_node, 100, threads=-2),
        lambda: simulate_local_knowledge(five_node, SimConfig(samples=100), threads=-2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="thread count must be >= 0, got -2"):
            call()


def test_series_chains_follow_degree_two_nodes():
    # a joins s-a and a-b; b has degree 4, so b-t is a chain of its own and
    # c and d close b-c-d-b into a cycle; s and t join nothing
    pairs = [
        ("s", "a"), ("a", "b"), ("b", "t"), ("b", "c"), ("c", "d"), ("d", "b"), ("s", "t"),
    ]
    t = make_topology({n: 0.9 for n in "abcd"}, pairs)
    chains = [[t.link_ids[l] for l in chain] for chain in capacity.series_chains(topology_packer(t))]
    assert chains == [["a-b", "s-a"], ["b-c", "d-b", "c-d"], ["b-t"], ["s-t"]]


def test_series_chains_match_the_name_keyed_walk():
    for name in datasets.DATASETS:
        t = datasets.load_dataset(name)
        assert capacity.series_chains(topology_packer(t)) == reference_series_chains(t), name
    rng = np.random.default_rng(21)
    cycles = 0
    for i in range(300):
        t, _ = random_instance(rng, mux=i % 2 == 1)
        chains = capacity.series_chains(topology_packer(t))
        assert chains == reference_series_chains(t), i
        # a chain that closes into a cycle has as many nodes as links
        for chain in chains:
            ends = {n for l in chain for n in (t.links[l].u, t.links[l].v)}
            cycles += len(ends) == len(chain)
    assert cycles > 0


class BfsTree(capacity._ChainTree):
    """Reference conditioning tree: a breadth-first search from the source
    at every node for the chain to branch on, and a kept flag for the
    children that hold pairs on the links of their parent."""

    def __init__(self, t, packer):
        super().__init__(t, packer)
        self.chain_firsts = [0xFF << 8 * chain[0] for chain in self.chains]

    def _settle(self, s, open_, kept):
        packer = self.packer
        live = open_
        if not kept:
            s = packer._strip(s)
            if not s:
                return None
            firsts, rest = self.chain_firsts, open_
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not s & firsts[bit.bit_length() - 1]:
                    live ^= bit
        if not live:
            return s, live, -1
        adj, chain_of = packer.adj, self.chain_of
        counts = s.to_bytes(len(chain_of), "little")
        seen = bytearray(packer.num_nodes)
        seen[packer.source] = 1
        queue = [packer.source]
        for u in queue:
            for idx, w in adj[u]:
                if counts[idx]:
                    j = chain_of[idx]
                    if live >> j & 1:
                        return s, live, j
                    if not seen[w]:
                        seen[w] = 1
                        queue.append(w)
        raise AssertionError("an open chain outlived the strip")

    def _children(self, s, live, j):
        base, ones, rest = s & self.chain_clear[j], self.chain_ones[j], live & ~(1 << j)
        for k, prob in enumerate(self.pmfs[j]):
            if prob:
                yield prob, base + k * ones, rest, k > 0

    def prefixes(self, depth):
        out = []
        stack = [(1.0, self.full, (1 << len(self.chains)) - 1, False, 0)]
        while stack:
            mass, s, open_, kept, level = stack.pop()
            settled = self._settle(s, open_, kept)
            if settled is None:
                out.append((mass, None))
                continue
            s, live, j = settled
            if j < 0 or level == depth:
                out.append((mass, (s, live)))
                continue
            children = list(self._children(s, live, j))
            for prob, child, rest, kept in reversed(children):
                stack.append((mass * prob, child, rest, kept, level + 1))
        return out

    def expected(self, s, open_):
        packer, shift = self.packer, self.open_shift
        memo = {}
        frames = []
        kept = True
        while True:
            settled = self._settle(s, open_, kept)
            if settled is None:
                value = 0.0
            elif settled[2] < 0:
                s = settled[0]
                value = packer.memo.get(s)
                if value is None:
                    value = packer._search(s)
            else:
                s, live, j = settled
                key = live << shift | s
                value = memo.get(key)
                if value is None:
                    children = self._children(s, live, j)
                    prob, s, open_, kept = next(children)
                    frames.append([key, children, [], prob])
                    continue
            while frames:
                key, children, terms, prob = frame = frames[-1]
                terms.append(prob * value)
                child = next(children, None)
                if child is not None:
                    frame[3], s, open_, kept = child
                    break
                frames.pop()
                value = memo[key] = math.fsum(terms)
            else:
                return value


def traced_exact(t, tree_cls, monkeypatch):
    """exact_capacity of t on one worker with tree_cls as the tree: the
    report, the packer's search node count and memo size, and the settled
    (state, open mask, branch chain) of every tree node in visit order."""
    packers, settles = [], []
    settle = tree_cls._settle

    def recording(self, *args):
        settled = settle(self, *args)
        settles.append(None if settled is None else settled[:3])
        return settled

    def packer_of(t):
        packers.append(topology_packer(t))
        return packers[-1]

    with monkeypatch.context() as m:
        m.setattr(capacity, "_ChainTree", tree_cls)
        m.setattr(tree_cls, "_settle", recording)
        m.setattr(capacity, "topology_packer", packer_of)
        report = exact_capacity(t, threads=1, budget=None)
    (packer,) = packers
    return report, packer.nodes_explored, len(packer.memo), settles


def assert_tree_matches_bfs_tree(t, monkeypatch):
    # the whole tree as one job under one table and memo, then the default jobs
    for depth in (0, capacity.TREE_JOB_DEPTH):
        monkeypatch.setattr(capacity, "TREE_JOB_DEPTH", depth)
        ref = traced_exact(t, BfsTree, monkeypatch)
        new = traced_exact(t, capacity._ChainTree, monkeypatch)
        assert new[0] == ref[0]  # value and every other report field, with ==
        assert new[1:3] == ref[1:3]
        assert new[3] == ref[3]


@pytest.mark.parametrize(
    "name",
    ["five_node", "abilene", "abilene_mux2", pytest.param("nsfnet", marks=pytest.mark.slow)],
)
def test_tree_matches_bfs_tree_on_datasets(name, monkeypatch):
    assert_tree_matches_bfs_tree(datasets.load_dataset(name), monkeypatch)


def test_tree_matches_bfs_tree_on_random_and_count_255_networks(monkeypatch):
    for t in [*random_mux_networks(), parallel_routes_at_255(), shared_link_at_255()]:
        assert_tree_matches_bfs_tree(t, monkeypatch)

"""Capacity aggregation: exact, truncated, sampled; determinism; CSV."""

import csv
import dataclasses
import functools
import hashlib
import io
import math

import numpy as np
import pytest

from conftest import make_topology, random_instance, reference_root_groups
from qnetcap import capacity, datasets, solver
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
from qnetcap.solver import PathPacker


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
        dataclasses.replace(five_node, source=five_node.sink, sink=five_node.source), threads=1
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


def reference_ranking(t):
    """(probability, probability * capacity) of every state, sorted by
    (-probability, state index), each state searched on a fresh packer."""
    from qnetcap.snapshot import enumerate_states

    packer = topology_packer(t)
    ranked = sorted((-p, i, s.vector) for i, (s, p) in enumerate(enumerate_states(t)))
    return [(-neg, -neg * packer.value(vec)) for neg, _, vec in ranked]


def tied_network():
    """An 8-link random network with p = 0.5 and up to 2 pairs a link: its
    1,944 states fall in 6 blocks of equal probability."""
    rng = np.random.default_rng(0)
    while True:
        t, _ = random_instance(rng, max_internal=5, max_edges=8, mux=True)
        if len(t.links) == 8:
            return t


@pytest.mark.parametrize("name", ["five_node", "tied"])
def test_truncated_ties_pop_in_index_order(name):
    t = tied_network() if name == "tied" else datasets.load_dataset(name)
    ref = reference_ranking(t)
    n = len(ref)
    # k = 1, k = n, a third of the way, and the middle of each block of
    # equal probabilities, where the cut depends on the order of the ties
    ks = {1, n // 3, n}
    start = 0
    for i in range(1, n + 1):
        if i == n or ref[i][0] != ref[start][0]:
            if i - start > 1:
                ks.add(start + (i - start) // 2)
            start = i
    assert len(ks) == (9 if name == "tied" else 3)  # six blocks cut in the tied one
    for k in sorted(ks):
        report = truncated_capacity(t, k)
        assert report.states_evaluated == k
        assert report.covered_probability == math.fsum(p for p, _ in ref[:k])
        assert report.lower == math.fsum(term for _, term in ref[:k])


def test_sampled_reproducible_and_thread_stable(five_node):
    a = sampled_capacity(five_node, 3000, seed=11, threads=1)
    b = sampled_capacity(five_node, 3000, seed=11, threads=2)
    assert a.value == b.value
    assert a.stderr == b.stderr
    c = sampled_capacity(five_node, 3000, seed=12, threads=1)
    assert c.value != a.value


def test_pool_never_outnumbers_its_jobs(five_node, monkeypatch):
    # the pool is replaced by an in-process map that records its size, so
    # no process starts
    sizes = []

    def in_process(state, jobs, fn, workers):
        sizes.append(workers)
        return map(functools.partial(fn, state), jobs)

    monkeypatch.setattr(capacity, "_pooled", in_process)
    report = sampled_capacity(five_node, 2 * SAMPLE_CHUNK, seed=3, threads=64)
    assert sizes == [2]
    assert report == sampled_capacity(five_node, 2 * SAMPLE_CHUNK, seed=3, threads=1)
    assert sizes == [2]
    sampled_capacity(five_node, SAMPLE_CHUNK, seed=3, threads=64)
    assert sizes == [2]  # one job runs in-process


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
    from qnetcap.oracle import max_disjoint_paths

    base = make_topology(
        {"a": 0.3, "b": 0.8},
        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("a", "b"), ("s", "t")],
        p=0.6,
    )
    unit = Topology(
        tuple(NodeSpec(n.id, 1.0) for n in base.nodes),
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
    assert topology_packer(t).chain_table == [(0, 1, 2, 3)]
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
    assert topology_packer(t).chain_table == [(0, 1)]
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


def test_a_topology_with_no_links_is_worth_zero_in_every_mode():
    t = make_topology({}, [])
    assert exact_capacity(t, threads=1).value == 0.0
    assert truncated_capacity(t, 10).value == 0.0
    report = sampled_capacity(t, 10, threads=1)
    assert (report.value, report.stderr) == (0.0, 0.0)
    result = simulate_local_knowledge(t, SimConfig(samples=10), threads=1)
    assert (result.mean, result.stderr) == (0.0, 0.0)


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
    # a joins s-a and a-b; b has degree 4, so b-t is in no group, and c and
    # d close b-c-d-b into a cycle, which the strip keeps; s and t join nothing
    pairs = [
        ("s", "a"), ("a", "b"), ("b", "t"), ("b", "c"), ("c", "d"), ("d", "b"), ("s", "t"),
    ]
    t = make_topology({n: 0.9 for n in "abcd"}, pairs)
    chains = [[t.link_ids[l] for l in chain] for chain in topology_packer(t).chain_table]
    assert chains == [["a-b", "s-a"], ["b-c", "d-b", "c-d"]]


def test_series_chains_match_the_name_keyed_walk():
    for name in datasets.DATASETS:
        t = datasets.load_dataset(name)
        assert topology_packer(t).chain_table == reference_root_groups(t), name
    rng = np.random.default_rng(21)
    cycles = 0
    for i in range(300):
        t, _ = random_instance(rng, mux=i % 2 == 1)
        chains = topology_packer(t).chain_table
        assert chains == reference_root_groups(t), i
        # a chain that closes into a cycle has as many nodes as links
        for chain in chains:
            ends = {n for l in chain for n in (t.links[l].u, t.links[l].v)}
            cycles += len(ends) == len(chain)
    assert cycles > 0


class BfsTree(capacity._ChainTree):
    """Reference conditioning tree: a breadth-first search from the source
    at every node for the link to branch on, a walk over the live links at
    every branching for that link's series group, and a kept flag for the
    children that hold pairs on the links of their parent. The interior
    memo has the tree's scope: the tree's memo, for the stripped nodes
    (those not kept) that branch, read before the branch link is sought.
    Open masks are the tree's: a 1 in the byte of each open link."""

    def _settle(self, s, open_, kept):
        packer = self.packer
        live = open_
        if not kept:
            s = packer._strip(s)
            if not s:
                return None
            for l in range(len(self.pmfs)):
                if live >> 8 * l & 1 and not s >> 8 * l & 0xFF:
                    live ^= 1 << 8 * l
            value = self.memo.get(live << self.open_shift | s) if live else None
            if value is not None:
                return s, live, -1, value
        if not live:
            return s, live, -1
        counts = s.to_bytes(len(packer.links), "little")
        seen = bytearray(packer.num_nodes)
        seen[packer.source] = 1
        queue = [packer.source]
        for u in queue:
            for idx, w in packer.adj[u]:
                if counts[idx]:
                    if live >> 8 * idx & 1:
                        return s, live, idx
                    if not seen[w]:
                        seen[w] = 1
                        queue.append(w)
        raise AssertionError("an open link outlived the strip")

    def _series_group(self, s, j):
        """Link j and every link joined to it, through internal nodes with
        exactly two live links in s, one after another."""
        packer = self.packer
        counts = s.to_bytes(len(packer.links), "little")
        joined = {}
        for n in range(packer.num_nodes):
            if n in (packer.source, packer.sink):
                continue
            links = [idx for idx, _ in packer.adj[n] if counts[idx]]
            if len(links) == 2:
                a, b = links
                joined.setdefault(a, set()).add(b)
                joined.setdefault(b, set()).add(a)
        group, frontier = {j}, [j]
        while frontier:
            for i in joined.get(frontier.pop(), ()):
                if i not in group:
                    group.add(i)
                    frontier.append(i)
        return group

    def _children(self, s, live, j):
        # the group's open members take their least count; its decided
        # members cap it at theirs
        group = self._series_group(s, j)
        members = sorted(i for i in group if live >> 8 * i & 1)
        counts = s.to_bytes(len(self.pmfs), "little")
        cap = min((counts[i] for i in group if not live >> 8 * i & 1), default=255)
        pmfs = [self.pmfs[i] for i in members]
        top = min(cap + 1, *(len(pmf) for pmf in pmfs))
        if len(members) == 1 and top == len(pmfs[0]):
            pmf = pmfs[0]
        else:
            tails = [math.prod(math.fsum(pmf[k:]) for pmf in pmfs) for k in range(top)] + [0.0]
            pmf = [tails[k] - tails[k + 1] for k in range(top)]
        base, ones, rest = s, 0, live
        for i in members:
            base &= ~(0xFF << 8 * i)
            ones += 1 << 8 * i
            rest &= ~(1 << 8 * i)
        for k, prob in enumerate(pmf):
            if prob:
                yield prob, base + k * ones, rest, k > 0

    def prefixes(self, depth):
        out = []
        every = sum(1 << 8 * l for l in range(len(self.pmfs)))
        stack = [(1.0, self.full, every, False, 0)]
        while stack:
            mass, s, open_, kept, level = stack.pop()
            settled = self._settle(s, open_, kept)
            if settled is None:
                out.append((mass, None))
                continue
            s, live, j = settled[:3]
            if j < 0 or level == depth:
                out.append((mass, (s, live)))
                continue
            children = list(self._children(s, live, j))
            for prob, child, rest, kept in reversed(children):
                stack.append((mass * prob, child, rest, kept, level + 1))
        return out

    def expected(self, s, open_):
        packer, memo, shift = self.packer, self.memo, self.open_shift
        frames = []
        kept = False
        while True:
            settled = self._settle(s, open_, kept)
            if settled is None:
                value = 0.0
            elif settled[2] >= 0:
                s, live, j = settled
                key = None if kept else live << shift | s
                children = self._children(s, live, j)
                prob, s, open_, kept = next(children)
                frames.append([key, children, [], prob])
                continue
            elif settled[1]:
                value = settled[3]
            else:
                s = settled[0]
                value = packer.memo.get(s)
                if value is None:
                    value = packer._search(s)
            while frames:
                key, children, terms, prob = frame = frames[-1]
                terms.append(prob * value)
                child = next(children, None)
                if child is not None:
                    frame[3], s, open_, kept = child
                    break
                frames.pop()
                value = math.fsum(terms)
                if key is not None:
                    memo[key] = value
            else:
                return value


def traced_exact(t, tree_cls, monkeypatch):
    """exact_capacity of t on one worker with tree_cls as the tree: the
    report, the packer's search node count and memo size, and the settled
    (state, open mask, branch link) of every tree node in visit order."""
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


@pytest.mark.parametrize(
    "name, per_job",
    [("abilene_mux2", 40_418), pytest.param("nsfnet", 54_060, marks=pytest.mark.slow)],
)
def test_series_reductions_shrink_the_tree(name, per_job, monkeypatch):
    # every settled node on one worker; with series reductions only on the
    # full graph, the tree had 112,505 nodes on abilene_mux2 and 104,294 on
    # NSFNet, and with them but an interior memo per job `per_job`; the
    # run-wide interior memo takes them to at most `most`
    most = {"abilene_mux2": 36_806, "nsfnet": 41_828}[name]
    settles = traced_exact(datasets.load_dataset(name), capacity._ChainTree, monkeypatch)[3]
    assert len(settles) <= most < per_job


@pytest.mark.parametrize(
    "name, reduces, branchings, nodes, entries",
    [
        ("abilene_mux2", 1_194, 12_792, 128_055, 23_732),
        pytest.param("nsfnet", 8_009, 20_901, 58_785, 9_835, marks=pytest.mark.slow),
    ],
)
def test_tree_memo_saves_orders_and_branchings(
    name, reduces, branchings, nodes, entries, monkeypatch
):
    # one worker: its jobs share the tree's interior memo, and a node builds
    # its order only when it misses that memo and branches. With a memo per
    # job and an order for every stripped node, abilene_mux2 made 2,063
    # series reductions and 14,099 branchings, and NSFNet 14,998 and 27,017
    calls = {}

    def counted(cls, method):
        fn = getattr(cls, method)

        def spy(*args):
            calls[method] = calls.get(method, 0) + 1
            return fn(*args)

        monkeypatch.setattr(cls, method, spy)

    counted(PathPacker, "_reduce")
    counted(capacity._ChainTree, "_children")
    _, explored, memo_size, _ = traced_exact(
        datasets.load_dataset(name), capacity._ChainTree, monkeypatch
    )
    assert calls["_reduce"] <= reduces
    assert calls["_children"] <= branchings
    # the packer's search is the same
    assert (explored, memo_size) == (nodes, entries)


@pytest.mark.parametrize(
    "name, depth", [("five_node", 2), ("abilene", 5), ("abilene_mux2", 5)]
)
def test_tree_memo_is_cleared_at_the_cap(name, depth, monkeypatch):
    # five_node's jobs five levels down hold no interior node
    monkeypatch.setattr(capacity, "TREE_JOB_DEPTH", depth)
    t = datasets.load_dataset(name)
    want = exact_capacity(t, threads=1, budget=None)
    sizes = []

    class Recording(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    init = capacity._ChainTree.__init__

    def recording_init(self, *args):
        init(self, *args)
        self.memo = Recording()

    monkeypatch.setattr(capacity._ChainTree, "__init__", recording_init)
    monkeypatch.setattr(capacity, "MEMO_CAP", 4)
    assert exact_capacity(t, threads=1, budget=None) == want
    assert max(sizes) == 4 and len(sizes) > 4  # filled and cleared, never past the cap
    assert exact_capacity(t, threads=2, budget=None) == want


def test_packer_and_sample_caches_cleared_at_their_caps_keep_every_value(monkeypatch):
    # each cap cut to 4 entries: the packer's memo is cleared mid-search, the
    # rebuild searches children the cleared memo lost, and the sampled run's
    # cache of states is cleared; every value and packing stays to the bit
    def packings(name):
        t = datasets.load_dataset(name)
        rng = np.random.default_rng(1)
        vectors = [t.capacities] + [
            tuple(int(rng.integers(0, c + 1)) for c in t.capacities) for _ in range(30)
        ]
        packer = topology_packer(t)
        found = [(repr(packer.value(v)), packer.best_packing(v)) for v in vectors]
        return found, len(packer.memo)

    def runs():
        five, mux2 = packings("five_node"), packings("abilene_mux2")
        report = sampled_capacity(datasets.load_dataset("five_node"), 3000, seed=3, threads=1)
        return five, mux2, repr(report)

    want = runs()
    monkeypatch.setattr(solver, "MEMO_CAP", 4)
    monkeypatch.setattr(capacity, "_RAW_CACHE_CAP", 4)
    got = runs()
    assert [found for found, _ in got[:2]] == [found for found, _ in want[:2]]
    assert got[2] == want[2]
    # the unpatched memos outgrow the cap, the patched ones never hold more
    assert all(size > 4 for _, size in want[:2]) and all(size <= 4 for _, size in got[:2])


def test_tree_matches_bfs_tree_on_random_and_count_255_networks(monkeypatch):
    for t in [*random_mux_networks(), parallel_routes_at_255(), shared_link_at_255()]:
        assert_tree_matches_bfs_tree(t, monkeypatch)


def test_exact_zero_chain_joins_its_neighbours_in_series():
    # chain C = s-b-h through b, beside the links A = s-h and B = h-t at h:
    # deciding C at 0 leaves h with A and B only
    p = {("s", "b"): 0.7, ("b", "h"): 0.55, ("s", "h"): 0.4, ("h", "t"): 0.65}
    caps = {("s", "b"): 2, ("b", "h"): 3, ("s", "h"): 2, ("h", "t"): 3}
    qh, qb = 0.8, 0.6
    t = make_topology({"h": qh, "b": qb}, list(p), p=p, caps=caps)
    tree = capacity._ChainTree(t, topology_packer(t))
    sb, bh, A, B = (t.link_index[l] for l in ("s-b", "b-h", "s-h", "h-t"))
    # link sets are masks with a 1 in each link's byte
    C, AB = 1 << 8 * sb | 1 << 8 * bh, 1 << 8 * A | 1 << 8 * B
    # the root branches on s-b and decides C in one branching, at its least
    # count: b joins s-b and b-h, and h has three live links
    s, live, j, order = tree._settle(tree.full, 0x01010101, None, {})
    assert j == sb and order[2] == {sb: C, bh: C}
    children = list(tree._children(s, live, j, order))
    assert [rest for _, _, rest, _ in children] == [AB] * 3
    tails = [tail(2, 0.7, k) * tail(3, 0.55, k) for k in range(3)] + [0.0]
    assert [prob for prob, *_ in children] == pytest.approx(
        [tails[k] - tails[k + 1] for k in range(3)], rel=1e-12
    )
    zero = children[0]
    assert zero[3] is None  # C at 0: stripped before its node branches
    # with C at 0, A and B form one group, decided in one branching at
    # their least count, with P(min >= k) = P(A >= k) * P(B >= k)
    s, live, j, order = tree._settle(zero[1], zero[2], None, {})
    assert j == A and order[2] == {A: AB, B: AB}
    children = list(tree._children(s, live, j, order))
    assert [rest for _, _, rest, _ in children] == [0, 0, 0]
    tails = [tail(2, 0.4, k) * tail(3, 0.65, k) for k in range(3)] + [0.0]
    assert [prob for prob, *_ in children] == pytest.approx(
        [tails[k] - tails[k + 1] for k in range(3)], rel=1e-12
    )
    # the closed form: s-h-t carries min(A, B) pairs at gain qh, and s-b-h-t
    # carries min(C, B - min(A, B)) at gain qb * qh
    pmf_a = [tail(2, 0.4, a) - tail(2, 0.4, a + 1) for a in range(3)]
    pmf_b = [tail(3, 0.65, b) - tail(3, 0.65, b + 1) for b in range(4)]
    expected = math.fsum(
        pa * pb * qh * (min(a, b) + qb * math.fsum(
            tail(2, 0.7, k) * tail(3, 0.55, k) for k in range(1, b - min(a, b) + 1)
        ))
        for a, pa in enumerate(pmf_a)
        for b, pb in enumerate(pmf_b)
    )
    value = exact_capacity(t, threads=1).value
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(enumerated(t)[1].value, rel=1e-12, abs=0)


def bfs_link_order(packer, s):
    """The links of the stripped state s in the order a breadth-first
    search from the source over its links first meets them."""
    counts = s.to_bytes(len(packer.links), "little")
    seen = bytearray(packer.num_nodes)
    seen[packer.source] = 1
    queue, links = [packer.source], []
    for u in queue:
        for idx, w in packer.adj[u]:
            if counts[idx]:
                if idx not in links:
                    links.append(idx)
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return links


def test_strip_walk_order_matches_a_bfs_of_the_stripped_support():
    rng = np.random.default_rng(20261020)
    walks = merged = 0
    for i in range(200):
        t, _ = random_instance(rng, max_internal=6, max_edges=12, mux=i % 2 == 1)
        packer = topology_packer(t)
        tree = BfsTree(t, packer)
        chain_of = {l: set(chain) for chain in packer.chain_table for l in chain}
        for _ in range(8):
            vec = [int(rng.integers(0, c + 1)) for c in t.capacities]
            s = packer.pack(vec)
            x = packer._support(s)
            keep, *walk = packer._support_strip(x)
            assert keep == packer.strips[x]
            if not keep:
                continue
            walks += 1
            s &= keep
            order = packer._reduce(x & keep, *walk)
            assert order == packer._reduce(x & keep, *packer._support_strip(x & keep)[1:])
            links = bfs_link_order(packer, s)
            assert list(order[1]) == links
            assert order[0] == sum(1 << 8 * l for l in links)
            for l in links:
                group = tree._series_group(s, l)
                assert order[2].get(l, 1 << 8 * l) == sum(1 << 8 * i for i in group)
                # a group beyond one series group of the full graph
                merged += not group <= chain_of.get(l, {l})
    assert walks > 500 and merged > 0


def root_chains(t):
    """The number of series groups of t's full graph (reference_root_groups),
    each asserted to be one group of the root's order, which has no other."""
    packer = topology_packer(t)
    tree = capacity._ChainTree(t, packer)
    settled = tree._settle(tree.full, packer.ones, None, {})
    chains = reference_root_groups(t)
    if settled is None:
        assert chains == []
        return 0
    support, _, joined = settled[3]
    masks = [sum(1 << 8 * l for l in chain) for chain in chains]
    for chain, mask in zip(chains, masks):
        assert support & mask == mask, chain  # the strip keeps all of it
        assert all(joined.get(l, 0) == mask for l in chain), chain
    assert set(joined.values()) == set(masks)
    return len(chains)


def test_root_groups_hold_the_series_chains():
    kept = sum(root_chains(datasets.load_dataset(name)) for name in datasets.DATASETS)
    assert kept > 0
    rng = np.random.default_rng(20261021)
    kept = 0
    for i in range(200):
        kept += root_chains(random_instance(rng, max_internal=6, max_edges=10, mux=i % 2 == 1)[0])
    assert kept > 20


def test_exact_tree_reads_no_chain_table(abilene, monkeypatch):
    # the tree's variables are links, and unit counts pack without chains
    packers = []

    def packer_of(t):
        packers.append(topology_packer(t))
        return packers[-1]

    monkeypatch.setattr(capacity, "topology_packer", packer_of)
    assert exact_capacity(abilene, threads=1).value == 0.830100231468835
    (packer,) = packers
    assert "chain_table" not in vars(packer)

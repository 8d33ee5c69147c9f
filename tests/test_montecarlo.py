"""Local-knowledge greedy baseline simulation."""

import collections
import hashlib
import io
import math

import pytest

import numpy as np

from conftest import make_topology, random_instance
from qnetcap import montecarlo
from qnetcap.capacity import _moments, _substream, exact_capacity, topology_packer
from qnetcap.datasets import DATASETS, load_dataset
from qnetcap.montecarlo import (
    TRIAL_CHUNK,
    SimConfig,
    _run_trial,
    _SimPlan,
    _trial_chunk,
    hop_distances,
    simulate_local_knowledge,
)


def test_config_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        SimConfig(samples=0)


def test_hop_distances_simple():
    t = make_topology({"a": 0.5, "b": 0.5}, [("s", "a"), ("a", "b"), ("b", "t")])
    packer = topology_packer(t)
    d = dict(zip(packer.ids, hop_distances(packer.adj, packer.ids.index("s"))))
    assert d == {"s": 0.0, "a": 1.0, "b": 2.0, "t": 3.0}


def reference_hop_distances(t, target):
    """Hop counts to target as the simulator found them before it read the
    packer's adjacency: a BFS over node names."""
    adj = {n.id: [] for n in t.nodes}
    for l in t.links:
        adj[l.u].append(l.v)
        adj[l.v].append(l.u)
    dist = {n.id: math.inf for n in t.nodes}
    dist[target] = 0.0
    queue = collections.deque([target])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


@pytest.mark.parametrize("name", DATASETS)
def test_hop_distances_match_the_name_keyed_bfs(name):
    t = load_dataset(name)
    packer = topology_packer(t)
    for target in (t.source, t.sink):
        d = hop_distances(packer.adj, packer.ids.index(target))
        assert dict(zip(packer.ids, d)) == reference_hop_distances(t, target), target


def test_single_forced_swap():
    t = make_topology({"a": 0.6}, [("s", "a"), ("a", "t")])
    result = simulate_local_knowledge(t, SimConfig(20_000, seed=4))
    assert result.mean == pytest.approx(0.6, abs=4 * result.stderr + 1e-12)


def test_adjacent_endpoints_no_swaps():
    t = make_topology({}, [("s", "t")], p=0.5)
    result = simulate_local_knowledge(t, SimConfig(20_000, seed=4))
    assert result.mean == pytest.approx(0.5, abs=4 * result.stderr + 1e-12)


def test_deterministic_network_zero_variance():
    t = make_topology(
        {"a": 1.0, "b": 1.0},
        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")],
        p=1.0,
    )
    result = simulate_local_knowledge(t, SimConfig(500, seed=1))
    assert result.stderr == 0.0
    assert result.mean == 2.0  # greedy pairs both chains, all swaps succeed


def test_reproducible_across_worker_counts(five_node):
    serial = simulate_local_knowledge(five_node, SimConfig(4000, seed=9), threads=1)
    parallel = simulate_local_knowledge(five_node, SimConfig(4000, seed=9), threads=2)
    assert serial.mean == parallel.mean
    assert serial.stderr == parallel.stderr
    other = simulate_local_knowledge(five_node, SimConfig(4000, seed=10), threads=1)
    assert other.mean != serial.mean


def test_mean_bounded_by_exact_capacity(five_node):
    exact = exact_capacity(five_node, threads=1).value
    result = simulate_local_knowledge(five_node, SimConfig(20_000, seed=2))
    assert result.mean <= exact + 4 * result.stderr


def test_five_node_indicative_level(five_node):
    # sanity band around the known behavior of this pairing rule; the
    # greedy strategy recovers most but not all of the 1.2121 optimum
    result = simulate_local_knowledge(five_node, SimConfig(20_000, seed=2))
    assert 1.05 < result.mean < 1.25


def test_multiplexed_links_counted(five_node):
    # with everything deterministic the greedy outcome is an integer >= 2
    from qnetcap.model import LinkSpec, NodeSpec, Topology

    det = Topology(
        tuple(NodeSpec(n.id, 1.0 if n.role == "internal" else n.q, n.role)
              for n in five_node.nodes),
        tuple(LinkSpec(l.u, l.v, p=1.0, c=l.c) for l in five_node.links),
        five_node.source,
        five_node.sink,
    )
    result = simulate_local_knowledge(det, SimConfig(200, seed=0))
    assert result.stderr == 0.0
    assert result.mean == int(result.mean)
    assert result.mean >= 2.0


def test_isolated_source_delivers_nothing():
    t = make_topology({"a": 0.9, "b": 0.9}, [("a", "b"), ("b", "t")], p=1.0)
    result = simulate_local_knowledge(t, SimConfig(200, seed=0))
    assert result.mean == 0.0
    assert result.stderr == 0.0


def test_per_trial_csv(five_node):
    n = 2 * TRIAL_CHUNK + 300  # three chunks, so that two workers share them
    out = {}
    for threads in (1, 2):
        buf = io.StringIO()
        result = simulate_local_knowledge(
            five_node, SimConfig(n, seed=6), threads=threads, per_trial=buf
        )
        out[threads] = buf.getvalue()
    assert out[1] == out[2]
    lines = out[1].strip().splitlines()
    assert lines[0] == "trial,delivered"
    assert len(lines) == n + 1
    delivered = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(delivered) / n == pytest.approx(result.mean, abs=1e-12)


def test_simulate_estimates_are_pinned():
    # exact reprs from the per-trial greedy loop, so that any change to the
    # simulator's draws or decisions shows up as a changed figure
    pins = {
        "abilene_mux2": (1.63720703125, 0.018374798060105686),
        "nsfnet": (0.0869140625, 0.006452236417125821),
    }
    for name, (mean, stderr) in pins.items():
        for threads in (1, 2):
            t = load_dataset(name)
            r = simulate_local_knowledge(t, SimConfig(2048, seed=1), threads=threads)
            assert (repr(r.mean), repr(r.stderr)) == (repr(mean), repr(stderr)), (name, threads)
    buf = io.StringIO()
    simulate_local_knowledge(load_dataset("abilene_mux2"), SimConfig(2048, seed=1), per_trial=buf)
    digest = hashlib.sha1(buf.getvalue().encode()).hexdigest()
    assert digest == "e2154570ef0b14141e3a12513ced8964eea7c904"


def reference_trial(plan, gen):
    """The simulator's trial as it was before the swap table: every trial
    runs the greedy pairing again at every internal node. Link ends are
    read from the plan's adjacency."""
    links = {}
    for u, entries in enumerate(plan.adj):
        for l, v in entries:
            links.setdefault(l, (u, v))

    def _pair_cost(plan, count, here, other, to_source):
        """Distance rank of a live pair end at `here` leading toward `other`.

        Pairs on multiplexed links (count >= 2) route through inserted
        unit-gain midpoints, whose hop distances interpolate the two
        physical endpoints.
        """
        d = plan.d_s if to_source else plan.d_t
        if count >= 2:
            return 0.5 * (d[here] + d[other])
        return d[other]

    counts = plan.slots.draw(gen).tolist()

    # pair instances: (link index, pair index); each has an end at both link nodes
    instances: list[tuple[int, int]] = []
    incident: dict[int, list[int]] = {}
    for l, k in enumerate(counts):
        u, v = links[l]
        for m in range(k):
            inst = len(instances)
            instances.append((l, m))
            incident.setdefault(u, []).append(inst)
            incident.setdefault(v, []).append(inst)

    # each internal node pairs its live ends greedily; decisions are local
    partner: dict[tuple[int, int], tuple[int, bool]] = {}  # (node, inst) -> (inst, swap ok)
    for node in range(len(plan.ids)):
        if node in (plan.source, plan.sink):
            continue
        ends = incident.get(node)
        if not ends or len(ends) < 2:
            continue
        # the keys (cost, other ids, m's) are unique on a simple graph, so
        # the order of remaining never matters
        remaining = list(ends)
        while len(remaining) >= 2:
            best = None
            for a in remaining:
                la, ma = instances[a]
                ua, va = links[la]
                other_a = va if ua == node else ua
                cost_a = _pair_cost(plan, counts[la], node, other_a, to_source=True)
                for b in remaining:
                    if b == a:
                        continue
                    lb, mb = instances[b]
                    ub, vb = links[lb]
                    other_b = vb if ub == node else ub
                    cost_b = _pair_cost(plan, counts[lb], node, other_b, to_source=False)
                    key = (cost_a + cost_b, plan.ids[other_a], plan.ids[other_b], ma, mb)
                    if best is None or key < best[0]:
                        best = (key, a, b)
            _, a, b = best
            ok = bool(gen.random() < plan.q[node])
            partner[(node, a)] = (b, ok)
            partner[(node, b)] = (a, ok)
            remaining.remove(a)
            remaining.remove(b)

    # count chains that run from source to sink over successful swaps
    delivered = 0
    for inst in incident.get(plan.source, ()):
        l, _ = instances[inst]
        u, v = links[l]
        node = v if u == plan.source else u
        current = inst
        visited = {inst}
        while True:
            if node == plan.sink:
                delivered += 1
                break
            if node == plan.source:
                break  # chain looped back to the source end
            hop = partner.get((node, current))
            if hop is None or not hop[1]:
                break  # unpaired end or failed swap
            current = hop[0]
            if current in visited:
                break  # cycle: delivers nothing
            visited.add(current)
            l, _ = instances[current]
            u, v = links[l]
            node = v if u == node else u
    return delivered


def plain(state):
    """A bit generator's state with its arrays as lists, so that == compares it."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def assert_trials_match(t, trials, seed=3):
    """Same delivered count and same generator state after every trial."""
    plan = _SimPlan(t, seed)
    for i in range(trials):
        old, new = _substream(seed, i), _substream(seed, i)
        assert reference_trial(plan, old) == _run_trial(plan, new), i
        assert plain(old.bit_generator.state) == plain(new.bit_generator.state), i
    return plan


@pytest.mark.parametrize("name", DATASETS)
def test_trials_match_the_per_trial_pairing_on_datasets(name):
    assert_trials_match(load_dataset(name), 2048)


def test_trials_match_the_per_trial_pairing_on_random_networks():
    rng = np.random.default_rng(12)
    for _ in range(300):
        t, _ = random_instance(rng, mux=True, vary_p=True)
        assert_trials_match(t, 20)


def test_trials_match_with_three_pairs_per_link_at_a_degree_three_node():
    caps = {("s", "a"): 3, ("a", "b"): 3, ("a", "t"): 3}
    pairs = [("s", "a"), ("a", "b"), ("a", "t"), ("b", "t"), ("s", "b")]
    t = make_topology({"a": 0.7, "b": 0.4}, pairs, p=0.6, caps=caps)
    plan = assert_trials_match(t, 500)
    a = plan.ids.index("a")
    assert len(plan.adj[a]) == 3
    assert any(key[0] == a and len(swaps) >= 3 for key, swaps in plan.local.items())


def test_trials_match_when_the_swap_table_clears(monkeypatch):
    monkeypatch.setattr(montecarlo, "_RAW_CACHE_CAP", 2)
    plan = assert_trials_match(load_dataset("abilene_mux2"), 256)
    assert len(plan.local) <= 2


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, -1])
def test_chunk_rekeys_one_generator_as_the_per_trial_substreams(seed):
    # a chunk reuses one generator, put back before trial i in the state of
    # a fresh _substream(seed, i); rows and moments are those of the loop
    # that builds a generator per trial
    plan = _SimPlan(load_dataset("abilene_mux2"), seed)
    for start, stop in [(0, 300), (TRIAL_CHUNK, TRIAL_CHUNK + 300)]:
        delivered = [_run_trial(plan, _substream(seed, i)) for i in range(start, stop)]
        moments, rows = _trial_chunk(plan, (start, stop, True))
        assert rows == "".join(f"{i},{x}\n" for i, x in enumerate(delivered, start))
        assert moments == _moments(delivered)

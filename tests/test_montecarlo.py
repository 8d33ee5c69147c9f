"""Local-knowledge greedy baseline simulation."""

import io

import pytest

from conftest import make_topology
from qnetcap.capacity import exact_capacity
from qnetcap.montecarlo import TRIAL_CHUNK, SimConfig, hop_distances, simulate_local_knowledge


def test_config_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        SimConfig(samples=0)


def test_hop_distances_simple():
    t = make_topology({"a": 0.5, "b": 0.5}, [("s", "a"), ("a", "b"), ("b", "t")])
    d = hop_distances(t, "s")
    assert d == {"s": 0.0, "a": 1.0, "b": 2.0, "t": 3.0}


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

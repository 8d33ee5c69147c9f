"""Local-knowledge greedy routing baseline, estimated by Monte Carlo.

Models a distributed strategy: after link-level generation, every internal
node sees only which of its own links hold live pairs and greedily decides
its swaps from precomputed hop distances, preferring to join the pair end
nearest the source with the pair end nearest the sink. Swaps succeed
independently with the node's q; surviving source-sink chains are counted.

A node's swaps depend only on the pair counts of its own links, so each
node's greedy pairing runs once per such local state. The swap table on the
run's plan is keyed by (node, *its links' counts) and is cleared wholesale
once it holds _RAW_CACHE_CAP entries. A trial looks up every internal node's
swaps, then draws all their outcomes in one call, in node-then-decision
order.

This is a reconstruction of a hop-distance greedy scheme, meant as a
non-optimal comparison baseline; it is not a replica of any particular
published routing algorithm.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .capacity import (
    _drain,
    _mean_stderr,
    _moments,
    _RAW_CACHE_CAP,
    _run_chunks,
    _substream,
    topology_packer,
)
from .model import Topology
from .snapshot import PairSlots

TRIAL_CHUNK = 1 << 10  # trials per job; per-trial substreams keyed (seed, trial)


@dataclass(frozen=True)
class SimConfig:
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class SimResult:
    mean: float
    stderr: float
    samples: int


def hop_distances(t: Topology, target: str) -> dict[str, float]:
    """Unweighted BFS hop counts to target over the full physical topology."""
    adj: dict[str, list[str]] = {n.id: [] for n in t.nodes}
    for l in t.links:
        adj[l.u].append(l.v)
        adj[l.v].append(l.u)
    dist = {n.id: math.inf for n in t.nodes}
    dist[target] = 0.0
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


class _SimPlan:
    """Precomputed arrays for fast per-trial simulation, the run's seed, and
    the swap table.

    node_links[n] lists node n's link indices in link order, and internal
    the internal node indices in index order. The swap table `local` maps
    (node, *counts of node_links[node]) to the node's greedy swaps in
    decision order, as ((la, ma), (lb, mb)) pairs of pair ends. It is filled
    on first use and cleared wholesale once it holds _RAW_CACHE_CAP entries.
    """

    def __init__(self, t: Topology, seed: int):
        packer = topology_packer(t)
        self.ids, self.links, self.q = packer.ids, packer.links, packer.gains
        self.source, self.sink = packer.source, packer.sink
        self.slots = PairSlots(t)
        self.seed = seed
        d_s = hop_distances(t, t.source)
        d_t = hop_distances(t, t.sink)
        self.d_s = [d_s[nid] for nid in self.ids]
        self.d_t = [d_t[nid] for nid in self.ids]
        self.node_links: list[list[int]] = [[] for _ in self.ids]
        for l, (u, v) in enumerate(self.links):
            self.node_links[u].append(l)
            self.node_links[v].append(l)
        self.internal = [n for n in range(len(self.ids)) if n not in (self.source, self.sink)]
        self.local: dict[tuple[int, ...], tuple] = {}


def _pair_cost(plan: _SimPlan, count: int, here: int, other: int, to_source: bool):
    """Distance rank of a live pair end at `here` leading toward `other`.

    Pairs on multiplexed links (count >= 2) route through inserted unit-gain
    midpoints, whose hop distances interpolate the two physical endpoints.
    """
    d = plan.d_s if to_source else plan.d_t
    if count >= 2:
        return 0.5 * (d[here] + d[other])
    return d[other]


def _local_pairings(plan: _SimPlan, node: int, counts) -> tuple:
    """The node's greedy swaps, in decision order, given its links' counts.

    Repeatedly pairs the live end nearest the source with the live end
    nearest the sink. A pair end is (link index, pair index), listed by
    link, then by pair index.
    """
    # the keys (cost, other ids, m's) are unique on a simple graph, so
    # the order of remaining never matters
    remaining = [(l, m) for l in plan.node_links[node] for m in range(counts[l])]
    swaps = []
    while len(remaining) >= 2:
        best = None
        for a in remaining:
            la, ma = a
            ua, va = plan.links[la]
            other_a = va if ua == node else ua
            cost_a = _pair_cost(plan, counts[la], node, other_a, to_source=True)
            for b in remaining:
                if b == a:
                    continue
                lb, mb = b
                ub, vb = plan.links[lb]
                other_b = vb if ub == node else ub
                cost_b = _pair_cost(plan, counts[lb], node, other_b, to_source=False)
                key = (cost_a + cost_b, plan.ids[other_a], plan.ids[other_b], ma, mb)
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        swaps.append((a, b))
        remaining.remove(a)
        remaining.remove(b)
    return tuple(swaps)


def _run_trial(plan: _SimPlan, gen: np.random.Generator) -> int:
    counts = plan.slots.draw(gen).tolist()

    # each internal node's swaps depend only on its own links' counts
    local, node_links = plan.local, plan.node_links
    picks = []  # (node, its swaps) for every node that swaps
    n = 0
    for node in plan.internal:
        key = (node, *[counts[l] for l in node_links[node]])
        pairs = local.get(key)
        if pairs is None:
            if len(local) >= _RAW_CACHE_CAP:
                local.clear()
            pairs = local[key] = _local_pairings(plan, node, counts)
        if pairs:
            picks.append((node, pairs))
            n += len(pairs)

    # one draw per swap, in node-then-decision order; keep the successes
    partner: dict[tuple[int, tuple[int, int]], tuple[int, int]] = {}  # (node, end) -> end
    if n:
        draws = iter(gen.random(n).tolist())
        for node, pairs in picks:
            q = plan.q[node]
            for a, b in pairs:
                if next(draws) < q:
                    partner[(node, a)] = b
                    partner[(node, b)] = a

    # count chains that run from source to sink over successful swaps
    delivered = 0
    for l in plan.node_links[plan.source]:
        for m in range(counts[l]):
            u, v = plan.links[l]
            node = v if u == plan.source else u
            current = (l, m)
            visited = {current}
            while True:
                if node == plan.sink:
                    delivered += 1
                    break
                if node == plan.source:
                    break  # chain looped back to the source end
                current = partner.get((node, current))
                if current is None:
                    break  # unpaired end or failed swap
                if current in visited:
                    break  # cycle: delivers nothing
                visited.add(current)
                u, v = plan.links[current[0]]
                node = v if u == node else u
    return delivered


def _trial_chunk(plan: _SimPlan, job: tuple[int, int, bool]):
    start, stop, want_rows = job
    # one generator for the chunk: before trial i its Philox is put back in
    # the state _substream(seed, i) starts in, with the key's word 0 set to
    # i mod 2**64 (word 1 holds the seed), a zero counter and an empty buffer
    gen = _substream(plan.seed, start)
    bits = gen.bit_generator
    fresh = bits.state
    key = fresh["state"]["key"]
    delivered = []
    for i in range(start, stop):
        key[0] = i & 0xFFFFFFFFFFFFFFFF
        bits.state = fresh
        delivered.append(_run_trial(plan, gen))
    rows = None
    if want_rows:
        rows = "".join(f"{i},{x}\n" for i, x in enumerate(delivered, start))
    return _moments(delivered), rows


def simulate_local_knowledge(
    t: Topology, cfg: SimConfig, threads: int = 1, per_trial=None
) -> SimResult:
    """Mean delivered pairs per slot under the local greedy strategy.

    Trial i draws from a Philox substream keyed by (seed, i); results are
    reproducible for a fixed config regardless of worker count. per_trial
    optionally takes a path or handle for a trial-by-trial CSV.
    """
    n = cfg.samples
    want_rows = per_trial is not None
    jobs = [(a, min(a + TRIAL_CHUNK, n), want_rows) for a in range(0, n, TRIAL_CHUNK)]
    chunks = _run_chunks(partial(_SimPlan, t, cfg.seed), jobs, _trial_chunk, threads)
    mean, stderr = _mean_stderr(_drain(chunks, per_trial, "trial,delivered\n"), n)
    return SimResult(mean=mean, stderr=stderr, samples=n)

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
from dataclasses import dataclass

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


def hop_distances(adj, target: int) -> list[float]:
    """Unweighted BFS hop counts to the node index target over an
    adjacency of (link, neighbour) entries per node, as PathPacker.adj."""
    dist = [math.inf] * len(adj)
    dist[target] = 0.0
    queue = [target]
    for u in queue:
        for _, v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


class _SimPlan:
    """The packer's graph (adj, in which a link's other end from node is
    node ^ across[link]), hop distances, the run's seed, and the swap
    table `local`: (node, *its links' counts) to the node's greedy swaps in
    decision order, as ((la, ma), (lb, mb)) pairs of pair ends, filled on
    first use and cleared wholesale once it holds _RAW_CACHE_CAP entries.
    """

    def __init__(self, t: Topology, seed: int):
        packer = topology_packer(t)
        self.ids, self.adj, self.q = packer.ids, packer.adj, packer.gains
        self.source, self.sink = packer.source, packer.sink
        self.across = [u ^ v for u, v in packer.links]
        self.slots = PairSlots(t)
        self.seed = seed
        self.d_s = hop_distances(self.adj, self.source)
        self.d_t = hop_distances(self.adj, self.sink)
        self.internal = [n for n in range(len(self.ids)) if n not in (self.source, self.sink)]
        self.local: dict[tuple[int, ...], tuple] = {}


def _local_pairings(plan: _SimPlan, node: int, counts) -> tuple:
    """The node's greedy swaps, in decision order, given its links' counts.

    Repeatedly pairs the live end nearest the source with the live end
    nearest the sink. A pair end is (link index, pair index), listed by
    link, then by pair index. Pairs on multiplexed links (count >= 2) route
    through inserted unit-gain midpoints, whose hop distances interpolate
    the two physical endpoints.
    """
    d_s, d_t, ids = plan.d_s, plan.d_t, plan.ids
    remaining = []  # (distance to source, to sink, other end's id, m, end)
    for l, w in plan.adj[node]:
        if counts[l] >= 2:
            to_s, to_t = 0.5 * (d_s[node] + d_s[w]), 0.5 * (d_t[node] + d_t[w])
        else:
            to_s, to_t = d_s[w], d_t[w]
        remaining += [(to_s, to_t, ids[w], m, (l, m)) for m in range(counts[l])]
    # the keys are unique on a simple graph, so min never compares the ends
    swaps = []
    while len(remaining) >= 2:
        *_, a, b = min(
            (a[0] + b[1], a[2], b[2], a[3], b[3], a, b)
            for a in remaining for b in remaining if a is not b
        )
        swaps.append((a[4], b[4]))
        remaining.remove(a)
        remaining.remove(b)
    return tuple(swaps)


def _run_trial(plan: _SimPlan, gen: np.random.Generator) -> int:
    counts = plan.slots.draw(gen).tolist()

    # each internal node's swaps depend only on its own links' counts
    local, adj = plan.local, plan.adj
    picks = []  # (node, its swaps) for every node that swaps
    n = 0
    for node in plan.internal:
        key = (node, *[counts[l] for l, _ in adj[node]])
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

    # count chains that run from source to sink over successful swaps; each
    # end pairs at most once and the source never swaps, so no walk cycles
    across, sink = plan.across, plan.sink
    delivered = 0
    for l, first in adj[plan.source]:
        for m in range(counts[l]):
            node, current = first, (l, m)
            while node != sink:
                current = partner.get((node, current))
                if current is None:
                    break  # unpaired end or failed swap
                node ^= across[current[0]]
            else:
                delivered += 1
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
    chunks = _run_chunks(_SimPlan(t, cfg.seed), jobs, _trial_chunk, threads)
    mean, stderr = _mean_stderr(_drain(chunks, per_trial, "trial,delivered\n"), n)
    return SimResult(mean=mean, stderr=stderr, samples=n)

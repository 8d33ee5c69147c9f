"""Local-knowledge greedy routing baseline, estimated by Monte Carlo.

Models a distributed strategy: after link-level generation, every internal
node sees only which of its own links hold live pairs and greedily decides
its swaps from precomputed hop distances, preferring to join the pair end
nearest the source with the pair end nearest the sink. Swaps succeed
independently with the node's q; surviving source-sink chains are counted.

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
    """Precomputed arrays for fast per-trial simulation, and the run's seed."""

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


def _pair_cost(plan: _SimPlan, count: int, here: int, other: int, to_source: bool):
    """Distance rank of a live pair end at `here` leading toward `other`.

    Pairs on multiplexed links (count >= 2) route through inserted unit-gain
    midpoints, whose hop distances interpolate the two physical endpoints.
    """
    d = plan.d_s if to_source else plan.d_t
    if count >= 2:
        return 0.5 * (d[here] + d[other])
    return d[other]


def _run_trial(plan: _SimPlan, gen: np.random.Generator) -> int:
    counts = plan.slots.draw(gen).tolist()

    # pair instances: (link index, pair index); each has an end at both link nodes
    instances: list[tuple[int, int]] = []
    incident: dict[int, list[int]] = {}
    for l, k in enumerate(counts):
        u, v = plan.links[l]
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

        def end_key(inst: int) -> tuple:
            l, m = instances[inst]
            u, v = plan.links[l]
            other = v if u == node else u
            return (plan.ids[other], m)

        remaining = sorted(ends, key=end_key)
        while len(remaining) >= 2:
            best = None
            for a in remaining:
                la, ma = instances[a]
                ua, va = plan.links[la]
                other_a = va if ua == node else ua
                cost_a = _pair_cost(plan, counts[la], node, other_a, to_source=True)
                for b in remaining:
                    if b == a:
                        continue
                    lb, mb = instances[b]
                    ub, vb = plan.links[lb]
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
        u, v = plan.links[l]
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
            u, v = plan.links[l]
            node = v if u == node else u
    return delivered


def _trial_chunk(plan: _SimPlan, job: tuple[int, int, bool]):
    start, stop, want_rows = job
    delivered = [_run_trial(plan, _substream(plan.seed, i)) for i in range(start, stop)]
    rows = list(zip(range(start, stop), delivered)) if want_rows else None
    return _moments(delivered), rows


def _write_trial_rows(fh, rows) -> None:
    fh.write("trial,delivered\n")
    for i, x in rows:
        fh.write(f"{i},{x}\n")


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
    mean, stderr = _mean_stderr(_drain(chunks, per_trial, _write_trial_rows), n)
    return SimResult(mean=mean, stderr=stderr, samples=n)

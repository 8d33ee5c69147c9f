"""Network capacity: expectation of per-state optima over the state space.

Three modes:

  exact      the expectation over every state, by conditioning (below);
             per_state adds one CSV row per state of the mixed-radix state
             space, enumerated on the same packer, and changes no result
  truncated  best-first sweep of the k most likely states, with bounds
             (unseen probability mass is bracketed by 0 and the all-pairs
             state's capacity)
  sampled    plain Monte Carlo over states with a counter-based RNG

Exact mode conditions on one link at a time (the factoring theorem with
series reductions at every node, the root included). At each node of the
conditioning tree, the undecided links are put at full capacity and the
residual graph is stripped (PathPacker._strip): a cut-off sink makes the
subtree worth 0, and the links the strip drops lie on no path in any
completion, so their counts sum out. The tree branches on the undecided
link nearest the source, and a node with none left is a leaf, worth the
packer's optimum, searched without a second strip.

Series reductions follow each strip: an internal node left with exactly
two live links joins them into one group, since a path through it takes
one pair of each, and the branch link's whole group is decided in one
branching, at the group's least count. Its open members' tails multiply,
and a member decided earlier caps the count at its own (Satyanarayana &
Wood, Networks 15, 1985). At the root these are the groups at which
PathPacker.pack keeps every state, each decided at once.

Which link is nearest, and the groups, depend only on the settled node's
support (the links that hold pairs), so both are read once per support off
the strip's own breadth-first walk (PathPacker._support_strip) by the
packer's one series reduction (PathPacker._reduce), in a table that each
job keeps, and only for a node that branches and misses the interior memo.
That memo is the tree's, so each process keeps one for all the jobs it
runs, and holds exact values only: a node's value is the fsum of its
children in a fixed order. A child that decides its group at k > 0 pairs
keeps the links of its parent: it takes the parent's order, and is
neither stripped nor memoized.

Runs split their work into fixed jobs: chunks of samples, or the subtrees
TREE_JOB_DEPTH levels below the root of the tree. Each job's terms are
reduced with math.fsum, which is exactly rounded, and the job sums are
combined with math.fsum again; since the jobs do not depend on the worker
count, results are bit-identical for any number of workers. Per-state
rows are written in fixed chunks of states, in order, likewise.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import MAX_LINK_PAIRS, Topology
from .snapshot import (
    STATE_CSV_HEADER,
    PairSlots,
    csv_text,
    encode_index,
    link_pmfs,
    num_states,
    odometer,
    state_bases,
    state_row,
)
from .solver import MEMO_CAP, PathPacker, index_network

EXACT_STATE_BUDGET = 1 << 22
STATE_CHUNK = 1 << 14  # states per reduction chunk (fixed: determinism contract)
TREE_JOB_DEPTH = 5  # tree levels above the exact jobs (fixed: determinism contract)
SAMPLE_CHUNK = 1 << 12  # samples per RNG block (fixed: substream derivation)


class StateBudgetError(ValueError):
    """Exact run refused because the state space exceeds the budget."""


@dataclass(frozen=True)
class CapacityReport:
    """Capacity estimate with provenance; see module docstring for modes.

    In exact mode lower == upper == value. In truncated mode value is the
    midpoint of [lower, upper]. In sampled mode value is the sample mean,
    stderr its standard error, and covered_probability is reported as 0.
    """

    mode: str
    value: float
    lower: float
    upper: float
    covered_probability: float
    full_state_capacity: float
    states_evaluated: int
    stderr: Optional[float] = None
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        """Fields in declaration order; stderr and seed only when set."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def topology_packer(t: Topology) -> PathPacker:
    """Path-packing engine over the topology's own links and gains."""
    gains = {n.id: t.q_of(n.id) for n in t.nodes}
    return index_network(gains, [(l.u, l.v) for l in t.links], t.source, t.sink)


def full_state_capacity(t: Topology) -> float:
    """Capacity of the state with every pair present (upper bound on any state)."""
    return topology_packer(t).value(t.capacities)


class _Engine:
    """Rows and samples on the run's packer, with a cache of samples;
    exact rows reuse the tree's memo only if it ran in this process."""

    def __init__(self, t: Topology, packer: PathPacker):
        self.packer = packer
        self.pmfs = link_pmfs(t)
        self.bases = state_bases(t)
        self.slots = PairSlots(t)
        self.cache: dict[bytes, float] = {}


_RAW_CACHE_CAP = 1 << 19
_WORKER = None  # the run's state, handed to this worker process by _init_worker


def _init_worker(state) -> None:
    global _WORKER
    _WORKER = state


def _on_worker(fn, job):
    return fn(_WORKER, job)


def _run_chunks(state, jobs: Sequence, fn, threads: int) -> Iterator:
    """fn(state, job) for each job in job order; threads = 0 takes every
    core, and more than one worker (never more than there are jobs) runs in
    a fork pool, whose workers inherit state as built. A negative thread
    count is refused at once."""
    if threads < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    workers = min(threads or os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        return map(partial(fn, state), jobs)
    return _pooled(state, jobs, fn, workers)


def _pooled(state, jobs: Sequence, fn, workers: int) -> Iterator:
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker, initargs=(state,)) as pool:
        yield from pool.imap(partial(_on_worker, fn), jobs)


def _open_rows(path_or_fh):
    """Context manager over a row sink: a handle, left open, or a path."""
    if hasattr(path_or_fh, "write"):
        return nullcontext(path_or_fh)
    return open(path_or_fh, "w", encoding="utf-8", newline="")


def _drain(results: Iterator, per_row, header: str) -> list:
    """Chunk summaries in job order. With per_row, the header and then
    each chunk's CSV text, formatted by its worker, are written to it."""
    if per_row is None:
        return [summary for summary, _ in results]
    summaries = []
    with _open_rows(per_row) as fh:
        fh.write(header)
        for summary, text in results:
            summaries.append(summary)
            fh.write(text)
    return summaries


def _moments(xs: Sequence[float]) -> tuple[float, float, float, float]:
    """One chunk's (sum, sum of squares, min, max) of a nonempty sample."""
    return math.fsum(xs), math.fsum(x * x for x in xs), min(xs), max(xs)


def _mean_stderr(parts: Sequence[tuple], n: int) -> tuple[float, float]:
    """Mean and standard error of n values from their chunks' _moments."""
    mean = math.fsum(p[0] for p in parts) / n
    lo = min(p[2] for p in parts)
    hi = max(p[3] for p in parts)
    if n > 1 and hi > lo:
        total_sq = math.fsum(p[1] for p in parts)
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    else:
        variance = 0.0
    return mean, math.sqrt(variance / n)


def _substream(seed: int, i: int) -> np.random.Generator:
    """Philox generator keyed by (seed, i), each taken modulo 2**64."""
    mask = 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=((seed & mask) << 64) | (i & mask)))


def _exact_chunk(engine: _Engine, job: tuple[int, int]):
    value = engine.packer.value
    states = odometer(engine.bases, engine.pmfs, *job)
    return None, csv_text(state_row(i, vec, prob, value(vec)) for i, vec, prob in states)


def _sample_chunk(engine: _Engine, job: tuple[int, int, int, bool]):
    chunk_index, count, seed, want_rows = job
    gen = _substream(seed, chunk_index)
    packer, pmfs, cache = engine.packer, engine.pmfs, engine.cache
    caps: list[float] = []
    rows = [] if want_rows else None
    for vec in engine.slots.draw(gen, count).tolist():
        key = bytes(vec)
        cap = cache.get(key)
        if cap is None:
            cap = packer.value(vec)
            if len(cache) >= _RAW_CACHE_CAP:
                cache.clear()
            cache[key] = cap
        caps.append(cap)
        if rows is not None:
            prob = math.prod(pmf[c] for pmf, c in zip(pmfs, vec))
            rows.append(state_row(encode_index(engine.bases, vec), vec, prob, cap))
    return _moments(caps), csv_text(rows) if want_rows else None


def chain_pmf(pmfs: Sequence[Sequence[float]], cap: int) -> tuple[float, ...]:
    """pmf of the least of independent counts with the given pmfs and of
    a fixed count cap.

    P(min >= k) is the product of the counts' tails, each an exactly
    rounded sum, for k up to cap, and 0 past it, so the tails never
    increase with k and their differences are never negative. A single
    count that cap does not bound keeps its own pmf.
    """
    top = min(cap + 1, *(len(pmf) for pmf in pmfs))
    if len(pmfs) == 1 and top == len(pmfs[0]):
        return tuple(pmfs[0])
    tails = [math.prod(math.fsum(pmf[k:]) for pmf in pmfs) for k in range(top)]
    tails.append(0.0)
    return tuple(tails[k] - tails[k + 1] for k in range(top))


class _ChainTree:
    """Conditioning tree of one topology over its links (see the module
    docstring), with a packer as leaf evaluator.

    A tree node is a packed state (see PathPacker.pack) and a bit mask of
    the open (undecided and relevant) links, which hold their counts of
    the packed full state. Nodes are settled: stripped, with the links the
    strip drops taken out of the mask. Deciding link l at k pairs sets
    byte l of the state to k.

    The series reductions of a settled node depend only on its support
    (the links that hold pairs), and are read off the strip walk that
    settled it (PathPacker._support_strip) by PathPacker._reduce as its
    order: (support, present, links, joined), the links in the walk's
    order and each joined link's group. The root's groups are those that
    PathPacker.pack sets to their least counts. Each job keeps the orders
    in a table of its own (orders), keyed on the support; the interior
    memo (memo, see expected) is the tree's, kept across jobs.

    A node branches on the first open link of its order and decides the
    open members of its group at once. Their least count has
    P(min >= k) the product of their tails, capped at the least count of
    the group's decided members (see chain_pmf). The (clear mask, ones,
    pmf) of each group is kept in groups, keyed on (open members, cap); a
    link in no group uses its own pmf.
    """

    def __init__(self, t: Topology, packer: PathPacker):
        self.packer = packer
        self.full = packer.pack(t.capacities)
        self.pmfs = link_pmfs(t)
        self.groups: dict[tuple[int, int], tuple] = {}
        self.memo: dict[int, float] = {}  # interior values of stripped nodes
        self.open_shift = 8 * len(t.links)  # interior memo keys: open mask above the state

    def _settle(
        self, s: int, open_: int, order: Optional[tuple], orders: dict
    ) -> Optional[tuple]:
        """Settles a node; None if the sink is cut off, else the settled
        state, the open mask left, the open link to branch on (the first
        in the state's order) and that order. A node that does not branch
        gets link -1 and its interior memo value, or at a leaf its support.

        order: the order of the node's settled parent when the node holds
        pairs on the same links (only counts changed), so it is settled
        already and not memoized; None when it must be stripped. A stripped
        node's open mask is cut to its support (bit 8i to bit i) and its
        memo entry read; only a node that misses and branches looks up its
        order or builds it off the strip walk (PathPacker._support_strip),
        walked again if the keep mask was in its table.
        """
        if order is None:
            packer = self.packer
            x = packer._support(s)
            keep = packer.strips.get(x)
            walk = None
            if keep is None:
                keep, *walk = packer._support_strip(x)
            if not keep:
                return None
            s &= keep
            x &= keep
            open_ &= int(x.to_bytes(len(self.pmfs), "big").hex()[1::2], 2)
            if not open_:
                return s, 0, -1, x
            value = self.memo.get(open_ << self.open_shift | s)
            if value is not None:
                return s, open_, -1, value
            order = orders.get(x)
            if order is None:
                if walk is None:
                    _, *walk = packer._support_strip(x)
                order = orders[x] = packer._reduce(x, *walk)
        elif not open_:
            return s, 0, -1, order[0]
        for j in order[2]:  # open_ holds only links of the order
            if open_ >> j & 1:
                break
        return s, open_, j, order

    def _group(self, s: int, live: int, group: int) -> tuple:
        """(clear mask, ones, pmf, open members) of a group of links at
        the settled state s with open mask live."""
        members = group & live
        decided = group ^ members
        cap = MAX_LINK_PAIRS
        while decided:
            bit = decided & -decided
            decided ^= bit
            cap = min(cap, s >> 8 * (bit.bit_length() - 1) & 0xFF)
        cached = self.groups.get((members, cap))
        if cached is None:
            ones, pmfs = 0, []
            rest = members
            while rest:
                bit = rest & -rest
                rest ^= bit
                l = bit.bit_length() - 1
                ones |= 1 << 8 * l
                pmfs.append(self.pmfs[l])
            clear = (self.packer.ones ^ ones) * 0xFF
            cached = self.groups[members, cap] = clear, ones, chain_pmf(pmfs, cap), members
        return cached

    def _children(self, s: int, live: int, j: int, order: tuple) -> Iterator:
        """(probability, state, open mask, order) of each child with the
        group of link j decided, in count order; children of probability 0
        are left out. A child with pairs on the group keeps the links of
        its parent, so it takes the parent's order; the one without gets
        None (see _settle)."""
        joined = order[3]
        if joined and j in joined:
            clear, ones, pmf, members = self._group(s, live, joined[j])
        else:
            ones, pmf, members = 1 << 8 * j, self.pmfs[j], 1 << j
            clear = ~(ones * 0xFF)
        base, rest = s & clear, live & ~members
        for k, prob in enumerate(pmf):
            if prob:
                yield prob, base + k * ones, rest, order if k else None

    def prefixes(self, depth: int) -> list[tuple[float, Optional[tuple]]]:
        """(mass, node) of the tree's nodes `depth` levels down and of its
        shallower nodes that do not branch, depth first; node is None where
        the sink is cut off, else the settled (state, open mask)."""
        out = []
        orders: dict[int, tuple] = {}
        stack = [(1.0, self.full, (1 << len(self.pmfs)) - 1, None, 0)]
        while stack:
            mass, s, open_, order, level = stack.pop()
            settled = self._settle(s, open_, order, orders)
            if settled is None:
                out.append((mass, None))
                continue
            s, live, j, order = settled
            if j < 0 or level == depth:
                out.append((mass, (s, live)))
                continue
            children = list(self._children(s, live, j, order))
            for prob, child, rest, order in reversed(children):
                stack.append((mass * prob, child, rest, order, level + 1))
        return out

    def expected(self, s: int, open_: int) -> float:
        """Expected leaf value below one settled node, over its open links.

        The walk keeps one frame per interior node on the way down: its
        memo key (0 if it is not memoized), its children still to come,
        their weighted values so far and the probability of the child
        being walked. The tree's interior memo (memo) holds the stripped
        nodes that branch, keyed on the settled state with the open mask
        above its bytes, and is cleared wholesale at MEMO_CAP entries. The
        orders (see the class docstring) live in a table for this walk
        only. A leaf is settled, so the packer searches it without
        stripping it again.
        """
        packer, memo, shift = self.packer, self.memo, self.open_shift
        orders: dict[int, tuple] = {}
        frames: list[list] = []
        order = None
        while True:
            settled = self._settle(s, open_, order, orders)
            if settled is None:
                value = 0.0
            else:
                s, live, j, found = settled
                if j >= 0:
                    key = live << shift | s if order is None else 0
                    children = self._children(s, live, j, found)
                    prob, s, open_, order = next(children)
                    frames.append([key, children, [], prob])
                    continue
                if live:
                    value = found  # an interior memo hit
                else:
                    # a leaf: settled, so stripped, as the packer keys its memo
                    value = packer.memo.get(s)
                    if value is None:
                        value = packer._search(s, found)
            while frames:
                key, children, terms, prob = frame = frames[-1]
                terms.append(prob * value)
                child = next(children, None)
                if child is not None:
                    frame[3], s, open_, order = child
                    break
                frames.pop()
                value = math.fsum(terms)
                if key:
                    if len(memo) >= MEMO_CAP:
                        memo.clear()
                    memo[key] = value
            else:
                return value


def _tree_job(tree: _ChainTree, job: tuple[int, int]) -> float:
    return tree.expected(*job)


def exact_capacity(
    t: Topology,
    threads: int = 0,
    budget: Optional[int] = EXACT_STATE_BUDGET,
    per_state: Optional[object] = None,
) -> CapacityReport:
    """Exact capacity: sum of P(state) * capacity(state) over every state.

    The sum is taken over the conditioning tree of links, whose subtrees
    TREE_JOB_DEPTH levels down are the jobs. per_state (a path or
    a text handle) then gets one CSV row per state, enumerated on the run's
    packer (see _Engine); it changes no field of the report. budget bounds
    the number of states.
    """
    n = num_states(t)
    if budget is not None and n > budget:
        raise StateBudgetError(
            f"state space holds {n} states, over the budget of {budget}; "
            "use truncated_capacity or sampled_capacity, or raise the budget"
        )
    packer = topology_packer(t)
    full_cap = packer.value(t.capacities)
    tree = _ChainTree(t, packer)
    prefixes = tree.prefixes(TREE_JOB_DEPTH)
    jobs = [(mass, node) for mass, node in prefixes if node is not None]
    values = list(_run_chunks(tree, [node for _, node in jobs], _tree_job, threads))
    value = math.fsum(mass * v for (mass, _), v in zip(jobs, values))
    covered = math.fsum(mass for mass, _ in prefixes)
    if per_state is not None:
        chunks = [(a, min(a + STATE_CHUNK, n)) for a in range(0, n, STATE_CHUNK)]
        rows = _run_chunks(_Engine(t, packer), chunks, _exact_chunk, threads)
        _drain(rows, per_state, STATE_CSV_HEADER)
    return CapacityReport(
        mode="exact",
        value=value,
        lower=value,
        upper=value,
        covered_probability=covered,
        full_state_capacity=full_cap,
        states_evaluated=n,
    )


def truncated_capacity(t: Topology, k: int) -> CapacityReport:
    """Bounds from the k most likely states, visited best-first.

    lower sums P * capacity over the visited states; upper adds the unseen
    probability mass times the all-pairs state capacity.
    """
    if k < 1:
        raise ValueError(f"state budget k must be >= 1, got {k}")
    packer = topology_packer(t)
    full_cap = packer.value(t.capacities)
    pmfs = link_pmfs(t)
    # each link's counts by decreasing probability (ties: lower count), as
    # a map from each count to the next; a state steps one link along its
    # map, and only links from its parent's stepped link on, so each state
    # is pushed once. Equal probabilities pop in state order, which is the
    # index order (encode_index: the last link varies fastest), as a step
    # between equally likely counts raises the count
    ranked = [sorted(range(len(pmf)), key=lambda c: (-pmf[c], c)) for pmf in pmfs]
    after = [dict(zip(counts, counts[1:])) for counts in ranked]
    root = tuple(counts[0] for counts in ranked)
    heap = [(-math.prod([pmf[x] for pmf, x in zip(pmfs, root)]), root, 0)]
    terms: list[float] = []
    probs: list[float] = []
    while heap and len(probs) < k:
        neg_prob, state, first = heapq.heappop(heap)
        terms.append(-neg_prob * packer.value(state))
        probs.append(-neg_prob)
        for l in range(first, len(state)):
            x = after[l].get(state[l])
            if x is not None:
                child = state[:l] + (x,) + state[l + 1 :]
                prob = math.prod([pmf[c] for pmf, c in zip(pmfs, child)])
                heapq.heappush(heap, (-prob, child, l))
    lower = math.fsum(terms)
    covered = math.fsum(probs)
    upper = lower + max(0.0, 1.0 - covered) * full_cap
    return CapacityReport(
        mode="truncated",
        value=0.5 * (lower + upper),
        lower=lower,
        upper=upper,
        covered_probability=covered,
        full_state_capacity=full_cap,
        states_evaluated=len(probs),
    )


def sampled_capacity(
    t: Topology,
    samples: int,
    seed: int = 0,
    threads: int = 0,
    per_state: Optional[object] = None,
) -> CapacityReport:
    """Monte Carlo estimate: mean capacity over i.i.d. sampled states.

    Sample i is drawn from a Philox substream keyed by (seed, i // 4096),
    so runs are reproducible for a fixed seed regardless of worker count.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    packer = topology_packer(t)
    full_cap = packer.value(t.capacities)
    want_rows = per_state is not None
    jobs = [
        (a // SAMPLE_CHUNK, min(SAMPLE_CHUNK, samples - a), seed, want_rows)
        for a in range(0, samples, SAMPLE_CHUNK)
    ]
    chunks = _run_chunks(_Engine(t, packer), jobs, _sample_chunk, threads)
    mean, stderr = _mean_stderr(_drain(chunks, per_state, STATE_CSV_HEADER), samples)
    return CapacityReport(
        mode="sampled",
        value=mean,
        lower=mean,
        upper=mean,
        covered_probability=0.0,
        full_state_capacity=full_cap,
        states_evaluated=samples,
        stderr=stderr,
        seed=seed,
    )

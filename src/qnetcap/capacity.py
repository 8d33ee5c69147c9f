"""Network capacity: expectation of per-state optima over the state space.

Three modes:

  exact      the expectation over every state, by conditioning (below);
             per_state adds one CSV row per state of the mixed-radix state
             space, enumerated on the same packer, and changes no result
  truncated  best-first sweep of the k most likely states, with bounds
             (unseen probability mass is bracketed by 0 and the all-pairs
             state's capacity)
  sampled    plain Monte Carlo over states with a counter-based RNG

Exact mode conditions on one variable at a time (the factoring theorem with
series reductions). Each maximal chain of links through internal nodes of
degree 2 is one variable: a path through such a node takes one pair of
each of its links, so only the chain's least pair count matters, and
P(min >= k) is the product of the links' tails. Every other link is a
variable of its own. At each node of the conditioning tree, the undecided
variables are put at full capacity and the residual graph is stripped
(PathPacker._strip): a cut-off sink makes the subtree worth 0, and the
links the strip drops lie on no path in any completion, so their variables
sum out. The tree branches on the undecided variable nearest the source,
and a node with none left is a leaf, worth the packer's optimum, searched
without a second strip.

Which variable is nearest depends only on the settled node's support (the
links that hold pairs), so the variables are ordered once per support, by
a breadth-first search from the source, in a table that each job keeps
beside its memo. A child that decides its variable at k > 0 pairs keeps
the links of its parent: it takes the parent's order and is not stripped.

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

from .model import Topology
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
from .solver import PathPacker, index_network, series_chains  # noqa: F401 (re-exported)

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
_WORKER = None  # this worker process's state, built once by _init_worker


def _init_worker(build) -> None:
    global _WORKER
    _WORKER = build()


def _on_worker(fn, job):
    return fn(_WORKER, job)


def _run_chunks(build, jobs: Sequence, fn, threads: int) -> Iterator:
    """fn(state, job) for each job in job order, state = build() once per
    worker; threads = 0 takes every core, and more than one worker runs in
    a fork pool. A negative thread count is refused at once."""
    if threads < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    workers = threads or os.cpu_count() or 1
    if workers <= 1 or len(jobs) <= 1:
        return map(partial(fn, build()), jobs)
    return _pooled(build, jobs, fn, workers)


def _pooled(build, jobs: Sequence, fn, workers: int) -> Iterator:
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker, initargs=(build,)) as pool:
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


def chain_pmf(pmfs: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """pmf of the least of independent counts with the given pmfs.

    P(min >= k) is the product of the counts' tails, each an exactly
    rounded sum, so the tails never increase with k and their differences
    are never negative. A single count keeps its own pmf.
    """
    if len(pmfs) == 1:
        return tuple(pmfs[0])
    top = min(len(pmf) for pmf in pmfs)
    tails = [math.prod(math.fsum(pmf[k:]) for pmf in pmfs) for k in range(top)]
    tails.append(0.0)
    return tuple(tails[k] - tails[k + 1] for k in range(top))


class _ChainTree:
    """Conditioning tree of one topology over its series chains (see the
    module docstring), with a packer as leaf evaluator.

    A tree node is a packed state (see PathPacker.pack) and a bit mask of
    the open (undecided and relevant) chains, whose links hold their full
    capacity in the state. Nodes are settled: stripped, with the chains the
    strip drops taken out of the mask. Deciding chain j at k pairs is
    (s & chain_clear[j]) + k * chain_ones[j] (see PathPacker.chain_table).

    The chain a node branches on depends only on its settled support (the
    links that hold pairs), so each support's chain order is found once:
    (support, present, chains), where chains lists every chain the support
    holds in the order a breadth-first search from the source first meets
    it, and present is the bit mask of those chains. A walk keeps these in
    a table of its own (orders), keyed on the support.
    """

    def __init__(self, t: Topology, packer: PathPacker):
        self.packer = packer
        self.full = packer.pack(t.capacities)
        self.chains, self.chain_ones, self.chain_clear = packer.chain_table
        pmfs = link_pmfs(t)
        self.pmfs = [chain_pmf([pmfs[l] for l in chain]) for chain in self.chains]
        self.chain_of = [0] * len(t.links)
        for j, chain in enumerate(self.chains):
            for l in chain:
                self.chain_of[l] = j
        self.open_shift = 8 * len(t.links)  # interior memo keys: open mask above the state

    def _order(self, s: int, x: int, orders: dict) -> tuple[int, int, tuple[int, ...]]:
        """The chain order of the settled state s with support x, from
        orders or, on a miss, from one breadth-first search from the source,
        stored there."""
        order = orders.get(x)
        if order is not None:
            return order
        packer = self.packer
        adj, chain_of = packer.adj, self.chain_of
        counts = s.to_bytes(len(chain_of), "little")
        seen = bytearray(packer.num_nodes)
        seen[packer.source] = 1
        queue = [packer.source]
        present = 0
        chains = []
        for u in queue:
            for idx, w in adj[u]:
                if counts[idx]:
                    j = chain_of[idx]
                    if not present >> j & 1:
                        present |= 1 << j
                        chains.append(j)
                    if not seen[w]:
                        seen[w] = 1
                        queue.append(w)
        order = orders[x] = (x, present, tuple(chains))
        return order

    def _settle(
        self, s: int, open_: int, order: Optional[tuple], orders: dict
    ) -> Optional[tuple]:
        """Settles a node; None if the sink is cut off, else the settled
        state, the open mask left, the open chain to branch on (-1 at a
        leaf) and the state's chain order. The chain is the first open one
        in that order.

        order: the chain order of the node's settled parent when the node
        holds pairs on the same links (only counts changed), so it is
        settled already; None when it must be stripped.
        """
        if order is None:
            s = self.packer._strip(s)
            if not s:
                return None
            order = self._order(s, self.packer._support(s), orders)
            open_ &= order[1]
        if open_:
            for j in order[2]:
                if open_ >> j & 1:
                    return s, open_, j, order
        return s, open_, -1, order

    def _children(self, s: int, live: int, j: int, order: tuple) -> Iterator:
        """(probability, state, open mask, order) of each child with chain
        j decided, in count order; children of probability 0 are left out.
        A child with pairs on j keeps the links of its parent, so it takes
        the parent's chain order; the one without gets None (see _settle)."""
        base, ones, rest = s & self.chain_clear[j], self.chain_ones[j], live & ~(1 << j)
        for k, prob in enumerate(self.pmfs[j]):
            if prob:
                yield prob, base + k * ones, rest, order if k else None

    def prefixes(self, depth: int) -> list[tuple[float, Optional[tuple]]]:
        """(mass, node) of the tree's nodes `depth` levels down and of its
        shallower leaves and cut-off nodes, depth first; node is None where
        the sink is cut off, else the settled (state, open mask)."""
        out = []
        orders: dict[int, tuple] = {}
        stack = [(1.0, self.full, (1 << len(self.chains)) - 1, None, 0)]
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
        """Expected leaf value below one settled node, over its open chains.

        The walk keeps one frame per interior node on the way down: its
        memo key, its children still to come, their weighted values so far
        and the probability of the child being walked. Interior nodes are
        memoized on the settled state with the open mask above its bytes.
        The chain orders (see the class docstring) live in a table beside
        the memo, for this walk only. A leaf is settled, so the packer
        searches it without stripping it again.
        """
        packer, shift = self.packer, self.open_shift
        memo: dict[int, float] = {}
        orders: dict[int, tuple] = {}
        frames: list[list] = []
        order = self._order(s, packer._support(s), orders)
        while True:
            settled = self._settle(s, open_, order, orders)
            if settled is None:
                value = 0.0
            elif settled[2] < 0:
                # a settled state is stripped, as the packer keys its memo,
                # and its support heads its chain order
                s, _, _, order = settled
                value = packer.memo.get(s)
                if value is None:
                    value = packer._search(s, order[0])
            else:
                s, live, j, order = settled
                key = live << shift | s
                value = memo.get(key)
                if value is None:
                    children = self._children(s, live, j, order)
                    prob, s, open_, order = next(children)
                    frames.append([key, children, [], prob])
                    continue
            while frames:
                key, children, terms, prob = frame = frames[-1]
                terms.append(prob * value)
                child = next(children, None)
                if child is not None:
                    frame[3], s, open_, order = child
                    break
                frames.pop()
                value = memo[key] = math.fsum(terms)
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

    The sum is taken over the conditioning tree of series chains, whose
    subtrees TREE_JOB_DEPTH levels down are the jobs. per_state (a path or
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
    build = partial(_ChainTree, t, packer)
    prefixes = build().prefixes(TREE_JOB_DEPTH)
    jobs = [(mass, node) for mass, node in prefixes if node is not None]
    values = list(_run_chunks(build, [node for _, node in jobs], _tree_job, threads))
    value = math.fsum(mass * v for (mass, _), v in zip(jobs, values))
    covered = math.fsum(mass for mass, _ in prefixes)
    if per_state is not None:
        chunks = [(a, min(a + STATE_CHUNK, n)) for a in range(0, n, STATE_CHUNK)]
        rows = _run_chunks(partial(_Engine, t, packer), chunks, _exact_chunk, threads)
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
    bases = state_bases(t)
    n_links = len(bases)
    # per-link counts ranked by decreasing probability (ties: lower count),
    # the probability of each rank, and the step in the state index from
    # each rank to the next (encode_index: the last link varies fastest)
    ranked = [
        sorted(range(bases[l]), key=lambda c: (-pmfs[l][c], c)) for l in range(n_links)
    ]
    rank_pmf = [[pmfs[l][c] for c in ranked[l]] for l in range(n_links)]
    weight = math.prod(bases)
    steps = []
    for l in range(n_links):
        weight //= bases[l]
        steps.append([(b - a) * weight for a, b in zip(ranked[l], ranked[l][1:])])

    def state_of(rank_vec: tuple[int, ...]) -> list[int]:
        return [ranked[l][r] for l, r in enumerate(rank_vec)]

    root = (0,) * n_links
    heap = [(-math.prod([p[0] for p in rank_pmf]), encode_index(bases, state_of(root)), root, 0)]
    terms: list[float] = []
    probs: list[float] = []
    while heap and len(probs) < k:
        neg_prob, index, rank_vec, min_l = heapq.heappop(heap)
        terms.append(-neg_prob * packer.value(state_of(rank_vec)))
        probs.append(-neg_prob)
        for l in range(min_l, n_links):
            r = rank_vec[l]
            if r + 1 < bases[l]:
                child = rank_vec[:l] + (r + 1,) + rank_vec[l + 1 :]
                prob = math.prod([rank_pmf[i][c] for i, c in enumerate(child)])
                heapq.heappush(heap, (-prob, index + steps[l][r], child, l))
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
    chunks = _run_chunks(partial(_Engine, t, packer), jobs, _sample_chunk, threads)
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

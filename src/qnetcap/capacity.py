"""Network capacity: expectation of per-state optima over the state space.

Three modes share one state-evaluation engine:

  exact      full enumeration of the mixed-radix state space
  truncated  best-first sweep of the k most likely states, with bounds
             (unseen probability mass is bracketed by 0 and the all-pairs
             state's capacity)
  sampled    plain Monte Carlo over states with a counter-based RNG

Runs split their states into fixed-size chunks. Each chunk reduces its
terms with math.fsum, which is exactly rounded, and the chunk sums are
combined with math.fsum again; since the chunks do not depend on the
worker count, results are bit-identical for any number of workers.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import Topology
from .snapshot import (
    PairSlots,
    encode_index,
    link_pmfs,
    num_states,
    odometer,
    state_bases,
    write_state_rows,
)
from .solver import IndexedNetwork, PathPacker, index_network

EXACT_STATE_BUDGET = 1 << 22
STATE_CHUNK = 1 << 14  # states per reduction chunk (fixed: determinism contract)
SAMPLE_CHUNK = 1 << 12  # samples per RNG block (fixed: substream derivation)


class StateBudgetError(ValueError):
    """Exact enumeration refused because the state space exceeds the budget."""


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


def topology_network(t: Topology) -> IndexedNetwork:
    """The topology's nodes, links and gains on packer indices."""
    gains = {n.id: t.q_of(n.id) for n in t.nodes}
    return index_network(gains, [(l.u, l.v) for l in t.links], t.source, t.sink)


def topology_packer(t: Topology) -> PathPacker:
    """Path-packing engine over the topology's own links and gains."""
    return topology_network(t).packer()


def full_state_capacity(t: Topology) -> float:
    """Capacity of the state with every pair present (upper bound on any state)."""
    return topology_packer(t).value(t.capacities)


class _Engine:
    """State evaluation for one topology, with a cache of sampled states."""

    def __init__(self, t: Topology):
        self.packer = topology_packer(t)
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
    """Yields fn(state, job) for each job in job order, state = build() once
    per worker; more than one worker runs in a fork pool."""
    workers = threads if threads > 0 else (os.cpu_count() or 1)
    if workers <= 1 or len(jobs) <= 1:
        state = build()
        for job in jobs:
            yield fn(state, job)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker, initargs=(build,)) as pool:
        yield from pool.imap(partial(_on_worker, fn), jobs)


def _open_rows(path_or_fh):
    """Context manager over a row sink: a handle, left open, or a path."""
    if hasattr(path_or_fh, "write"):
        return nullcontext(path_or_fh)
    return open(path_or_fh, "w", encoding="utf-8", newline="")


def _drain(results: Iterator, per_row, write_rows) -> list:
    """Chunk summaries in job order; chunk rows stream to per_row if given."""
    if per_row is None:
        return [summary for summary, _ in results]
    summaries = []

    def rows() -> Iterator:
        for summary, chunk_rows in results:
            summaries.append(summary)
            yield from chunk_rows

    with _open_rows(per_row) as fh:
        write_rows(fh, rows())
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


def _exact_chunk(engine: _Engine, job: tuple[int, int, bool]):
    start, stop, want_rows = job
    packer = engine.packer
    # packed doubles: a chunk's terms take 8 bytes each, not a float object
    terms = array("d")
    probs = array("d")
    rows = [] if want_rows else None
    for index, vec, prob in odometer(engine.bases, engine.pmfs, start, stop):
        cap = packer.value(vec)
        terms.append(prob * cap)
        probs.append(prob)
        if rows is not None:
            rows.append((index, tuple(vec), prob, cap))
    return (math.fsum(terms), math.fsum(probs)), rows


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
            rows.append((encode_index(engine.bases, vec), tuple(vec), prob, cap))
    return _moments(caps), rows


def exact_capacity(
    t: Topology,
    threads: int = 0,
    budget: Optional[int] = EXACT_STATE_BUDGET,
    per_state: Optional[object] = None,
) -> CapacityReport:
    """Exact capacity: sum of P(state) * capacity(state) over every state."""
    n = num_states(t)
    if budget is not None and n > budget:
        raise StateBudgetError(
            f"state space holds {n} states, over the budget of {budget}; "
            "use truncated_capacity or sampled_capacity, or raise the budget"
        )
    full_cap = full_state_capacity(t)
    want_rows = per_state is not None
    jobs = [(a, min(a + STATE_CHUNK, n), want_rows) for a in range(0, n, STATE_CHUNK)]
    chunks = _run_chunks(partial(_Engine, t), jobs, _exact_chunk, threads)
    parts = _drain(chunks, per_state, write_state_rows)
    value = math.fsum(v for v, _ in parts)
    return CapacityReport(
        mode="exact",
        value=value,
        lower=value,
        upper=value,
        covered_probability=math.fsum(c for _, c in parts),
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
    full_cap = full_state_capacity(t)
    packer = topology_packer(t)
    pmfs = link_pmfs(t)
    bases = state_bases(t)
    n_links = len(bases)
    # per-link counts ranked by decreasing probability (ties: lower count)
    ranked = [
        sorted(range(bases[l]), key=lambda c: (-pmfs[l][c], c)) for l in range(n_links)
    ]

    def state_of(rank_vec: tuple[int, ...]) -> list[int]:
        return [ranked[l][r] for l, r in enumerate(rank_vec)]

    def entry(rank_vec: tuple[int, ...], min_l: int) -> tuple:
        vec = state_of(rank_vec)
        prob = math.prod(pmf[c] for pmf, c in zip(pmfs, vec))
        return (-prob, encode_index(bases, vec), rank_vec, min_l)

    heap = [entry((0,) * n_links, 0)]
    terms: list[float] = []
    probs: list[float] = []
    while heap and len(probs) < k:
        neg_prob, _, rank_vec, min_l = heapq.heappop(heap)
        terms.append(-neg_prob * packer.value(state_of(rank_vec)))
        probs.append(-neg_prob)
        for l in range(min_l, n_links):
            if rank_vec[l] + 1 < bases[l]:
                child = rank_vec[:l] + (rank_vec[l] + 1,) + rank_vec[l + 1 :]
                heapq.heappush(heap, entry(child, l))
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
    full_cap = full_state_capacity(t)
    want_rows = per_state is not None
    jobs = [
        (a // SAMPLE_CHUNK, min(SAMPLE_CHUNK, samples - a), seed, want_rows)
        for a in range(0, samples, SAMPLE_CHUNK)
    ]
    chunks = _run_chunks(partial(_Engine, t), jobs, _sample_chunk, threads)
    mean, stderr = _mean_stderr(_drain(chunks, per_state, write_state_rows), samples)
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

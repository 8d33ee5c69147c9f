"""Network states: enumeration, probabilities, and graph transforms.

A state records how many entangled pairs each link actually generated in a
time slot. States live in the mixed-radix product space prod_l {0..c_l};
per-link pair counts are binomial (each of the c_l pair slots succeeds
independently with probability p_l).
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .model import MAX_LINK_PAIRS, LinkSpec, NodeSpec, Topology, _real


@dataclass(frozen=True)
class SnapshotState:
    """Realized pair counts per link, aligned to the topology's link order."""

    link_ids: tuple[str, ...]
    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.link_ids) != len(self.vector):
            raise ValueError("state vector length does not match link count")

    @staticmethod
    def from_counts(t: Topology, counts: Mapping[str, int]) -> "SnapshotState":
        """The state with the given count per link id, in either spelling
        (u-v or v-u), and 0 on the links not named. An unknown id is a
        KeyError; a link named twice, or a count that is not an integer
        (numpy integers are), is a ValueError that names the link."""
        vec = [0] * len(t.links)
        named = set()
        for lid, k in counts.items():
            i = t.link_index.get(lid)
            if i is None:
                raise KeyError(f"unknown link '{lid}'")
            if i in named:
                raise ValueError(f"link '{t.link_ids[i]}' is given twice")
            named.add(i)
            try:
                vec[i] = operator.index(k)
            except TypeError:
                raise ValueError(
                    f"count {k!r} on link '{t.link_ids[i]}' is not an integer"
                ) from None
        return SnapshotState(t.link_ids, tuple(vec))

    @staticmethod
    def full(t: Topology) -> "SnapshotState":
        return SnapshotState(t.link_ids, t.capacities)

    @staticmethod
    def empty(t: Topology) -> "SnapshotState":
        return SnapshotState(t.link_ids, (0,) * len(t.links))


@dataclass(frozen=True)
class DirectedSnapshot:
    """Unit-capacity directed graph of one realized state.

    Arcs between internal nodes come in both directions; the source has no
    incoming arcs and the sink no outgoing ones. Gains are the per-node swap
    success probabilities (1 for source, sink and splitter nodes), each an
    int or float (not a bool) in (0, 1], and the source and sink have one.
    A snapshot that breaks any of these rules is refused when it is built.
    """

    arcs: frozenset[tuple[str, str]]
    gains: Mapping[str, float]
    source: str
    sink: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.source == self.sink:
            raise ValueError("source and sink coincide")
        for endpoint in (self.source, self.sink):
            if endpoint not in self.gains:
                raise ValueError(f"node '{endpoint}' missing from snapshot gains")
        for node, gain in self.gains.items():
            if not _real(gain):
                raise ValueError(f"gain of node '{node}' is not a number: {gain!r}")
            if not 0.0 < gain <= 1.0:
                raise ValueError(f"gain of node '{node}' out of (0, 1]: {gain}")
        one_way = []
        arcs, gains, source, sink = self.arcs, self.gains, self.source, self.sink
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc ({u}, {v}) forbidden")
            if v == source:
                raise ValueError(f"arc ({u}, {v}) enters the source")
            if u == sink:
                raise ValueError(f"arc ({u}, {v}) leaves the sink")
            if u not in gains or v not in gains:
                raise ValueError(f"arc ({u}, {v}) references node without a gain")
            if u != source and v != sink and (v, u) not in arcs:
                one_way.append((u, v))
        if one_way:
            u, v = min(one_way)
            raise ValueError(
                f"internal adjacency ({u}, {v}) lacks its reverse arc; ill-formed snapshot"
            )

    @cached_property
    def sorted_arcs(self) -> tuple[tuple[str, str], ...]:
        """The arcs in sorted order, sorted once per snapshot."""
        return tuple(sorted(self.arcs))

    @cached_property
    def sorted_nodes(self) -> tuple[str, ...]:
        """The node ids (the keys of gains) in sorted order, sorted once per snapshot."""
        return tuple(sorted(self.gains))

    @cached_property
    def out_arcs(self) -> Mapping[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {}
        for u, v in self.sorted_arcs:
            adj.setdefault(u, []).append(v)
        return {u: tuple(vs) for u, vs in adj.items()}


def num_states(t: Topology) -> int:
    return math.prod(state_bases(t))


def state_bases(t: Topology) -> tuple[int, ...]:
    """Mixed-radix digit bases of the state space, c_l + 1 per link."""
    return tuple(c + 1 for c in t.capacities)


def encode_index(bases: Sequence[int], vector: Sequence[int]) -> int:
    """Mixed-radix index of a count vector (last link varies fastest)."""
    index = 0
    for base, k in zip(bases, vector):
        index = index * base + k
    return index


def decode_index(bases: Sequence[int], index: int) -> list[int]:
    """Count vector at a mixed-radix index; inverse of encode_index."""
    vec = [0] * len(bases)
    for l in range(len(bases) - 1, -1, -1):
        index, vec[l] = divmod(index, bases[l])
    return vec


def check_vector(t: Topology, vector: Sequence[int]) -> None:
    """Raises ValueError unless vector holds one count in [0, c] per link."""
    if len(vector) != len(t.links):
        raise ValueError(f"state holds {len(vector)} counts for {len(t.links)} links")
    for link, k in zip(t.links, vector):
        if k < 0:
            raise ValueError(f"count {k} on link {link.id} is negative (outside [0, {link.c}])")
        if k > link.c:
            raise ValueError(
                f"count {k} on link {link.id} exceeds capacity {link.c} (outside [0, {link.c}])"
            )


def state_index(t: Topology, s: SnapshotState) -> int:
    check_vector(t, s.vector)
    return encode_index(state_bases(t), s.vector)


def link_pmfs(t: Topology) -> list[tuple[float, ...]]:
    """Per-link binomial pmf tables, pmf[l][k] for k in 0..c_l."""
    tables = []
    for p, c in zip(t.probabilities, t.capacities):
        tables.append(
            tuple(math.comb(c, k) * p**k * (1.0 - p) ** (c - k) for k in range(c + 1))
        )
    return tables


def state_probability(t: Topology, s: SnapshotState) -> float:
    """Probability of observing exactly this state in one time slot."""
    check_vector(t, s.vector)
    return math.prod(pmf[k] for pmf, k in zip(link_pmfs(t), s.vector))


def enumerate_states(
    t: Topology, start: int = 0, stop: Optional[int] = None
) -> Iterator[tuple[SnapshotState, float]]:
    """Streams every state in [start, stop) of the mixed-radix index order.

    The full stream visits each of prod_l (c_l + 1) states exactly once and
    its probabilities sum to 1. Index ranges may be split across workers;
    each range is re-derived independently from the indices.
    """
    total = num_states(t)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid state range [{start}, {stop})")
    link_ids = t.link_ids
    for _, vec, prob in odometer(state_bases(t), link_pmfs(t), start, stop):
        yield SnapshotState(link_ids, tuple(vec)), prob


def odometer(
    bases: Sequence[int], pmfs: Sequence[Sequence[float]], start: int, stop: int
) -> Iterator[tuple[int, list[int], float]]:
    """Steps through [start, stop) of the index order, yielding (index,
    vector, probability). The vector is one list updated in place; copy it
    to keep it past the next step."""
    n_links = len(bases)
    vec = decode_index(bases, start)
    for index in range(start, stop):
        prob = 1.0
        for l in range(n_links):
            prob *= pmfs[l][vec[l]]
        yield index, vec, prob
        # mixed-radix increment, last link fastest
        for l in range(n_links - 1, -1, -1):
            vec[l] += 1
            if vec[l] < bases[l]:
                break
            vec[l] = 0


class PairSlots:
    """A topology's pair slots, c_l per link in link order, each generating
    its pair with the link's p; draws per-link pair counts."""

    def __init__(self, t: Topology):
        caps = np.asarray(t.capacities, dtype=np.int64)
        self.p = np.repeat(np.asarray(t.probabilities), caps)
        self.offsets = np.cumsum(caps) - caps  # each link's first slot; empty with no links

    def draw(self, gen: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
        """Counts of one state, or of n states, one row each."""
        shape = len(self.p) if n is None else (n, len(self.p))
        hits = (gen.random(shape) < self.p).astype(np.int64)
        return np.add.reduceat(hits, self.offsets, axis=-1)


def splitter_id(u: str, v: str, k: int, taken: set[str]) -> str:
    """Id of the k-th splitter of link {u, v}: "a__b__k" with a <= b, then
    "_" until neither the id nor a spelling of its two links is in taken
    (the node ids and link spellings in use), to which they are added."""
    a, b = (u, v) if u <= v else (v, u)
    mid = f"{a}__{b}__{k}"
    while True:
        names = (mid, f"{u}-{mid}", f"{mid}-{u}", f"{mid}-{v}", f"{v}-{mid}")
        if taken.isdisjoint(names):
            taken.update(names)
            return mid
        mid += "_"


def to_unit_capacity(t: Topology, s: SnapshotState) -> tuple[Topology, SnapshotState]:
    """Rewrites a multiplexed state as an equivalent unit-capacity one.

    Each realized pair of a link holding two or more pairs becomes its own
    two-hop route through a fresh unit-gain splitter node (named by
    splitter_id, apart from every node and link id); links holding at
    most one pair pass through unchanged. A state with no such link is
    already unit-count and comes back as it is: the very (t, s) passed in.
    Otherwise the returned topology is a state-level construction: its link
    probabilities are inherited and not meaningful for re-sampling.
    """
    check_vector(t, s.vector)
    if max(s.vector, default=0) <= 1:
        return t, s
    nodes = list(t.nodes)
    taken = {n.id for n in nodes} | set(t.link_index)
    links: list[LinkSpec] = []
    kept: dict[int, int] = {}  # the count of each link passed through, by id()
    for link, p, count in zip(t.links, t.probabilities, s.vector):
        if count <= 1:
            links.append(LinkSpec(link.u, link.v, p=p, c=1))
            kept[id(links[-1])] = count
            continue
        for k in range(1, count + 1):
            mid = splitter_id(link.u, link.v, k, taken)
            nodes.append(NodeSpec(mid, 1.0))
            links += LinkSpec(link.u, mid, p=p, c=1), LinkSpec(mid, link.v, p=p, c=1)
    t2 = Topology(tuple(nodes), tuple(links), t.source, t.sink, t.constants)
    # t2 holds these links, in its own order; each splitter link holds its pair
    return t2, SnapshotState(t2.link_ids, tuple(kept.get(id(l), 1) for l in t2.links))


def to_directed(t: Topology, s: SnapshotState) -> DirectedSnapshot:
    """Directed unit-capacity graph of a unit-count state.

    Realized internal-internal links produce both arc directions; links at
    the source only leave it, links at the sink only enter it. A vector
    that is not one count in [0, c] per link is a ValueError, as is a
    count above 1.
    """
    check_vector(t, s.vector)
    source, sink = t.source, t.sink
    arcs: set[tuple[str, str]] = set()
    for link, count in zip(t.links, s.vector):
        if count == 0:
            continue
        if count > 1:
            raise ValueError(
                f"link {link.id} has count {count}; apply to_unit_capacity first"
            )
        u, v = link.u, link.v
        if u == sink or v == source:
            u, v = v, u
        if u == source or v == sink:
            arcs.add((u, v))
        else:
            arcs.add((u, v))
            arcs.add((v, u))
    gains = {n.id: 1.0 if n.id in (source, sink) else n.q for n in t.nodes}  # as t.q_of
    return DirectedSnapshot(frozenset(arcs), gains, source, sink)


def csv_text(rows: Iterable[Sequence]) -> str:
    """Rows as CSV text, in the csv module's default dialect."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


STATE_CSV_HEADER = csv_text([("state_index", "state_counts", "probability", "capacity")])


_COUNT_TEXT = tuple(str(k) for k in range(MAX_LINK_PAIRS + 1))


def state_row(index: int, vector: Sequence[int], probability: float, capacity: float) -> tuple:
    """One state's per-state CSV fields; counts are semicolon-joined in
    link order."""
    counts = ";".join(map(_COUNT_TEXT.__getitem__, vector))
    return index, counts, repr(probability), repr(capacity)

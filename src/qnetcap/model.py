"""Physical network model: nodes, links, loss constants, topology files.

A topology is an undirected simple graph of repeater nodes. Each internal
node carries a swap success probability q, each link a pair-generation
probability p (given directly or derived from fiber length) and a multiplex
capacity c (number of entangled pairs the link may hold per time slot).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

import yaml

MAX_LINK_PAIRS = 255  # the solver packs a state's pair counts one byte per link
# libyaml's parser when PyYAML was built with it; same resolver and constructor
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class TopologyError(ValueError):
    """Raised when a topology document or object violates the data model."""

    def __init__(self, diagnostics: Iterable[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def _real(x) -> bool:
    """True for an int or a float that is not a bool (YAML's true, false)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class LossConstants:
    """Fiber loss model parameters: p = c_eff * 10^(-0.1 * beta * L)."""

    c_eff: float = 0.9
    beta: float = 0.2  # dB/km

    def __post_init__(self) -> None:
        if not (_real(self.c_eff) and 0.0 < self.c_eff <= 1.0):
            raise TopologyError([f"constants.c_eff: must be in (0, 1], got {self.c_eff!r}"])
        if not (_real(self.beta) and 0.0 <= self.beta < math.inf):
            raise TopologyError([f"constants.beta: must be finite and >= 0, got {self.beta!r}"])


def derive_link_probability(length_km: float, constants: LossConstants = LossConstants()) -> float:
    """Pair-generation success probability of a fiber link of given length.

    Combines fiber transmissivity 10^(-0.1 * beta * L) with the loss
    pre-factor c_eff; the result is clamped to [0, 1].
    """
    if not 0.0 <= length_km < math.inf:
        raise TopologyError([f"length_km: must be finite and >= 0, got {length_km}"])
    p = constants.c_eff * 10.0 ** (-0.1 * constants.beta * length_km)
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class NodeSpec:
    """A network node; q is the swap (BSM) success probability. The
    topology's endpoints say which node is the source and which the sink."""

    id: str
    q: float = 1.0


@dataclass(frozen=True)
class LinkSpec:
    """An undirected physical link {u, v}.

    Exactly one of length_km / p is given at construction; when length_km
    is given, p is derived from the topology's loss constants at load time.
    c is the multiplex capacity (c = 1: at most one pair per slot).
    """

    u: str
    v: str
    length_km: Optional[float] = None
    p: Optional[float] = None
    c: int = 1

    @property
    def key(self) -> tuple[str, str]:
        """Canonical unordered-pair key (lexicographically sorted)."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    @property
    def id(self) -> str:
        """Link id in declared orientation, e.g. "s-1"."""
        return f"{self.u}-{self.v}"

    def resolved_p(self, constants: LossConstants) -> float:
        if self.p is not None:
            return self.p
        if self.length_km is not None:
            return derive_link_probability(self.length_km, constants)
        raise TopologyError([f"links[{self.id}]: neither p nor length_km given"])


@dataclass(frozen=True)
class Topology:
    """Validated, immutable network topology with designated source/sink.

    Links are iterated in lexicographic order of their unordered node-pair
    key; that order fixes state-vector layout and enumeration order
    everywhere downstream.
    """

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    source: str
    sink: str
    constants: LossConstants = field(default_factory=LossConstants)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "links", tuple(sorted(self.links, key=lambda l: l.key))
        )
        diags = validate_topology(self)
        if diags:
            raise TopologyError(diags)

    @cached_property
    def node_by_id(self) -> Mapping[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)

    @cached_property
    def link_index(self) -> Mapping[str, int]:
        """Maps both "u-v" and "v-u" spellings to the link's position."""
        idx: dict[str, int] = {}
        for i, l in enumerate(self.links):
            idx[f"{l.u}-{l.v}"] = i
            idx[f"{l.v}-{l.u}"] = i
        return idx

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        """Resolved generation probability per link, in link order."""
        return tuple(l.resolved_p(self.constants) for l in self.links)

    @cached_property
    def capacities(self) -> tuple[int, ...]:
        return tuple(l.c for l in self.links)

    def q_of(self, node_id: str) -> float:
        """Gain factor used in flow computations; source/sink are fixed to 1."""
        if node_id in (self.source, self.sink):
            return 1.0
        return self.node_by_id[node_id].q

    def digest(self) -> str:
        """Hex digest of the canonical serialized form."""
        canon = json.dumps(serialize_topology(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def validate_topology(t: Topology) -> list[str]:
    """All data-model invariant violations, one diagnostic string each."""
    diags: list[str] = []
    ids = [n.id for n in t.nodes]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        diags.append(f"nodes: duplicate ids {dupes}")
    if t.source == t.sink:
        diags.append(f"endpoints: source == sink ('{t.source}')")
    for name, ep in (("source", t.source), ("sink", t.sink)):
        if ep not in id_set:
            diags.append(f"endpoints.{name}: node '{ep}' not in nodes")
    for i, n in enumerate(t.nodes):
        if not _real(n.q):
            diags.append(f"nodes[{i}].q: must be a number, got {n.q!r}")
        elif n.id in (t.source, t.sink):
            if n.q != 1.0:
                end = "source" if n.id == t.source else "sink"
                diags.append(f"nodes[{i}].q: q must be absent or 1 for {end} '{n.id}'")
        elif not 0.0 < n.q <= 1.0:
            diags.append(f"nodes[{i}].q: q out of (0,1] for internal node '{n.id}' (got {n.q})")
    seen_pairs: set[tuple[str, str]] = set()
    for i, l in enumerate(t.links):
        found = []  # the link's diagnostics, each to follow its location
        if l.u == l.v:
            found.append(": self-loop forbidden")
        for end in (l.u, l.v):
            if end not in id_set:
                found.append(f": endpoint '{end}' not in nodes")
        key = l.key
        if key in seen_pairs:
            found.append(f": duplicate link for pair {key}")
        seen_pairs.add(key)
        if (l.length_km is None) == (l.p is None):
            found.append(": exactly one of length_km / p must be given")
        if l.length_km is not None and not (_real(l.length_km) and 0.0 <= l.length_km < math.inf):
            found.append(f".length_km: must be finite and >= 0, got {l.length_km!r}")
        if l.p is not None and not (_real(l.p) and 0.0 <= l.p <= 1.0):
            found.append(f".p: must be in [0, 1], got {l.p!r}")
        if isinstance(l.c, bool) or not isinstance(l.c, int) or not 1 <= l.c <= MAX_LINK_PAIRS:
            found.append(f".c: must be an integer in [1, {MAX_LINK_PAIRS}], got {l.c!r}")
        if found:  # the location is formatted only for a link with a diagnostic
            diags += (f"links[{i}] ({l.id}){d}" for d in found)
    # link_index holds two ids per link, one for a self-loop, unless ids clash
    if len(t.link_index) < sum(1 if l.u == l.v else 2 for l in t.links):
        diags.extend(_link_id_clashes(t))
    return diags


def _link_id_clashes(t: Topology) -> list[str]:
    """One diagnostic per link with an id ("u-v" or "v-u") that also names
    an earlier link of another node pair."""
    diags = []
    first: dict[str, int] = {}  # each id -> the first link it names
    for i, l in enumerate(t.links):
        ids = (f"{l.u}-{l.v}", f"{l.v}-{l.u}")
        clashes = {first[s]: s for s in ids if s in first and t.links[first[s]].key != l.key}
        for j, name in sorted(clashes.items()):
            o = t.links[j]
            diags.append(
                f"links[{i}] ({l.id}): id '{name}' names two links, ({l.u!r}, {l.v!r}) "
                f"and links[{j}] ({o.u!r}, {o.v!r})"
            )
        for s in ids:
            first.setdefault(s, i)
    return diags


def _require(cond: bool, diags: list[str], msg: str) -> bool:
    if not cond:
        diags.append(msg)
    return cond


def _section(document: Mapping, key: str, types, expected: str, diags: list[str]):
    """document[key] if it is one of types. Otherwise {}, which reads as
    an empty mapping or list: as is when the key is absent or null, else
    with the diagnostic "<key>: expected <expected>"."""
    raw = document.get(key)
    if raw is None or not _require(isinstance(raw, types), diags, f"{key}: expected {expected}"):
        return {}
    return raw


def parse_topology(document: Mapping) -> Topology:
    """Builds a Topology from a parsed key-value tree (see file format)."""
    diags: list[str] = []
    if not isinstance(document, Mapping):
        raise TopologyError(["document: expected a mapping at top level"])
    unknown = set(document) - {"nodes", "links", "endpoints", "constants"}
    if unknown:
        diags.append(f"document: unknown top-level keys {sorted(unknown)}")

    def number(x):  # ints as floats, ±inf past a float's range; validation refuses the rest
        if not _real(x):
            return x
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    raw_const = _section(document, "constants", Mapping, "a mapping", diags)
    try:
        constants = LossConstants(
            c_eff=number(raw_const.get("c_eff", 0.9)), beta=number(raw_const.get("beta", 0.2))
        )
    except TopologyError as exc:
        diags += exc.diagnostics
        constants = LossConstants()

    endpoints = document.get("endpoints") or {}
    if not _require(
        isinstance(endpoints, Mapping) and "source" in endpoints and "sink" in endpoints,
        diags,
        "endpoints: must give both source and sink",
    ):
        raise TopologyError(diags)
    source = str(endpoints["source"])
    sink = str(endpoints["sink"])

    nodes: list[NodeSpec] = []
    for i, raw in enumerate(_section(document, "nodes", (list, tuple), "a list", diags)):
        if not _require(isinstance(raw, Mapping) and "id" in raw, diags, f"nodes[{i}]: need an id"):
            continue
        unknown = set(raw) - {"id", "q"}
        if unknown:
            diags.append(f"nodes[{i}]: unknown keys {sorted(unknown)}")
        nodes.append(NodeSpec(str(raw["id"]), number(raw.get("q", 1.0))))

    links: list[LinkSpec] = []
    for i, raw in enumerate(_section(document, "links", (list, tuple), "a list", diags)):
        if not _require(
            isinstance(raw, Mapping) and "u" in raw and "v" in raw,
            diags,
            f"links[{i}]: need u and v",
        ):
            continue
        unknown = set(raw) - {"u", "v", "length_km", "p", "c"}
        if unknown:
            diags.append(f"links[{i}]: unknown keys {sorted(unknown)}")
        links.append(
            LinkSpec(
                u=str(raw["u"]),
                v=str(raw["v"]),
                length_km=number(raw.get("length_km")),
                p=number(raw.get("p")),
                c=raw.get("c", 1),
            )
        )

    if diags:
        raise TopologyError(diags)
    return Topology(tuple(nodes), tuple(links), source, sink, constants)


def read_text(text_or_handle) -> str:
    """YAML text from a readable handle, or the text itself; a string is
    never taken for a file name."""
    if hasattr(text_or_handle, "read"):
        return text_or_handle.read()
    return text_or_handle


def load_topology(text_or_handle) -> Topology:
    """Loads and fully validates a topology from YAML text or an open text
    handle (a string is YAML text, never a path)."""
    text = read_text(text_or_handle)
    try:
        document = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise TopologyError([f"document: YAML parse failure: {exc}"]) from exc
    if document is None:
        raise TopologyError(["document: empty"])
    return parse_topology(document)


def serialize_topology(t: Topology) -> dict:
    """Round-trippable plain-dict form (load_topology . serialize == identity)."""
    nodes = []
    for n in t.nodes:
        entry: dict = {"id": n.id}
        if n.id not in (t.source, t.sink):
            entry["q"] = n.q
        nodes.append(entry)
    links = []
    for l in t.links:
        entry = {"u": l.u, "v": l.v}
        if l.length_km is not None:
            entry["length_km"] = l.length_km
        else:
            entry["p"] = l.p
        if l.c != 1:
            entry["c"] = l.c
        links.append(entry)
    return {
        "nodes": nodes,
        "links": links,
        "endpoints": {"source": t.source, "sink": t.sink},
        "constants": {"c_eff": t.constants.c_eff, "beta": t.constants.beta},
    }


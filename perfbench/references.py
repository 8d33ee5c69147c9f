"""Reference computations made apart from qnetcap.

Nothing here imports qnetcap. Every function reads the plain topology
document (the parsed YAML mapping the benchmark generated) so that a fault
in the program's parsing, indexing or optimizer cannot also hide in the
reference.

- PAPER_*: capacities reported in the source paper, with their tolerance.
- path_packing_optimum: per-state optimum from an integer program over all
  simple source-sink paths, solved by HiGHS with a relative gap of 0.
- state_probabilities / top_k_mass: the covered mass of truncated mode,
  from a numpy product of per-link binomial pmfs.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

PAPER_NSFNET = (0.1013397, 5e-7)
PAPER_ABILENE_MUX2 = (1.983, 5e-3)


def link_key(u: str, v: str) -> str:
    return f"{u}-{v}"


def node_gains(doc: Mapping) -> dict[str, float]:
    """Swap probability per node; source and sink carry gain 1."""
    ends = (doc["endpoints"]["source"], doc["endpoints"]["sink"])
    return {n["id"]: 1.0 if n["id"] in ends else float(n.get("q", 1.0)) for n in doc["nodes"]}


def simple_paths(doc: Mapping, counts: Mapping[str, int]) -> list[tuple[list[int], float]]:
    """Every simple source-sink path over links with a pair, with its value."""
    source, sink = doc["endpoints"]["source"], doc["endpoints"]["sink"]
    gains = node_gains(doc)
    adj: dict[str, list[tuple[int, str]]] = {}
    for i, link in enumerate(doc["links"]):
        if counts.get(link_key(link["u"], link["v"]), 0):
            adj.setdefault(link["u"], []).append((i, link["v"]))
            adj.setdefault(link["v"], []).append((i, link["u"]))
    paths: list[tuple[list[int], float]] = []

    def walk(node: str, used: list[int], value: float, seen: set[str]) -> None:
        for i, w in adj.get(node, ()):
            if w in seen:
                continue
            if w == sink:
                paths.append((used + [i], value))
            else:
                seen.add(w)
                walk(w, used + [i], value * gains[w], seen)
                seen.remove(w)

    walk(source, [], 1.0, {source})
    return paths


def path_packing_optimum(doc: Mapping, counts: Mapping[str, int]) -> float:
    """max sum_P value(P) x_P  s.t.  sum_{P uses l} x_P <= count_l, x integer >= 0."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    paths = simple_paths(doc, counts)
    if not paths:
        return 0.0
    links = doc["links"]
    use = np.zeros((len(links), len(paths)))
    for j, (used, _) in enumerate(paths):
        use[used, j] = 1.0
    caps = np.array([counts.get(link_key(l["u"], l["v"]), 0) for l in links], dtype=float)
    result = milp(
        -np.array([value for _, value in paths]),
        constraints=LinearConstraint(use, -np.inf, caps),
        integrality=np.ones(len(paths)),
        bounds=Bounds(0.0, np.inf),
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"reference integer program failed: {result.message}")
    return -float(result.fun)


def binomial_pmf(p: float, c: int) -> np.ndarray:
    return np.array([math.comb(c, k) * p**k * (1.0 - p) ** (c - k) for k in range(c + 1)])


def state_probabilities(doc: Mapping) -> np.ndarray:
    """Probability of every network state, as one flat array (any order)."""
    probs = np.ones(1)
    for link in doc["links"]:
        probs = np.multiply.outer(probs, binomial_pmf(float(link["p"]), int(link.get("c", 1))))
        probs = probs.ravel()
    return probs


def top_k_mass(probs: np.ndarray, k: int) -> float:
    """Total probability of the k most likely states."""
    k = min(k, probs.size)
    return math.fsum(np.partition(probs, probs.size - k)[probs.size - k :].tolist())


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def within(value: float, reference: Sequence[float]) -> bool:
    centre, tol = reference
    return abs(value - centre) <= tol

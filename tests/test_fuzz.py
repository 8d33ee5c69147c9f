"""Loader fuzz: every near-valid topology document loads or is refused with
a TopologyError, and every topology that loads computes in each mode or is
refused with a typed error.

Documents are valid topologies of at most 6 nodes and 8 links with c from
1 to 3; about half have one field of a node or link replaced by a
malformed value. The examples are derandomized and no database is kept, so
every run draws the same 200 documents.
"""

import math

import yaml
from hypothesis import event, given, settings, strategies as st

from conftest import directed_state
from qnetcap import (
    SimConfig,
    SizeGuardError,
    TopologyError,
    brute_force_capacity,
    check_assignment,
    exact_capacity,
    load_topology,
    sampled_capacity,
    simulate_local_knowledge,
    solve_snapshot,
    truncated_capacity,
)
from qnetcap.capacity import StateBudgetError

# NaN, ±inf, a bool, a string, None, and ints out of range for most fields
MALFORMED = (math.nan, math.inf, -math.inf, True, "0.5", None, -1, 300)


@st.composite
def documents(draw):
    ids = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    gains = st.floats(0.05, 1.0)
    nodes = [{"id": ids[0]}, *({"id": n, "q": draw(gains)} for n in ids[1:-1]), {"id": ids[-1]}]
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    links = []
    for u, v in draw(st.permutations(pairs))[: draw(st.integers(1, min(8, len(pairs))))]:
        link = {"u": u, "v": v}
        if draw(st.booleans()):
            link["p"] = draw(st.floats(0.05, 1.0))
        else:
            link["length_km"] = draw(st.floats(0.0, 200.0))
        link["c"] = draw(st.integers(1, 3))
        links.append(link)
    if draw(st.booleans()):
        entry = draw(st.sampled_from(nodes + links))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(st.sampled_from(MALFORMED))
    return {"nodes": nodes, "links": links, "endpoints": {"source": ids[0], "sink": ids[-1]}}


def full_state_is_certified(t):
    g = directed_state(t)
    solution = solve_snapshot(g)
    assert check_assignment(g, solution.assignment).feasible
    assert abs(brute_force_capacity(g) - solution.objective) <= 1e-9


RUNS = (
    lambda t: exact_capacity(t, threads=1),
    lambda t: truncated_capacity(t, k=20),
    lambda t: sampled_capacity(t, 100, threads=1),
    lambda t: simulate_local_knowledge(t, SimConfig(50), threads=1),
    full_state_is_certified,
)


@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(documents())
def test_documents_load_or_are_refused_and_every_mode_computes(doc):
    try:
        t = load_topology(yaml.safe_dump(doc, sort_keys=False))
    except TopologyError:
        event("refused")
        return
    event("loaded")
    for run in RUNS:
        try:
            run(t)
        except (StateBudgetError, SizeGuardError):
            event(f"typed refusal: {run.__name__}")

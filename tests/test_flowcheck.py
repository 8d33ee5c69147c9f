"""Constraint checker: demo fixtures, path extraction, objective."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import directed_state, make_topology, solve_state
from qnetcap import datasets
from qnetcap.flowcheck import (
    ALL_CONSTRAINTS,
    TAU,
    ConstraintReport,
    FlowAssignment,
    InfeasibleAssignmentError,
    Violation,
    check_assignment,
    extract_paths,
    load_assignment,
    objective_value,
)
from qnetcap.snapshot import SnapshotState


def test_c6_demo_passes_other_constraints():
    g = directed_state(datasets.load_dataset("demo_c6"))
    a = datasets.c6_demo_assignment()
    report = check_assignment(g, a, active={"C7", "C8", "C9"})
    assert report.violations == ()


def test_c6_demo_caught_only_by_c6():
    g = directed_state(datasets.load_dataset("demo_c6"))
    a = datasets.c6_demo_assignment()
    report = check_assignment(g, a, active={"C6"})
    locations = {v.location for v in report.violations}
    assert ("2", "3") in locations
    assert ("3", "2") in locations
    at_23 = next(v for v in report.violations if v.location == ("2", "3"))
    assert at_23.residual == 1.0  # two matchings touch the arc, one allowed
    assert report.objective == pytest.approx(1.0 + 0.1**2)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
def test_c6_demo_parametrized_gain(eps):
    g = directed_state(datasets.c6_demo(eps))
    a = datasets.c6_demo_assignment(eps)
    assert check_assignment(g, a, active={"C7", "C8", "C9", "BOUNDS"}).feasible
    assert not check_assignment(g, a, active={"C6"}).feasible
    assert objective_value(g, a) == pytest.approx(1.0 + eps * eps)


def test_c7_demo_caught_only_by_c7():
    g = directed_state(datasets.load_dataset("demo_c7"))
    a = datasets.load_fixture_assignment("demo_c7_bad")
    assert check_assignment(g, a, active={"C6", "C8", "C9", "BOUNDS"}).feasible
    report = check_assignment(g, a, active={"C7"})
    assert not report.feasible
    merge = next(v for v in report.violations if v.location == ("1", "3", "t"))
    assert merge.residual == pytest.approx(-0.5)


def test_c9_demo_caught_only_by_c9():
    g = directed_state(datasets.load_dataset("demo_c9"))
    a = datasets.load_fixture_assignment("demo_c9_bad")
    assert check_assignment(g, a, active={"C6", "C7", "C8", "BOUNDS"}).feasible
    report = check_assignment(g, a, active={"C9"})
    assert [v.location for v in report.violations] == ["1"]
    assert report.objective == pytest.approx(2.0)


def test_fixture_files_match_builders():
    from_file = datasets.load_fixture_assignment("demo_c6_bad")
    built = datasets.c6_demo_assignment()
    assert from_file.flows == pytest.approx(built.flows)
    assert from_file.matchings == built.matchings


def test_demo_builders_read_the_bundled_networks():
    assert datasets.c6_demo() == datasets.load_dataset("demo_c6")
    assert datasets.c7_demo() == datasets.load_dataset("demo_c7")


@pytest.mark.parametrize(
    "name, builder, named",
    [("demo_c6", datasets.c6_demo, {"1", "4"}), ("demo_c7", datasets.c7_demo, {"4"})],
)
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 1.0])
def test_demo_builders_override_only_the_named_gains(name, builder, named, eps):
    fixture, built = datasets.load_dataset(name), builder(eps)
    assert (built.links, built.source, built.sink) == (fixture.links, fixture.source, fixture.sink)
    assert built.constants == fixture.constants
    assert [n.id for n in built.nodes] == [n.id for n in fixture.nodes]
    for n, m in zip(built.nodes, fixture.nodes):
        assert n.q == (eps if n.id in named else m.q), n.id


def test_zero_assignment_feasible_everywhere(five_node):
    g = directed_state(five_node, SnapshotState.from_counts(five_node, {"0-4": 1, "0-1": 1}))
    report = check_assignment(g, FlowAssignment({}, {}))
    assert report.feasible
    assert report.objective == 0.0


def test_unknown_arc_rejected():
    g = directed_state(datasets.load_dataset("demo_c9"))
    with pytest.raises(KeyError, match="unknown arc"):
        check_assignment(g, FlowAssignment({("t", "s"): 1.0}, {}))


def test_unknown_triple_rejected():
    g = directed_state(datasets.load_dataset("demo_c9"))
    with pytest.raises(KeyError, match="unknown triple"):
        check_assignment(g, FlowAssignment({}, {("s", "1", "1"): 1}))


def test_unknown_constraint_tag_rejected():
    g = directed_state(datasets.load_dataset("demo_c9"))
    with pytest.raises(ValueError, match="unknown constraint"):
        check_assignment(g, FlowAssignment({}, {}), active={"C5"})


def test_bounds_violations_reported():
    g = directed_state(datasets.load_dataset("demo_c9"))
    report = check_assignment(g, FlowAssignment({("s", "1"): 1.5}, {}), active={"BOUNDS"})
    assert [v.constraint for v in report.violations] == ["BOUNDS"]
    assert report.violations[0].residual == pytest.approx(0.5)


def test_extract_paths_from_solver_output(five_node):
    solution = solve_state(five_node)
    g = directed_state(five_node)
    paths = extract_paths(g, solution.assignment)
    assert sorted(p for p, _ in paths) == sorted(p.nodes for p in solution.paths)
    assert sum(f for _, f in paths) == pytest.approx(solution.objective, abs=1e-9)


def test_extract_paths_fig10_delivered_flows(five_node):
    solution = solve_state(five_node)
    g = directed_state(five_node)
    delivered = sorted((f for _, f in extract_paths(g, solution.assignment)), reverse=True)
    assert delivered == pytest.approx([1.0, 0.64, 0.64, 0.5, 0.5, 0.135])


def test_extract_paths_zero_assignment(five_node):
    g = directed_state(five_node, SnapshotState.from_counts(five_node, {"0-4": 1}))
    assert extract_paths(g, FlowAssignment({}, {})) == []


def test_extract_paths_requires_feasibility():
    g = directed_state(datasets.load_dataset("demo_c9"))
    with pytest.raises(InfeasibleAssignmentError):
        extract_paths(g, datasets.load_fixture_assignment("demo_c9_bad"))


def test_single_chain_scaled_flow():
    t = make_topology({"a": 0.7}, [("s", "a"), ("a", "t")])
    g = directed_state(t)
    a = FlowAssignment(
        flows={("s", "a"): 1.0, ("a", "t"): 0.7},
        matchings={("s", "a", "t"): 1},
    )
    report = check_assignment(g, a)
    assert report.feasible
    paths = extract_paths(g, a)
    assert paths == [(("s", "a", "t"), pytest.approx(0.7))]


def test_assignment_document_round_trip():
    a = datasets.c6_demo_assignment()
    doc = a.to_document()
    again = FlowAssignment.from_document(doc)
    assert again.flows == a.flows
    assert again.matchings == a.matchings


@pytest.mark.parametrize(
    "text, message",
    [
        ("flows: [", r"^assignment: YAML parse failure: "),
        ("flows: [1, 2]", r"^flows\[0\]: expected a mapping, got int$"),
        ("matchings: 3", r"^matchings: expected a list, got int$"),
        ("flows: {from: a, to: b, value: 1}", r"^flows: expected a list, got dict$"),
        ("matchings: [{i: a, j: b, k: c, value: 1}, x]", r"^matchings\[1\]: expected a mapping"),
        ("flows: [{from: a, value: 0.5}]", r"^flows\[0\]: missing to$"),
        ("flows: [{from: a, to: b, value: null}]", r"^flows\[0\]\.value: not a number \(None\)$"),
        ("matchings: [{i: a, j: b, k: c, value: x}]", r"^matchings\[0\]\.value: not a number"),
        ('flows: [{from: a, to: b, value: "1"}]', r"^flows\[0\]\.value: not a number \('1'\)$"),
        (
            "matchings: [{i: a, j: b, k: c, value: true}]",
            r"^matchings\[0\]\.value: not a number \(True\)$",
        ),
        (
            'flows: [{from: s, to: "1", value: 5.0}, {from: "1", to: s, value: 0.0},'
            ' {from: s, to: 1, value: 1.0}]',
            r"^flows\[2\]: repeats flows\[0\] \(s, 1\)$",
        ),
        (
            "matchings: [{i: a, j: b, k: c, value: 1}, {i: a, j: b, k: c, value: 0}]",
            r"^matchings\[1\]: repeats matchings\[0\] \(a, b, c\)$",
        ),
    ],
)
def test_malformed_assignment_documents_are_value_errors(text, message):
    with pytest.raises(ValueError, match=message):
        load_assignment(text + "\n")


HALF_MATCHING = """
flows:
  - {from: s, to: "1", value: 1.0}
  - {from: "1", to: "3", value: 1.0}
  - {from: "3", to: t, value: 1.0}
matchings:
  - {i: s, j: "1", k: "3", value: 0.5}
  - {i: "1", j: "3", k: t, value: 1}
"""


def test_fractional_matchings_are_kept_for_bounds():
    a = load_assignment(HALF_MATCHING)
    assert a.matchings == {("s", "1", "3"): 0.5, ("1", "3", "t"): 1}
    g = directed_state(datasets.load_dataset("demo_c9"))
    report = check_assignment(g, a, active={"BOUNDS"})
    assert report.violations == (Violation("BOUNDS", ("s", "1", "3"), 0.5),)
    assert load_assignment("matchings: [{i: a, j: b, k: c, value: 2.7}]").matchings == {
        ("a", "b", "c"): 2.7
    }


def test_assignment_sections_may_be_absent_or_null():
    for text in ("{}", "flows: null\nmatchings: []"):
        a = load_assignment(text)
        assert (a.flows, a.matchings) == ({}, {})


def reference_adjacency(g):
    """(out, in) neighbour lists of every node, from the arcs sorted here."""
    out_arcs, in_arcs = {}, {}
    for u, v in sorted(g.arcs):
        out_arcs.setdefault(u, []).append(v)
        in_arcs.setdefault(v, []).append(u)
    return out_arcs, in_arcs


def reference_triples(g):
    """All (i, j, k) with arcs (i,j), (j,k), i != k and j internal, in
    (j, i, k) order."""
    out_arcs, in_arcs = reference_adjacency(g)
    triples = []
    for j in sorted(g.gains):
        if j in (g.source, g.sink):
            continue
        for i in in_arcs.get(j, ()):
            for k in out_arcs.get(j, ()):
                if i != k:
                    triples.append((i, j, k))
    return tuple(triples)


def reference_check(g, a, active=None):
    """A dense checker: every family reads x on every eligible triple, an
    absent one as 0, and walks arcs and neighbours sorted here."""
    tags = frozenset(ALL_CONSTRAINTS if active is None else (s.upper() for s in active))
    unknown = tags - frozenset(ALL_CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraint tags: {sorted(unknown)}")
    arcs = sorted(g.arcs)
    out_arcs, in_arcs = reference_adjacency(g)
    triples = reference_triples(g)
    for arc in a.flows:
        if arc not in g.arcs:
            raise KeyError(f"flow on unknown arc {arc}")
    for triple in a.matchings:
        if triple not in set(triples):
            raise KeyError(f"matching on unknown triple {triple}")
    fval = a.flows.get
    xval = a.matchings.get
    violations = []
    if "BOUNDS" in tags:
        for arc in arcs:
            f = fval(arc, 0.0)
            if not 0.0 <= f <= 1.0:
                violations.append(Violation("BOUNDS", arc, max(-f, f - 1.0)))
        for triple in triples:
            x = xval(triple, 0)
            if x not in (0, 1):
                violations.append(Violation("BOUNDS", triple, float(x)))
    if "C6" in tags:
        first_two, last_two = {}, {}
        for triple in triples:
            x = xval(triple, 0)
            if x:
                first_two[triple[:2]] = first_two.get(triple[:2], 0) + x
                last_two[triple[1:]] = last_two.get(triple[1:], 0) + x
        for i, j in arcs:
            total = first_two.get((i, j), 0) + last_two.get((j, i), 0)
            if total > 1:
                violations.append(Violation("C6", (i, j), float(total - 1)))
    if "C7" in tags:
        for i, j, k in triples:
            x = xval((i, j, k), 0)
            if not x:
                continue
            residual = x * (fval((i, j), 0.0) * g.gains[j] - fval((j, k), 0.0))
            if abs(residual) > TAU:
                violations.append(Violation("C7", (i, j, k), residual))
    if "C8" in tags:
        matched = {}
        for triple in triples:
            matched[triple[:2]] = matched.get(triple[:2], 0) + xval(triple, 0)
        for i, j in arcs:
            if j == g.sink:
                continue
            residual = fval((i, j), 0.0) - matched.get((i, j), 0)
            if residual > TAU:
                violations.append(Violation("C8", (i, j), residual))
    if "C9" in tags:
        for i in sorted(g.gains):
            if i in (g.source, g.sink):
                continue
            out_flow = sum(fval((i, j), 0.0) for j in out_arcs.get(i, ()))
            in_flow = sum(fval((j, i), 0.0) for j in in_arcs.get(i, ()))
            residual = out_flow - in_flow * g.gains[i]
            if abs(residual) > TAU:
                violations.append(Violation("C9", i, residual))
    objective = sum(fval((j, g.sink), 0.0) for j in in_arcs.get(g.sink, ()))
    return ConstraintReport(tuple(violations), objective)


EQUIVALENCE_NETWORKS = ("five_node", "abilene", "nsfnet", "surfnet", *datasets.FIXTURE_TOPOLOGIES)
FLOW_VALUES = (-0.25, 0.0, 0.5, 1.0, 1.5)
X_VALUES = (-1, 0, 1, 2)


@functools.cache
def network(name):
    return datasets.load_dataset(name)


def outcome(check, g, a, active):
    """What a checker makes of one input: its report in comparable form,
    or the KeyError it raises."""
    try:
        report = check(g, a, active)
    except KeyError as err:
        return "KeyError", str(err)
    rows = [(v.constraint, v.location, repr(v.residual)) for v in report.violations]
    return rows, repr(report.objective)


@st.composite
def checker_inputs(draw):
    """A drawn state of a network, flows on some of its arcs (values from
    FLOW_VALUES or the gain of the arc's tail), matchings on some eligible
    triples in drawn order, maybe one stray arc or triple, and a tag set."""
    t = network(draw(st.sampled_from(EQUIVALENCE_NETWORKS)))
    vector = draw(st.tuples(*(st.integers(0, c) for c in t.capacities)))
    g = directed_state(t, SnapshotState(t.link_ids, vector))
    arcs = sorted(g.arcs)
    flows = {}
    if arcs:
        for u, v in draw(st.lists(st.sampled_from(arcs), unique=True)):
            flows[u, v] = draw(st.sampled_from(FLOW_VALUES + (g.gains[u],)))
    matchings = {}
    triples = reference_triples(g)
    if triples:
        for triple in draw(st.lists(st.sampled_from(triples), unique=True)):
            matchings[triple] = draw(st.sampled_from(X_VALUES))
    nodes = sorted(g.gains)
    if draw(st.booleans()):
        flows[draw(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)))] = 0.5
    if draw(st.booleans()):
        # chained arcs, i == k allowed, or any three nodes
        chained = [(i, j, k) for i, j in arcs for j2, k in arcs if j2 == j]
        pool = st.sampled_from(chained) if chained else st.nothing()
        stray = draw(pool | st.tuples(*[st.sampled_from(nodes)] * 3))
        matchings[stray] = 1
    active = draw(st.none() | st.sets(st.sampled_from(ALL_CONSTRAINTS)))
    return g, FlowAssignment(flows, matchings), active


@settings(max_examples=400, deadline=None)
@given(case=checker_inputs())
def test_check_assignment_matches_dense_reference(case):
    g, a, active = case
    assert outcome(check_assignment, g, a, active) == outcome(reference_check, g, a, active)
    # the check sums the objective in its own pass over the arcs, to the bit
    # of objective_value's sum, int 0 for a sink without arcs included
    try:
        report = check_assignment(g, a, active)
    except KeyError:
        return
    assert repr(report.objective) == repr(objective_value(g, a))

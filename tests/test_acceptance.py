"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test records a summary line printed at the end of the run. The
NSFNet, SURFnet and reversal runs carry the `slow` marker and the
4.8M-state multiplexed Abilene runs carry `nightly`; all run by default.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import (
    directed_state,
    make_topology,
    random_instance,
    record_acceptance,
    solve_state,
)
from qnetcap import datasets
from qnetcap.capacity import (
    exact_capacity,
    full_state_capacity,
    sampled_capacity,
    truncated_capacity,
)
from qnetcap.flowcheck import TAU, check_assignment, extract_paths
from qnetcap.model import LinkSpec, LossConstants, NodeSpec, Topology, derive_link_probability
from qnetcap.montecarlo import SimConfig, simulate_local_knowledge
from qnetcap.oracle import brute_force_capacity, max_disjoint_paths
from qnetcap.snapshot import num_states, to_directed, to_unit_capacity
from qnetcap.solver import solve_snapshot


def timed_exact(t, threads):
    start = time.perf_counter()
    report = exact_capacity(t, threads=threads, budget=None)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def five_exact(five_node):
    return timed_exact(five_node, threads=1)


@pytest.fixture(scope="module")
def abilene_exact(abilene):
    return timed_exact(abilene, threads=1)


@pytest.fixture(scope="module")
def nsfnet_exact(nsfnet):
    return timed_exact(nsfnet, threads=4)


@pytest.fixture(scope="module")
def surfnet_exact(surfnet):
    return timed_exact(surfnet, threads=2)


def test_criterion_1_five_node(five_node, five_exact):
    report, elapsed = five_exact
    assert report.value == pytest.approx(1.2121, abs=5e-4)
    assert report.full_state_capacity == pytest.approx(3.415, abs=1e-9)
    assert elapsed < 1.0
    record_acceptance(
        "criterion 01 (five-node)",
        f"exact {report.value:.6f} (target 1.2121 +/- 5e-4), "
        f"full {report.full_state_capacity:.9f} (target 3.415 +/- 1e-9), {elapsed:.2f}s",
    )


def test_criterion_2_abilene(abilene, abilene_exact):
    report, elapsed = abilene_exact
    assert report.value == pytest.approx(0.8301, abs=5e-4)
    assert report.full_state_capacity == pytest.approx(1.607, abs=5e-4)
    assert elapsed < 30.0
    record_acceptance(
        "criterion 02 (Abilene)",
        f"exact {report.value:.6f} (target 0.8301 +/- 5e-4), "
        f"full {report.full_state_capacity:.6f} (target 1.607 +/- 5e-4), {elapsed:.2f}s",
    )


@pytest.mark.nightly
def test_criterion_3_abilene_mux2(abilene_mux2):
    report, elapsed = timed_exact(abilene_mux2, threads=4)
    assert report.states_evaluated == 3**14
    assert report.value == pytest.approx(1.983, abs=5e-3)
    assert elapsed < 1800.0
    record_acceptance(
        "criterion 03 (Abilene c=2)",
        f"exact {report.value:.6f} (target 1.983 +/- 5e-3), "
        f"{report.states_evaluated} states, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_4_nsfnet(nsfnet, nsfnet_exact):
    report, elapsed = nsfnet_exact
    assert report.states_evaluated == 2**21
    assert report.value == pytest.approx(0.1013397, abs=5e-7)
    assert elapsed < 1200.0
    record_acceptance(
        "criterion 04 (NSFNet)",
        f"exact {report.value:.9f} (target 0.1013397 +/- 5e-7), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_5_surfnet(surfnet, surfnet_exact):
    report, elapsed = surfnet_exact
    assert report.states_evaluated == 2**20
    assert report.value == pytest.approx(1.0762e-7, rel=1e-3)
    assert elapsed < 600.0
    record_acceptance(
        "criterion 05 (SURFnet)",
        f"exact {report.value:.6e} (target 1.0762e-7 +/- 1e-3 rel), {elapsed:.1f}s",
    )


ABILENE_TABLE = [
    (1.138, 0.8540), (1.641, 0.8345), (0.503, 0.8794), (1.504, 0.8398),
    (2.206, 0.8131), (0.896, 0.8636), (1.041, 0.8579), (0.727, 0.8704),
    (1.128, 0.8544), (0.265, 0.8891), (1.144, 0.8538), (0.688, 0.8719),
    (0.872, 0.8646), (0.328, 0.8865),
]
NSFNET_TABLE = [
    (11, 0.5423), (6, 0.6827), (10, 0.5679), (16, 0.4308), (28, 0.2479),
    (20, 0.3583), (6, 0.6827), (24, 0.2980), (11, 0.5423), (8, 0.6226),
    (12, 0.5179), (20, 0.3583), (7, 0.6520), (7, 0.6520), (9, 0.5946),
    (5, 0.7149), (5, 0.7149), (8, 0.6226), (10, 0.5679), (5, 0.7149),
    (3, 0.7839),
]
SURFNET_TABLE = [
    (16.8, 0.4152), (30.6, 0.2199), (60.4, 0.0557), (70, 0.0358),
    (30.2, 0.2240), (38.9, 0.1501), (36.7, 0.1661), (35.4, 0.1763),
    (33.8, 0.1898), (44.2, 0.1176), (62.5, 0.0506), (66.3, 0.0425),
    (25.7, 0.2756), (58.1, 0.0620), (45.3, 0.1117), (24.4, 0.2926),
    (47.7, 0.1001), (44.7, 0.1149), (78.7, 0.0240), (60, 0.0568),
]


def test_criterion_6_probability_tables():
    constants = LossConstants()
    rows = 0
    worst = 0.0
    for table in (ABILENE_TABLE, NSFNET_TABLE, SURFNET_TABLE):
        for length, expected in table:
            derived = derive_link_probability(length, constants)
            worst = max(worst, abs(derived - expected))
            assert derived == pytest.approx(expected, abs=5e-5)
            rows += 1
    record_acceptance(
        "criterion 06 (loss-model tables)",
        f"{rows} table rows reproduced, worst deviation {worst:.2e} (cap 5e-5)",
    )


def test_criterion_7_constraint_fixtures():
    cases = []
    g6 = directed_state(datasets.load_dataset("demo_c6"))
    a6 = datasets.load_fixture_assignment("demo_c6_bad")
    assert check_assignment(g6, a6, active={"C7", "C8", "C9"}).feasible
    c6 = check_assignment(g6, a6, active={"C6"})
    assert not c6.feasible
    assert ("2", "3") in {v.location for v in c6.violations}
    cases.append("C6 demo: feasible under C7-C9, caught by C6 at arc (2,3)")

    g7 = directed_state(datasets.load_dataset("demo_c7"))
    a7 = datasets.load_fixture_assignment("demo_c7_bad")
    assert check_assignment(g7, a7, active={"BOUNDS", "C6", "C8", "C9"}).feasible
    c7 = check_assignment(g7, a7, active={"C7"})
    assert not c7.feasible
    assert all(v.constraint == "C7" for v in c7.violations)
    cases.append("C7 demo: caught only by C7")

    g9 = directed_state(datasets.load_dataset("demo_c9"))
    a9 = datasets.load_fixture_assignment("demo_c9_bad")
    assert check_assignment(g9, a9, active={"BOUNDS", "C6", "C7", "C8"}).feasible
    c9 = check_assignment(g9, a9, active={"C9"})
    assert [v.location for v in c9.violations] == ["1"]
    cases.append("C9 demo: caught only by C9 at node 1")
    record_acceptance("criterion 07 (constraint necessity)", "; ".join(cases))


@pytest.fixture(scope="module")
def random_corpus():
    rng = np.random.default_rng(987654321)
    return [random_instance(rng) for _ in range(1000)]


def test_criterion_8_solver_oracle_parity(random_corpus):
    worst = 0.0
    for t, state in random_corpus:
        unit_t, unit_state = to_unit_capacity(t, state)
        g = to_directed(unit_t, unit_state)
        solution = solve_snapshot(g)
        reference = brute_force_capacity(g)
        worst = max(worst, abs(solution.objective - reference))
        assert abs(solution.objective - reference) <= 1e-9
        unit_gain = Topology(
            tuple(NodeSpec(n.id, 1.0) for n in t.nodes),
            t.links, t.source, t.sink,
        )
        g1 = to_directed(unit_gain, state)
        assert abs(solve_snapshot(g1).objective - max_disjoint_paths(g1)) <= 1e-9
    record_acceptance(
        "criterion 08 (solver vs oracle)",
        f"1000 random instances agree within 1e-9 (worst {worst:.2e}); "
        "unit-gain objective equals max-flow on each",
    )


def test_criterion_9_flow_lemma_properties(random_corpus):
    checked = 0
    for t, state in random_corpus:
        unit_t, unit_state = to_unit_capacity(t, state)
        g = to_directed(unit_t, unit_state)
        solution = solve_snapshot(g)
        report = check_assignment(g, solution.assignment)
        assert report.feasible
        flows = solution.assignment.flows
        for (i, j), f in flows.items():
            if f > TAU:
                assert flows.get((j, i), 0.0) <= TAU  # no bidirectional flow
        for node in g.gains:
            if node in (g.source, g.sink):
                continue
            incoming = sorted(
                f * g.gains[node] for (_, j), f in flows.items() if j == node and f > TAU
            )
            outgoing = sorted(f for (i, _), f in flows.items() if i == node and f > TAU)
            assert len(incoming) == len(outgoing)
            for a, b in zip(incoming, outgoing):
                assert abs(a - b) <= TAU  # one-to-one, scaled by the gain
        for nodes, _ in extract_paths(g, solution.assignment):
            assert nodes[0] == g.source and nodes[-1] == g.sink
        checked += 1
    record_acceptance(
        "criterion 09 (flow lemmas)",
        f"{checked} solver assignments: feasible, no opposing flows, "
        "split/merge-free, all paths source-to-sink",
    )


def test_criterion_10_reversal_fast(five_node, abilene, five_exact, abilene_exact):
    pairs = []
    for name, t, (report, _) in (
        ("five_node", five_node, five_exact),
        ("abilene", abilene, abilene_exact),
    ):
        swapped = exact_capacity(
            dataclasses.replace(t, source=t.sink, sink=t.source), threads=1, budget=None
        )
        assert swapped.value == pytest.approx(report.value, abs=1e-9)
        pairs.append(name)
    record_acceptance(
        "criterion 10a (reversal, small sets)",
        f"{', '.join(pairs)} unchanged under endpoint exchange (1e-9)",
    )


@pytest.mark.slow
def test_criterion_10_reversal_nsfnet(nsfnet, nsfnet_exact):
    report, _ = nsfnet_exact
    swapped = exact_capacity(
        dataclasses.replace(nsfnet, source=nsfnet.sink, sink=nsfnet.source), threads=4, budget=None
    )
    assert swapped.value == pytest.approx(report.value, abs=1e-9)
    record_acceptance(
        "criterion 10b (reversal, NSFNet)", "unchanged under endpoint exchange (1e-9)"
    )


@pytest.mark.slow
def test_criterion_10_reversal_surfnet(surfnet, surfnet_exact):
    report, _ = surfnet_exact
    swapped = exact_capacity(
        dataclasses.replace(surfnet, source=surfnet.sink, sink=surfnet.source),
        threads=2,
        budget=None,
    )
    assert swapped.value == pytest.approx(report.value, abs=1e-9)
    record_acceptance(
        "criterion 10c (reversal, SURFnet)", "unchanged under endpoint exchange (1e-9)"
    )


@pytest.mark.nightly
def test_criterion_10_reversal_abilene_mux2(abilene_mux2):
    forward = exact_capacity(abilene_mux2, threads=4, budget=None)
    swapped = exact_capacity(
        dataclasses.replace(abilene_mux2, source=abilene_mux2.sink, sink=abilene_mux2.source),
        threads=4,
        budget=None,
    )
    assert swapped.value == pytest.approx(forward.value, abs=1e-9)
    record_acceptance(
        "criterion 10d (reversal, Abilene c=2)",
        "unchanged under endpoint exchange (1e-9)",
    )


def test_criterion_11_truncated_brackets(five_node, five_exact):
    report, _ = five_exact
    exact = report.value
    for k in (1, 8, 32, 128):
        bracket = truncated_capacity(five_node, k)
        assert bracket.lower <= exact + 1e-9
        assert exact <= bracket.upper + 1e-9
    # bounds collapse once every state is visited; for the multiplexed
    # dataset that takes the full 5760-state budget, and k=128 collapses on
    # the unit-capacity variant whose state space is exactly 2^7
    full_budget = truncated_capacity(five_node, num_states(five_node))
    assert full_budget.upper - full_budget.lower <= 1e-9
    assert full_budget.lower == pytest.approx(exact, abs=1e-9)
    unit = Topology(
        five_node.nodes,
        tuple(LinkSpec(l.u, l.v, p=l.p) for l in five_node.links),
        five_node.source,
        five_node.sink,
    )
    unit_exact = exact_capacity(unit, threads=1).value
    collapsed = truncated_capacity(unit, 128)
    assert collapsed.upper - collapsed.lower <= 1e-9
    assert collapsed.lower == pytest.approx(unit_exact, abs=1e-9)
    record_acceptance(
        "criterion 11 (truncated brackets)",
        "k in {1,8,32,128} brackets the exact value; bounds collapse at the "
        "full state budget (5760 multiplexed, 128 unit-capacity)",
    )


def test_criterion_12_sampling_consistency(five_node, five_exact):
    report, _ = five_exact
    exact = report.value
    successes = 0
    for seed in range(100):
        sampled = sampled_capacity(five_node, 100_000, seed=seed, threads=1)
        if abs(sampled.value - exact) <= 4 * sampled.stderr:
            successes += 1
    assert successes >= 99
    record_acceptance(
        "criterion 12 (sampling consistency)",
        f"{successes}/100 seeded runs within 4 standard errors of exact",
    )


def test_criterion_13_baseline_five_node(five_node, five_exact):
    report, _ = five_exact
    sim = simulate_local_knowledge(five_node, SimConfig(100_000, seed=13), threads=2)
    assert sim.mean <= report.value + 4 * sim.stderr
    record_acceptance(
        "criterion 13a (baseline, five-node)",
        f"greedy mean {sim.mean:.5f} +/- {sim.stderr:.5f} <= exact {report.value:.5f} "
        "(published baseline 1.18019 indicative)",
    )


@pytest.mark.slow
def test_criterion_13_baseline_nsfnet(nsfnet, nsfnet_exact):
    report, _ = nsfnet_exact
    sim = simulate_local_knowledge(nsfnet, SimConfig(100_000, seed=13), threads=2)
    assert sim.mean <= report.value + 4 * sim.stderr
    record_acceptance(
        "criterion 13b (baseline, NSFNet)",
        f"greedy mean {sim.mean:.5f} +/- {sim.stderr:.5f} <= exact {report.value:.5f} "
        "(published baseline 0.08136 indicative)",
    )

"""Bundled datasets: case-study topologies and constraint-demo fixtures.

Datasets are YAML topology files shipped as package data. The demo_*
fixtures are small networks paired with hand-built infeasible assignments,
each crafted so that exactly one constraint family catches the flaw.
c6_demo and c7_demo load the bundled YAML with their small-gain nodes' q
overridden. c6_demo_assignment is built here, as its flows scale with that
gain; the other bad assignments are read with load_fixture_assignment.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

from .flowcheck import FlowAssignment, load_assignment
from .model import Topology, load_topology

DATASETS = ("five_node", "abilene", "abilene_mux2", "nsfnet", "surfnet")
FIXTURE_TOPOLOGIES = ("demo_c6", "demo_c7", "demo_c9")
FIXTURE_ASSIGNMENTS = ("demo_c6_bad", "demo_c7_bad", "demo_c9_bad")


class UnknownDatasetError(KeyError):
    pass


def dataset_text(name: str) -> str:
    if name not in DATASETS + FIXTURE_TOPOLOGIES + FIXTURE_ASSIGNMENTS:
        raise UnknownDatasetError(
            f"unknown dataset '{name}'; available: {', '.join(DATASETS + FIXTURE_TOPOLOGIES + FIXTURE_ASSIGNMENTS)}"
        )
    return (resources.files("qnetcap") / "data" / f"{name}.yaml").read_text()


def load_dataset(name: str) -> Topology:
    return load_topology(dataset_text(name))


def load_fixture_assignment(name: str) -> FlowAssignment:
    return load_assignment(dataset_text(name))


def _with_gains(name: str, qmap: dict[str, float]) -> Topology:
    t = load_dataset(name)
    return replace(t, nodes=[replace(n, q=qmap.get(n.id, n.q)) for n in t.nodes])


def c6_demo(small_gain: float = 0.1) -> Topology:
    """Network where dropping C6 admits two non-disjoint unit flows."""
    return _with_gains("demo_c6", {"1": small_gain, "4": small_gain})


def c6_demo_assignment(small_gain: float = 0.1) -> FlowAssignment:
    e = small_gain
    return FlowAssignment(
        flows={
            ("s", "1"): 1.0,
            ("1", "3"): e,
            ("3", "2"): e,
            ("2", "4"): e,
            ("4", "t"): e * e,
            ("s", "2"): 1.0,
            ("2", "3"): 1.0,
            ("3", "t"): 1.0,
        },
        matchings={
            ("s", "1", "3"): 1,
            ("1", "3", "2"): 1,
            ("3", "2", "4"): 1,
            ("2", "4", "t"): 1,
            ("s", "2", "3"): 1,
            ("2", "3", "t"): 1,
        },
    )


def c7_demo(small_gain: float = 0.01) -> Topology:
    """Network where dropping C7 lets two half flows merge at node 3."""
    return _with_gains("demo_c7", {"4": small_gain})


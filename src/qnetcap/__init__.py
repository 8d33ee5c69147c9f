"""qnetcap: exact entanglement capacity of quantum repeater networks.

Computes, for one source-sink pair, the expected number of end-to-end
entangled pairs per time slot: exactly (a conditioning tree over the
network's links, with series reductions at every node and the path
packer's optimum at the leaves), bounded (most likely states), or sampled
(Monte Carlo), with a local-knowledge greedy routing baseline for
comparison.
"""

from .capacity import (
    CapacityReport,
    exact_capacity,
    full_state_capacity,
    sampled_capacity,
    truncated_capacity,
)
from .flowcheck import (
    ConstraintReport,
    FlowAssignment,
    InfeasibleAssignmentError,
    check_assignment,
    extract_paths,
    objective_value,
)
from .model import (
    LinkSpec,
    LossConstants,
    NodeSpec,
    Topology,
    TopologyError,
    derive_link_probability,
    load_topology,
    serialize_topology,
    validate_topology,
)
from .montecarlo import SimConfig, SimResult, simulate_local_knowledge
from .oracle import SizeGuardError, brute_force_capacity, enumerate_path_sets, max_disjoint_paths
from .snapshot import (
    DirectedSnapshot,
    SnapshotState,
    enumerate_states,
    state_probability,
    to_directed,
    to_unit_capacity,
)
from .solver import SnapshotSolution, solve_snapshot

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "ConstraintReport",
    "DirectedSnapshot",
    "FlowAssignment",
    "InfeasibleAssignmentError",
    "LinkSpec",
    "LossConstants",
    "NodeSpec",
    "SimConfig",
    "SimResult",
    "SizeGuardError",
    "SnapshotSolution",
    "SnapshotState",
    "Topology",
    "TopologyError",
    "brute_force_capacity",
    "check_assignment",
    "derive_link_probability",
    "enumerate_path_sets",
    "enumerate_states",
    "exact_capacity",
    "extract_paths",
    "full_state_capacity",
    "load_topology",
    "max_disjoint_paths",
    "objective_value",
    "sampled_capacity",
    "serialize_topology",
    "simulate_local_knowledge",
    "solve_snapshot",
    "state_probability",
    "to_directed",
    "to_unit_capacity",
    "truncated_capacity",
    "validate_topology",
]

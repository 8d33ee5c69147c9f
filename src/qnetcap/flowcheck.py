"""Independent checker for the constrained-flow variable model.

A flow assignment holds per-arc flow values F and binary matching
indicators x (one per eligible arc-pair triple around an internal node).
The checker evaluates each constraint family on its own, so solver output
can be certified by machinery that shares nothing with the solver, and so
individual constraints can be switched off to demonstrate why each one is
needed. A matching absent from the assignment reads as x = 0, which breaks
no family, so the triple families walk only the matchings that are set.

Constraint tags:
    BOUNDS  0 <= F_ij <= 1 and x in {0, 1}
    C6      sum_k (x_ijk + x_kji) <= 1 per arc: an arc joins at most one
            matching, in one direction
    C7      x_ijk * (F_ij * q_j - F_jk) = 0 per triple: matched flow is
            scaled by exactly the node gain
    C8      sum_k x_ijk >= F_ij per arc with j != sink: positive flow must
            be matched onward
    C9      sum_j (F_ij - F_ji * q_i) = 0 per internal node: node-level
            conservation with gain
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

import yaml

from .model import YAML_LOADER, _real, read_text
from .snapshot import DirectedSnapshot

TAU = 1e-9  # absolute feasibility tolerance for equality constraints

ALL_CONSTRAINTS = ("BOUNDS", "C6", "C7", "C8", "C9")

Arc = tuple[str, str]
Triple = tuple[str, str, str]


class InfeasibleAssignmentError(ValueError):
    """Raised when an operation requires a fully feasible assignment."""

    def __init__(self, report: "ConstraintReport"):
        self.report = report
        heads = ", ".join(
            f"{v.constraint}@{v.location}" for v in report.violations[:4]
        )
        more = "" if len(report.violations) <= 4 else f" (+{len(report.violations) - 4} more)"
        super().__init__(f"assignment infeasible: {heads}{more}")


@dataclass(frozen=True)
class FlowAssignment:
    """Explicit variable assignment: arc flows and matching indicators."""

    flows: Mapping[Arc, float]
    matchings: Mapping[Triple, float] = field(default_factory=dict)

    @staticmethod
    def from_document(document: Mapping) -> "FlowAssignment":
        """The assignment of a parsed document (see to_document); a
        malformed section or row, or a row that repeats an earlier one's
        names, is a ValueError that names it."""
        flows = _table(document, "flows", ("from", "to"))
        matchings = _table(document, "matchings", ("i", "j", "k"))
        return FlowAssignment(flows, matchings)

    def to_document(self) -> dict:
        return {
            "flows": [
                {"from": i, "to": j, "value": v} for (i, j), v in sorted(self.flows.items())
            ],
            "matchings": [
                {"i": i, "j": j, "k": k, "value": v}
                for (i, j, k), v in sorted(self.matchings.items())
            ],
        }


def _table(document: Mapping, section: str, keys: tuple[str, ...]) -> dict:
    """Map from names to value of the rows of document[section], a list of
    mappings of keys and "value" (absent or null: no rows), value a YAML
    number (an int or a float, not a bool) read as a float; two rows with
    the same names are a ValueError that names both."""
    rows = document.get(section)
    if rows is None:
        return {}
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{section}: expected a list, got {type(rows).__name__}")
    table: dict[tuple[str, ...], float] = {}
    first: dict[tuple[str, ...], int] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise ValueError(f"{section}[{i}]: expected a mapping, got {type(row).__name__}")
        missing = [key for key in (*keys, "value") if key not in row]
        if missing:
            raise ValueError(f"{section}[{i}]: missing {', '.join(missing)}")
        raw = row["value"]
        try:
            value = float(raw) if _real(raw) else None
        except OverflowError:  # an int past a float's range
            value = None
        if value is None:
            raise ValueError(f"{section}[{i}].value: not a number ({raw!r})")
        names = tuple(str(row[key]) for key in keys)
        if names in first:
            raise ValueError(
                f"{section}[{i}]: repeats {section}[{first[names]}] ({', '.join(names)})"
            )
        table[names], first[names] = value, i
    return table


def load_assignment(text_or_handle) -> FlowAssignment:
    """Loads an assignment from YAML text or an open text handle (a string
    is YAML text, never a path); malformed YAML or a malformed document is
    a ValueError."""
    try:
        document = yaml.load(read_text(text_or_handle), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValueError(f"assignment: YAML parse failure: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValueError("assignment document must be a mapping with flows/matchings")
    return FlowAssignment.from_document(document)


@dataclass(frozen=True)
class Violation:
    constraint: str
    location: Union[Arc, Triple, str]
    residual: float


@dataclass(frozen=True)
class ConstraintReport:
    violations: tuple[Violation, ...]
    objective: float

    @property
    def feasible(self) -> bool:
        return not self.violations


def check_assignment(
    g: DirectedSnapshot,
    a: FlowAssignment,
    active: Optional[Iterable[str]] = None,
) -> ConstraintReport:
    """Evaluates the active constraint families; empty violations = feasible.

    The objective and C9's node flows are summed from one pass over the
    arcs, in sorted order, so the objective is objective_value(g, a) to the bit.
    """
    tags = frozenset(ALL_CONSTRAINTS if active is None else (s.upper() for s in active))
    unknown = tags - frozenset(ALL_CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraint tags: {sorted(unknown)}")
    arcs = g.sorted_arcs
    arc_set = g.arcs
    for arc in a.flows:
        if arc not in arc_set:
            raise KeyError(f"flow on unknown arc {arc}")
    for triple in a.matchings:
        # eligible: arcs (i, j) and (j, k), i != k, j internal
        if not (
            triple[:2] in arc_set
            and triple[1:] in arc_set
            and triple[0] != triple[2]
            and triple[1] not in (g.source, g.sink)
        ):
            raise KeyError(f"matching on unknown triple {triple}")

    fval = a.flows.get
    # the set matchings in (j, i, k) order; an absent triple has x = 0
    xs = sorted(a.matchings.items(), key=lambda item: (item[0][1], item[0][0], item[0][2]))
    violations: list[Violation] = []

    if "BOUNDS" in tags:
        for arc in arcs:
            f = fval(arc, 0.0)
            if not 0.0 <= f <= 1.0:
                violations.append(Violation("BOUNDS", arc, max(-f, f - 1.0)))
        for triple, x in xs:
            if x not in (0, 1):
                violations.append(Violation("BOUNDS", triple, float(x)))

    if "C6" in tags:
        first_two: dict[Arc, int] = {}
        last_two: dict[Arc, int] = {}
        for triple, x in xs:
            if x:
                first_two[triple[:2]] = first_two.get(triple[:2], 0) + x
                last_two[triple[1:]] = last_two.get(triple[1:], 0) + x
        for i, j in arcs:
            total = first_two.get((i, j), 0) + last_two.get((j, i), 0)
            if total > 1:
                violations.append(Violation("C6", (i, j), float(total - 1)))

    if "C7" in tags:
        for (i, j, k), x in xs:
            if not x:
                continue
            residual = x * (fval((i, j), 0.0) * g.gains[j] - fval((j, k), 0.0))
            if abs(residual) > TAU:
                violations.append(Violation("C7", (i, j, k), residual))

    if "C8" in tags:
        matched: dict[Arc, int] = {}
        for triple, x in xs:
            matched[triple[:2]] = matched.get(triple[:2], 0) + x
        for i, j in arcs:
            if j == g.sink:
                continue
            residual = fval((i, j), 0.0) - matched.get((i, j), 0)
            if residual > TAU:
                violations.append(Violation("C8", (i, j), residual))

    outs: dict[str, list[float]] = {}  # each node's outgoing and incoming arc flows
    ins: dict[str, list[float]] = {}
    for arc in arcs:
        f = fval(arc, 0.0)
        outs.setdefault(arc[0], []).append(f)
        ins.setdefault(arc[1], []).append(f)

    if "C9" in tags:
        for i in g.sorted_nodes:
            if i in (g.source, g.sink):
                continue
            residual = sum(outs.get(i, ())) - sum(ins.get(i, ())) * g.gains[i]
            if abs(residual) > TAU:
                violations.append(Violation("C9", i, residual))

    return ConstraintReport(tuple(violations), sum(ins.get(g.sink, ())))


def objective_value(g: DirectedSnapshot, a: FlowAssignment) -> float:
    """Total flow delivered into the sink, summed in sorted arc order."""
    return sum(a.flows.get(arc, 0.0) for arc in g.sorted_arcs if arc[1] == g.sink)


def extract_paths(
    g: DirectedSnapshot, a: FlowAssignment
) -> list[tuple[tuple[str, ...], float]]:
    """Decomposes a feasible assignment into its source-sink paths.

    Follows the matching indicators from each positive source arc; returns
    (node sequence, delivered flow) pairs whose delivered values sum to the
    objective.
    """
    report = check_assignment(g, a)
    if not report.feasible:
        raise InfeasibleAssignmentError(report)
    successor: dict[Arc, list[str]] = {}
    for (i, j, k), x in a.matchings.items():
        if x:
            successor.setdefault((i, j), []).append(k)
    paths = []
    for u in g.out_arcs.get(g.source, ()):
        flow = a.flows.get((g.source, u), 0.0)
        if flow <= TAU:
            continue
        path = [g.source, u]
        arc = (g.source, u)
        stranded = False
        while path[-1] != g.sink:
            nxt = successor.get(arc, [])
            if len(nxt) != 1:
                if a.flows.get(arc, 0.0) <= TAU:
                    stranded = True  # numerically zero flow petered out
                    break
                raise InfeasibleAssignmentError(report)  # stranded or split flow
            path.append(nxt[0])
            arc = (arc[1], nxt[0])
            if len(path) > len(g.arcs) + 1:
                raise InfeasibleAssignmentError(report)  # cycle
        if not stranded:
            paths.append((tuple(path), a.flows.get(arc, 0.0)))
    return paths

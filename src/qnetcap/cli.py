"""Command-line front end.

Subcommands:
    capacity   network capacity (exact / truncated / sampled)
    snapshot   solve one network state, optionally cross-checked brute force
    verify     check a flow assignment file against selected constraints
    simulate   local-knowledge greedy baseline (Monte Carlo)
    datasets   list or export bundled datasets

Reports go to stdout as text; --out writes the structured YAML report with
an embedded run manifest instead.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

import yaml

from . import __version__, capacity as capacity_mod, datasets, montecarlo
from .flowcheck import ALL_CONSTRAINTS, check_assignment, load_assignment
from .model import Topology, TopologyError, load_topology
from .oracle import SizeGuardError, brute_force_capacity
from .snapshot import SnapshotState, check_vector, to_directed, to_unit_capacity
from .solver import solve_snapshot


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every emitted report."""

    command: str
    topology_digest: str
    parameters: dict
    tool_version: str
    timestamp: str
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        """Fields in declaration order; seed only when set."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _manifest(command: str, t: Topology, params: dict, seed=None) -> RunManifest:
    return RunManifest(
        command=command,
        topology_digest=t.digest(),
        parameters=params,
        tool_version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        seed=seed,
    )


def _resolve_topology(spec: str) -> Topology:
    if spec in datasets.DATASETS + datasets.FIXTURE_TOPOLOGIES:
        return datasets.load_dataset(spec)
    if os.path.exists(spec):
        return load_topology(spec)
    raise TopologyError(
        [
            f"topology '{spec}' is neither a bundled dataset "
            f"({', '.join(datasets.DATASETS + datasets.FIXTURE_TOPOLOGIES)}) nor a file"
        ]
    )


def _parse_state(t: Topology, spec: str) -> SnapshotState:
    """Parses --state: 'full', 'empty', or 'link=count,...' (bare link = 1)."""
    if spec == "full":
        return SnapshotState.full(t)
    if spec in ("empty", ""):
        return SnapshotState.empty(t)
    counts: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            lid, _, raw = part.partition("=")
            count = int(raw)
        else:
            lid, count = part, 1
        lid = lid.strip()
        if lid not in t.link_index:
            raise TopologyError([f"state: unknown link '{lid}'"])
        canonical = t.link_ids[t.link_index[lid]]
        counts[canonical] = count
    state = SnapshotState.from_counts(t, counts)
    check_vector(t, state.vector)
    return state


def _directed_state(args):
    """The topology named by --topology and its --state as a directed graph."""
    t = _resolve_topology(args.topology)
    unit_t, unit_state = to_unit_capacity(t, _parse_state(t, args.state))
    return t, to_directed(unit_t, unit_state)


def _emit(doc: dict, text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        print(f"report written to {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_capacity(args) -> int:
    t = _resolve_topology(args.topology)
    params = {
        "topology": args.topology,
        "mode": args.mode,
        "threads": args.threads,
        "budget": args.budget,
    }
    if args.mode == "exact":
        report = capacity_mod.exact_capacity(
            t, threads=args.threads, budget=args.budget, per_state=args.per_state
        )
    elif args.mode == "truncated":
        if args.top_k is None:
            print("error: --mode truncated requires --top-k", file=sys.stderr)
            return 1
        if args.per_state:
            print("note: --per-state applies to exact/sampled modes only", file=sys.stderr)
        params["top_k"] = args.top_k
        report = capacity_mod.truncated_capacity(t, args.top_k)
    else:
        if args.samples is None:
            print("error: --mode sampled requires --samples", file=sys.stderr)
            return 1
        params.update(samples=args.samples, seed=args.seed)
        report = capacity_mod.sampled_capacity(
            t, args.samples, seed=args.seed, threads=args.threads, per_state=args.per_state
        )
    manifest = _manifest(
        "capacity", t, params, seed=args.seed if args.mode == "sampled" else None
    )
    lines = [
        f"mode:                 {report.mode}",
        f"capacity:             {report.value!r}",
        f"bounds:               [{report.lower!r}, {report.upper!r}]",
        f"covered probability:  {report.covered_probability!r}",
        f"full-state capacity:  {report.full_state_capacity!r}",
        f"states evaluated:     {report.states_evaluated}",
    ]
    if report.stderr is not None:
        lines.append(f"stderr:               {report.stderr!r}")
    lines.append(f"topology digest:      {manifest.topology_digest}")
    _emit({"manifest": manifest.as_dict(), "report": report.as_dict()}, "\n".join(lines), args.out)
    return 0


def cmd_snapshot(args) -> int:
    t, g = _directed_state(args)
    params = {"topology": args.topology, "state": args.state, "solver": args.solver}
    manifest = _manifest("snapshot", t, params)
    lines = []
    doc: dict = {"manifest": manifest.as_dict()}
    if args.solver in ("bnb", "both"):
        solution = solve_snapshot(g)
        lines.append(f"objective:            {solution.objective!r}")
        lines.append(f"paths ({len(solution.paths)}):")
        for p in solution.paths:
            lines.append(f"  {' -> '.join(p.nodes)}   delivers {p.delivered!r}")
        lines.append("assignment flows:")
        for (u, v), f in sorted(solution.assignment.flows.items()):
            lines.append(f"  {u} -> {v}: {f!r}")
        lines.append("assignment matchings:")
        for (i, j, k), x in sorted(solution.assignment.matchings.items()):
            lines.append(f"  ({i}, {j}, {k}) = {x}")
        lines.append(
            f"search nodes:         {solution.stats.nodes_explored}"
            f"   wall time: {solution.stats.wall_time_s:.6f} s"
        )
        doc["solution"] = {
            "objective": solution.objective,
            "paths": [
                {"nodes": list(p.nodes), "delivered": p.delivered} for p in solution.paths
            ],
            "assignment": solution.assignment.to_document(),
            # no wall time: the report reproduces apart from its timestamp
            "stats": {"nodes_explored": solution.stats.nodes_explored},
        }
    if args.solver in ("oracle", "both"):
        try:
            brute = brute_force_capacity(g, max_edges=args.oracle_cap)
        except SizeGuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines.append(f"brute-force value:    {brute!r}")
        doc["oracle_objective"] = brute
        if args.solver == "both":
            if abs(brute - solution.objective) > 1e-9:
                print(
                    f"error: solver/oracle mismatch: {solution.objective!r} vs {brute!r}",
                    file=sys.stderr,
                )
                return 1
            lines.append("solver and brute force agree within 1e-9")
    _emit(doc, "\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    t, g = _directed_state(args)
    if args.assignment in datasets.FIXTURE_ASSIGNMENTS:
        assignment = datasets.load_fixture_assignment(args.assignment)
    else:
        assignment = load_assignment(args.assignment)
    if args.constraints:
        active = tuple(tag.strip().upper() for tag in args.constraints.split(","))
    else:
        active = ALL_CONSTRAINTS
    report = check_assignment(g, assignment, active)
    manifest = _manifest(
        "verify",
        t,
        {"topology": args.topology, "assignment": args.assignment, "constraints": list(active)},
    )
    lines = []
    violated = {v.constraint for v in report.violations}
    for tag in active:
        lines.append(f"{tag}: {'FAIL' if tag in violated else 'PASS'}")
    for v in report.violations:
        lines.append(f"  {v.constraint} at {v.location}: residual {v.residual!r}")
    lines.append(f"objective: {report.objective!r}")
    lines.append("result: " + ("FEASIBLE" if report.feasible else "INFEASIBLE"))
    _emit(
        {
            "manifest": manifest.as_dict(),
            "feasible": report.feasible,
            "objective": report.objective,
            "violations": [
                {"constraint": v.constraint, "location": list(v.location) if isinstance(v.location, tuple) else v.location, "residual": v.residual}
                for v in report.violations
            ],
        },
        "\n".join(lines),
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    t = _resolve_topology(args.topology)
    cfg = montecarlo.SimConfig(samples=args.samples, seed=args.seed)
    result = montecarlo.simulate_local_knowledge(
        t, cfg, threads=args.threads, per_trial=args.per_trial
    )
    manifest = _manifest(
        "simulate",
        t,
        {"topology": args.topology, "samples": args.samples, "threads": args.threads},
        seed=args.seed,
    )
    text = (
        f"mean delivered:  {result.mean!r}\n"
        f"stderr:          {result.stderr!r}\n"
        f"samples:         {result.samples}"
    )
    _emit(
        {
            "manifest": manifest.as_dict(),
            "result": {
                "mean": result.mean,
                "stderr": result.stderr,
                "samples": result.samples,
            },
        },
        text,
        args.out,
    )
    return 0


def cmd_datasets(args) -> int:
    if args.action == "list":
        print("datasets:")
        for name in datasets.DATASETS:
            print(f"  {name}")
        print("fixtures:")
        for name in datasets.FIXTURE_TOPOLOGIES + datasets.FIXTURE_ASSIGNMENTS:
            print(f"  {name}")
        return 0
    try:
        text = datasets.dataset_text(args.name)
    except datasets.UnknownDatasetError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"dataset written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetcap",
        description="Entanglement capacity calculator for quantum repeater networks",
    )
    parser.add_argument("--version", action="version", version=f"qnetcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology(p):
        p.add_argument("--topology", required=True, help="bundled dataset name or YAML path")

    p = sub.add_parser("capacity", help="compute network capacity")
    add_topology(p)
    p.add_argument("--mode", choices=("exact", "truncated", "sampled"), default="exact")
    p.add_argument("--top-k", type=int, default=None, help="state budget (truncated mode)")
    p.add_argument("--samples", type=int, default=None, help="sample count (sampled mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=0, help="worker processes (0 = auto)")
    p.add_argument("--budget", type=int, default=capacity_mod.EXACT_STATE_BUDGET,
                   help="max state-space size for exact mode")
    p.add_argument("--out", default=None, help="write YAML report to this path")
    p.add_argument("--per-state", default=None, help="write per-state CSV to this path")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("snapshot", help="solve a single network state")
    add_topology(p)
    p.add_argument("--state", default="full",
                   help="'full', 'empty', or 'link=count,...' (bare link means 1)")
    p.add_argument("--solver", choices=("bnb", "oracle", "both"), default="bnb")
    p.add_argument("--oracle-cap", type=int, default=40,
                   help="brute-force size guard (realized links)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("verify", help="check an assignment against constraints")
    add_topology(p)
    p.add_argument("--state", default="full")
    p.add_argument("--assignment", required=True,
                   help="assignment YAML path or bundled fixture name")
    p.add_argument("--constraints", default=None,
                   help="comma-separated subset of bounds,c6,c7,c8,c9 (default all)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="local-knowledge greedy baseline")
    add_topology(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--per-trial", default=None, help="write per-trial CSV to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("datasets", help="list or export bundled datasets")
    dsub = p.add_subparsers(dest="action", required=True)
    dlist = dsub.add_parser("list")
    dlist.set_defaults(func=cmd_datasets, action="list")
    dexp = dsub.add_parser("export")
    dexp.add_argument("name")
    dexp.add_argument("--out", default=None)
    dexp.set_defaults(func=cmd_datasets, action="export")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TopologyError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

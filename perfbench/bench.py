"""Workloads, measurement and tracing of the qnetcap benchmark.

A run builds its inputs from the seed, loads them through qnetcap, repeats
whole rounds of the workload's operations for the requested time, then
checks every output against `references`. All calls run in this process
with one worker (threads=1); the only pool is the two-worker exact run of
the traced exact-unit workload.

Inputs: each workload starts from bundled datasets, gives every node a
seeded random name (in the datasets' sort order), flips link orientations
and shuffles the order nodes and links are listed in. The program parses the
result as new YAML text; capacities are invariant under relabeling, so the
paper's figures still apply.

Operations (each is counted in `attempted`; a raised error or a wrong output
is counted in `failed`):
    setup        load_topology of each of the workload's networks
    exact        exact_capacity on the whole state space
    truncated    truncated_capacity with a fixed state budget
    sampled      sampled_capacity with a fixed sample count
    simulate     simulate_local_knowledge with a fixed trial count
    certify      one state: to_unit_capacity, to_directed, solve_snapshot,
                 check_assignment

Times: the host's speed swings by up to 2x in spells of seconds, so every
op's wall time is scaled to a reference speed by a fixed speed probe timed
throughout the round (HostSpeed). The end-to-end metrics are these scaled
times; the per-layer ones are as measured.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np
import yaml

import references as ref
from qnetcap import (
    SimConfig,
    SnapshotState,
    check_assignment,
    exact_capacity,
    load_topology,
    sampled_capacity,
    simulate_local_knowledge,
    solve_snapshot,
    to_directed,
    to_unit_capacity,
    truncated_capacity,
)
from qnetcap.capacity import topology_packer
from qnetcap.datasets import dataset_text
from qnetcap.model import Topology

SETUP_EVERY = 50  # ops between two set-up ops in a round
BATCH = 8  # background ops run per timer tick
PROBE_STATES = 200  # certified states per pass on exact-unit and approx-mux
TOP_K = 5000
SAMPLES = 16384
TRIALS = 2048
SOLVER_SAMPLE = 100  # states whose packer value is checked against the MILP
CERTIFY_DRAWS = {"five_node": 300, "abilene": 300, "nsfnet": 300, "surfnet": 300}
MUX_DRAWS = 4  # abilene_mux2 draws in the certify corpus; fixed, see README
MUX_DRAW_SEED = 0
SYSTEMATIC_MAX = 1 << 16
POOL = 16  # binomial draws per systematic draw from a state space over SYSTEMATIC_MAX
PROBE_REF_S = 0.0015  # the speed probe's time at the reference speed, see HostSpeed

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "snap_p50_ms": "ms",
    "snap_p90_ms": "ms",
}
PER_LAYER_UNITS = {
    "model.load_s": "s",
    "capacity.exact_s": "s",
    "capacity.loop_s": "s",
    "capacity.exact_2w_s": "s",
    "capacity.truncated_s": "s",
    "capacity.sampled_s": "s",
    "capacity.distinct_states": "count",
    "montecarlo.simulate_s": "s",
    "snapshot.transform_s": "s",
    "solver.value_s": "s",
    "solver.direct_value_s": "s",
    "solver.solve_unit_s": "s",
    "solver.solve_mux_s": "s",
    "solver.search_nodes": "count",
    "solver.cut_states": "count",
    "solver.memo_entries": "count",
    "flowcheck.check_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.probe_ms": "ms",
}


def probe_kernel() -> int:
    """Fixed pure-Python work, about 1.5 ms, that uses nothing of qnetcap, so
    that no change to the program moves its time; only the host's speed
    does: a memoised walk over a fixed graph, made of the calls, tuple keys
    and dict lookups the solver's search is made of."""
    adj = {i: ((i * 7 + 1) % 97, (i * 7 + 3) % 97, (i * 7 + 5) % 97) for i in range(97)}
    memo: dict = {}

    def walk(n: int, depth: int) -> int:
        key = (n, depth)
        if key in memo:
            return memo[key]
        total = 1
        if depth:
            for m in adj[n]:
                total += walk(m, depth - 1)
        memo[key] = total & 0xFFFF
        return memo[key]

    return sum(walk(n, 12) for n in range(0, 97, 12))


class HostSpeed:
    """The speed probe's time through a round, for scaling op times to the
    reference speed.

    The host's speed swings by up to 2x in spells of seconds (README.md,
    Bounds), and an op's wall time follows it. The round probes on every
    timer tick; an op's time is then scaled by PROBE_REF_S over the probe's
    time while it ran, i.e. reported in seconds at the reference speed.
    """

    def __init__(self):
        self.at: list[float] = []  # probe midpoints
        self.secs: list[float] = []

    def probe(self) -> float:
        started = perf_counter()
        probe_kernel()
        elapsed = perf_counter() - started
        self.at.append(started + elapsed / 2)
        self.secs.append(elapsed)
        return elapsed

    def scaler(self) -> Callable[[float, float], float]:
        """factor(start, end): PROBE_REF_S over the probe's time in [start,
        end], or at the probe nearest to it when none ran inside. Each probe
        time is first the median of it and its four neighbours, so that one
        probe slowed by a collection or an interrupt does not count; over a
        long op the speed is averaged over its probes, which are evenly
        spaced in time."""
        n = len(self.secs)
        smooth = [statistics.median(self.secs[max(0, i - 2) : i + 3]) for i in range(n)]

        def factor(start: float, end: float) -> float:
            lo, hi = bisect_right(self.at, start), bisect_left(self.at, end)
            if hi > lo:
                return math.fsum(PROBE_REF_S / s for s in smooth[lo:hi]) / (hi - lo)
            mid = (start + end) / 2
            near = min((i for i in (lo - 1, lo) if 0 <= i < n), key=lambda i: abs(self.at[i] - mid))
            return PROBE_REF_S / smooth[near]

        return factor


class Tracer:
    """Spans (id, name, start, end, parent) kept in memory until the run ends.

    A disabled tracer records nothing; the timed runs use one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_total(self, name: str) -> float:
        """Summed duration of the spans called `name`, less their children."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return math.fsum(
            s["end"] - s["start"] - child.get(s["id"], 0.0) for s in self.spans if s["name"] == name
        )


@dataclass
class Network:
    """A generated network: the document the references read, the YAML text
    the program loads, and the topology it loaded."""

    name: str
    doc: dict
    text: str
    order: tuple[str, ...]  # link keys in the dataset's own link order
    topo: Optional[Topology] = None

    @property
    def multiplexed(self) -> bool:
        return any(int(l.get("c", 1)) > 1 for l in self.doc["links"])

    def full_counts(self) -> dict[str, int]:
        return {ref.link_key(l["u"], l["v"]): int(l.get("c", 1)) for l in self.doc["links"]}

    def draw_counts(self, rng: np.random.Generator) -> dict[str, int]:
        """One state drawn by each link's binomial, in the dataset's link
        order, so that the same generator state draws the same state
        whatever the seeded shuffle of the links."""
        links = {ref.link_key(l["u"], l["v"]): l for l in self.doc["links"]}
        return {k: int(rng.binomial(int(links[k].get("c", 1)), float(links[k]["p"]))) for k in self.order}

    def draw_many(self, n: int, rng: np.random.Generator) -> list[dict[str, int]]:
        """n states from the state distribution.

        A state space of at most SYSTEMATIC_MAX states is listed and sampled
        systematically: states ordered by total pair count, n evenly spaced
        points of the cumulative probability after a seeded offset. Each
        draw still follows the state distribution, but the mix of sparse and
        rich states, which sets certification time, barely moves between
        seeds. A larger space is sampled the same way from a pool of
        POOL * n binomial draws in place of the listed states.
        """
        if self.num_states() > SYSTEMATIC_MAX:
            pool = sorted((self.draw_counts(rng) for _ in range(POOL * n)), key=lambda c: sum(c.values()))
            offset = rng.random()
            return [pool[int((offset + i) * POOL)] for i in range(n)]
        caps = [int(l.get("c", 1)) for l in self.doc["links"]]
        totals = np.zeros(1, dtype=np.int64)
        for c in caps:
            totals = np.add.outer(totals, np.arange(c + 1)).ravel()
        order = np.argsort(totals, kind="stable")
        cdf = np.cumsum(ref.state_probabilities(self.doc)[order])
        points = (rng.random() + np.arange(n)) / n * cdf[-1]
        picks = order[np.minimum(np.searchsorted(cdf, points, side="right"), len(cdf) - 1)]
        draws = []
        for index in picks.tolist():
            counts = {}
            for l, c in zip(reversed(self.doc["links"]), reversed(caps)):
                index, counts[ref.link_key(l["u"], l["v"])] = divmod(index, c + 1)
            draws.append(counts)
        return draws

    def vector(self, counts: dict[str, int]) -> tuple[int, ...]:
        return SnapshotState.from_counts(self.topo, counts).vector

    def num_states(self) -> int:
        return math.prod(int(l.get("c", 1)) + 1 for l in self.doc["links"])


def generate_network(name: str, rnd: random.Random) -> Network:
    """Bundled dataset `name` under a seeded relabeling and reordering."""
    doc = yaml.safe_load(dataset_text(name))
    # random labels, assigned in sorted order: node indices and link order,
    # which set the solver's branch order, stay those of the dataset
    ids = sorted(str(n["id"]) for n in doc["nodes"])
    label = dict(zip(ids, (f"n{x}" for x in sorted(rnd.sample(range(100, 1000), len(ids))))))
    nodes = [dict(n, id=label[str(n["id"])]) for n in doc["nodes"]]
    links = []
    for l in doc["links"]:
        u, v = label[str(l["u"])], label[str(l["v"])]
        if rnd.random() < 0.5:
            u, v = v, u
        links.append(dict(l, u=u, v=v))
    order = tuple(ref.link_key(l["u"], l["v"]) for l in links)
    rnd.shuffle(nodes)
    rnd.shuffle(links)
    out = {
        "nodes": nodes,
        "links": links,
        "endpoints": {k: label[str(v)] for k, v in doc["endpoints"].items()},
        "constants": doc.get("constants") or {},
    }
    return Network(name, out, yaml.safe_dump(out, sort_keys=False), order)


@dataclass
class Op:
    """One operation of a round: `run(tracer)` returns the output that
    `check(output, refs)` judges once the references exist."""

    kind: str
    run: Callable
    check: Callable
    states: int  # network states the operation evaluates


@dataclass(slots=True)
class Certified:
    objective: float
    feasible: bool
    path_sum: float
    checked_objective: float
    search_nodes: int


def certify_op(net: Network, counts: dict[str, int], key: int) -> Op:
    kind = "mux" if net.multiplexed else "unit"

    def run(tracer: Tracer) -> Certified:
        state = SnapshotState.from_counts(net.topo, counts)
        with tracer.span("snapshot.transform"):
            unit_net, unit_state = to_unit_capacity(net.topo, state)
            g = to_directed(unit_net, unit_state)
        with tracer.span(f"solver.solve_{kind}"):
            solution = solve_snapshot(g)
        with tracer.span("flowcheck.check"):
            report = check_assignment(g, solution.assignment)
        return Certified(
            solution.objective,
            report.feasible,
            math.fsum(p.delivered for p in solution.paths),
            report.objective,
            solution.stats.nodes_explored,
        )

    def check(out: Certified, refs: dict) -> bool:
        optimum = refs["optimum"][key]
        return (
            out.feasible
            and ref.close(out.objective, optimum)
            and ref.close(out.path_sum, out.objective)
            and ref.close(out.checked_objective, out.objective)
        )

    return Op("certify", run, check, 1)


class Workload:
    """Networks, operations, references and traced layer passes of one workload."""

    names: tuple[str, ...] = ()
    interval = 0.0  # seconds between two batches of background ops, if any

    def __init__(self, seed: int):
        self.seed = seed
        rnd = random.Random(seed)
        self.networks = {name: generate_network(name, rnd) for name in self.names}
        self.rng = np.random.default_rng(seed)
        self.corpus: list[tuple[Network, dict[str, int]]] = []

    def setup_op(self) -> Op:
        """Loads every network through qnetcap; the ops that follow use it."""
        nets = list(self.networks.values())

        def run(tracer: Tracer) -> list:
            for net in nets:
                with tracer.span("model.load"):
                    net.topo = load_topology(net.text)
            return [(len(n.topo.nodes), len(n.topo.links), n.topo.source, n.topo.sink) for n in nets]

        def check(out: list, refs: dict) -> bool:
            docs = [n.doc for n in nets]
            return out == [
                (len(d["nodes"]), len(d["links"]), d["endpoints"]["source"], d["endpoints"]["sink"])
                for d in docs
            ]

        return Op("setup", run, check, 0)

    def certify_ops(self) -> list[Op]:
        return [certify_op(net, counts, i) for i, (net, counts) in enumerate(self.corpus)]

    def operations(self, setup: Op) -> tuple[list[Op], list[Op]]:
        """A round's foreground and background ops (see run_round)."""
        raise NotImplementedError

    def references(self) -> dict:
        """Per-state optima of the corpus, from the integer program."""
        return {"optimum": [ref.path_packing_optimum(net.doc, c) for net, c in self.corpus]}

    def run_checks(self, refs: dict) -> list[str]:
        """Checks that belong to no single operation; returns the failures."""
        return []

    def layer_passes(self, tracer: Tracer, counters: dict, outputs: list) -> None:
        """Traced-only passes that split the workload's time by layer;
        `outputs` are the traced round's (op, output) pairs."""
        direct_s = 0.0
        for net, counts in self.corpus:
            vec = net.vector(counts)
            with tracer.span("solver.direct_value"):
                started = perf_counter()
                topology_packer(net.topo).value(vec)
                direct_s += perf_counter() - started
        counters["solver.direct_value_s"] = direct_s

    def trace_checks(self, counters: dict, outputs: list) -> list[str]:
        """Checks of the traced-only passes; returns the failures."""
        return []

    def solver_sample_failures(self, net: Network, draws: int) -> list[str]:
        """Packer value against the integer program on the full state and
        `draws` binomial draws of `net`."""
        rng = np.random.default_rng([self.seed, 1])
        states = [net.full_counts()] + [net.draw_counts(rng) for _ in range(draws)]
        packer = topology_packer(net.topo)
        failures = []
        for counts in states:
            got = packer.value(net.vector(counts))
            want = ref.path_packing_optimum(net.doc, counts)
            if not ref.close(got, want):
                failures.append(f"{net.name} packer {got!r} != optimum {want!r} at {counts}")
        return failures


class ExactUnit(Workload):
    """exact_capacity on NSFNet (2,097,152 unit-capacity states)."""

    names = ("nsfnet",)
    interval = 0.2  # 102 batches of background ops spread over a 20-25 s exact run

    def __init__(self, seed: int):
        super().__init__(seed)
        net = self.networks["nsfnet"]
        self.corpus = [(net, net.full_counts())]
        self.corpus += [(net, c) for c in net.draw_many(PROBE_STATES - 1, self.rng)]

    def operations(self, setup: Op) -> tuple[list[Op], list[Op]]:
        net = self.networks["nsfnet"]
        n = net.num_states()

        def run(tracer: Tracer):
            with tracer.span("capacity.exact"):
                return exact_capacity(net.topo, threads=1)

        def check(r, refs) -> bool:
            return (
                ref.within(r.value, ref.PAPER_NSFNET)
                and r.lower == r.value == r.upper
                and abs(r.covered_probability - 1.0) <= 1e-12
                and r.states_evaluated == n
                and ref.close(r.full_state_capacity, refs["full"])
            )

        return [Op("exact", run, check, n)], with_setup(self.certify_ops() * 4, setup)

    def references(self) -> dict:
        refs = super().references()
        refs["full"] = refs["optimum"][0]
        return refs

    def run_checks(self, refs: dict) -> list[str]:
        return self.solver_sample_failures(self.networks["nsfnet"], SOLVER_SAMPLE)

    def layer_passes(self, tracer: Tracer, counters: dict, outputs: list) -> None:
        super().layer_passes(tracer, counters, outputs)
        t = self.networks["nsfnet"].topo
        packer = topology_packer(t)
        bases = [c + 1 for c in t.capacities]
        n = math.prod(bases)
        pmfs = [ref.binomial_pmf(p, c) for p, c in zip(t.probabilities, t.capacities)]
        value_s, cut, partial = 0.0, 0, []
        for start in range(0, n, 1 << 14):
            index = np.arange(start, min(start + (1 << 14), n))
            digits = []
            for base in reversed(bases):
                digits.append(index % base)
                index = index // base
            block = np.stack(digits[::-1], axis=1)
            vectors = block.tolist()
            with tracer.span("solver.value"):
                started = perf_counter()
                values = [packer.value(v) for v in vectors]
                value_s += perf_counter() - started
            cut += values.count(0.0)
            prob = np.ones(len(vectors))
            for l, pmf in enumerate(pmfs):
                prob *= pmf[block[:, l]]
            partial.append(math.fsum((prob * np.asarray(values)).tolist()))
        counters["solver.value_s"] = value_s
        counters["solver.search_nodes"] = packer.nodes_explored
        counters["solver.cut_states"] = cut
        counters["solver.memo_entries"] = len(packer.memo)
        counters["sweep_value"] = math.fsum(partial)
        with tracer.span("capacity.exact_2w"):
            started = perf_counter()
            counters["exact_2w_value"] = exact_capacity(t, threads=2).value
            counters["capacity.exact_2w_s"] = perf_counter() - started

    def trace_checks(self, counters: dict, outputs: list) -> list[str]:
        exact = next(out for op, out in outputs if op.kind == "exact")
        if exact is None:
            return ["exact_capacity raised in the traced round"]
        failures = []
        if not ref.close(counters["sweep_value"], exact.value, 1e-12):
            failures.append(f"state sweep sums to {counters['sweep_value']!r}, exact gave {exact.value!r}")
        if counters["exact_2w_value"] != exact.value:
            failures.append("two-worker exact value differs from the one-worker value")
        return failures


class ApproxMux(Workload):
    """Truncated, sampled and simulated capacity of Abilene with two pairs
    per link (4,782,969 states, over the default exact budget)."""

    names = ("abilene_mux2", "abilene")
    interval = 0.16  # 26 batches of background ops spread over a 4-5 s round

    def __init__(self, seed: int):
        super().__init__(seed)
        unit = self.networks["abilene"]
        self.corpus = [(unit, unit.full_counts())]
        self.corpus += [(unit, c) for c in unit.draw_many(PROBE_STATES - 1, self.rng)]

    def operations(self, setup: Op) -> tuple[list[Op], list[Op]]:
        mux = self.networks["abilene_mux2"]
        seed = self.seed

        def truncated(tracer):
            with tracer.span("capacity.truncated"):
                return truncated_capacity(mux.topo, TOP_K)

        def check_truncated(r, refs) -> bool:
            centre, tol = ref.PAPER_ABILENE_MUX2
            return (
                r.lower <= centre + tol
                and r.upper >= centre - tol
                and r.lower <= r.value <= r.upper
                and ref.close(r.covered_probability, refs["top_k_mass"], 1e-12)
                and r.states_evaluated == TOP_K
                and ref.close(r.full_state_capacity, refs["full"])
            )

        def sampled(tracer):
            with tracer.span("capacity.sampled"):
                return sampled_capacity(mux.topo, SAMPLES, seed=seed, threads=1)

        def check_sampled(r, refs) -> bool:
            centre, tol = ref.PAPER_ABILENE_MUX2
            return (
                0.0 < r.stderr
                and abs(r.value - centre) <= 5.0 * r.stderr + tol
                and r.states_evaluated == SAMPLES
                and ref.close(r.full_state_capacity, refs["full"])
            )

        def simulate(tracer):
            with tracer.span("montecarlo.simulate"):
                return simulate_local_knowledge(mux.topo, SimConfig(TRIALS, seed), threads=1)

        def check_simulate(r, refs) -> bool:
            # greedy routing never beats the optimum
            centre, tol = ref.PAPER_ABILENE_MUX2
            return r.samples == TRIALS and 0.0 <= r.mean <= centre + tol + 5.0 * r.stderr

        return [
            Op("truncated", truncated, check_truncated, TOP_K),
            Op("sampled", sampled, check_sampled, SAMPLES),
            Op("simulate", simulate, check_simulate, TRIALS),
        ], with_setup(self.certify_ops(), setup)

    def references(self) -> dict:
        refs = super().references()
        mux = self.networks["abilene_mux2"]
        refs["full"] = ref.path_packing_optimum(mux.doc, mux.full_counts())
        refs["top_k_mass"] = ref.top_k_mass(ref.state_probabilities(mux.doc), TOP_K)
        return refs

    def run_checks(self, refs: dict) -> list[str]:
        return self.solver_sample_failures(self.networks["abilene_mux2"], SOLVER_SAMPLE)

    def layer_passes(self, tracer: Tracer, counters: dict, outputs: list) -> None:
        super().layer_passes(tracer, counters, outputs)
        t = self.networks["abilene_mux2"].topo
        rows = io.StringIO()
        with tracer.span("capacity.sampled_export"):
            sampled_capacity(t, SAMPLES, seed=self.seed, threads=1, per_state=rows)
        rows.seek(0)
        next(rows)  # header
        distinct = list(dict.fromkeys(line.split(",")[1] for line in rows))
        vectors = [[int(k) for k in row.split(";")] for row in distinct]
        packer = topology_packer(t)
        with tracer.span("solver.value"):
            started = perf_counter()
            values = [packer.value(v) for v in vectors]
            counters["solver.value_s"] = perf_counter() - started
        counters["capacity.distinct_states"] = len(vectors)
        counters["solver.search_nodes"] = packer.nodes_explored
        counters["solver.cut_states"] = values.count(0.0)
        counters["solver.memo_entries"] = len(packer.memo)


class Certify(Workload):
    """Certification of a seeded corpus of states of every bundled dataset."""

    names = ("five_node", "abilene", "abilene_mux2", "nsfnet", "surfnet")
    interval = 0.035  # 308 batches of quick states spread over the slow ones

    def __init__(self, seed: int):
        super().__init__(seed)
        mux_rng = np.random.default_rng(MUX_DRAW_SEED)
        for name, net in self.networks.items():
            self.corpus.append((net, net.full_counts()))
            if name == "abilene_mux2":
                self.corpus += [(net, net.draw_counts(mux_rng)) for _ in range(MUX_DRAWS)]
            else:
                self.corpus += [(net, c) for c in net.draw_many(CERTIFY_DRAWS[name], self.rng)]

    def operations(self, setup: Op) -> tuple[list[Op], list[Op]]:
        # the slow abilene_mux2 states in the foreground; two passes over
        # the quick states in the background, so each is timed twice per
        # round, at different moments
        ops = self.certify_ops()
        quick = [op for (net, _), op in zip(self.corpus, ops) if net.name != "abilene_mux2"]
        slow = [op for (net, _), op in zip(self.corpus, ops) if net.name == "abilene_mux2"]
        return slow, with_setup(quick * 2, setup)

    def layer_passes(self, tracer: Tracer, counters: dict, outputs: list) -> None:
        super().layer_passes(tracer, counters, outputs)
        packers = {name: topology_packer(net.topo) for name, net in self.networks.items()}
        value_s = 0.0
        for net, counts in self.corpus:
            vec = net.vector(counts)
            with tracer.span("solver.value"):
                started = perf_counter()
                packers[net.name].value(vec)
                value_s += perf_counter() - started
        counters["solver.value_s"] = value_s
        counters["solver.memo_entries"] = sum(len(p.memo) for p in packers.values())
        distinct = {id(op): out for op, out in outputs if op.kind == "certify"}
        certified = [out for out in distinct.values() if out is not None]
        counters["solver.search_nodes"] = sum(c.search_nodes for c in certified)
        counters["solver.cut_states"] = sum(1 for c in certified if c.objective == 0.0)


WORKLOADS = {"exact-unit": ExactUnit, "approx-mux": ApproxMux, "certify": Certify}


@dataclass
class Round:
    wall_s: float
    records: list  # (key, op, output or None when the op raised, seconds, reference seconds)
    probe_s: float  # median probe time in the round

    def outputs(self) -> list:
        return [(op, out) for _, op, out, *_ in self.records]


def run_round(fg: list[Op], bg: list[Op], interval: float, tracer: Tracer) -> Round:
    """Runs the `fg` ops in order. Meanwhile a real-time timer, every
    `interval` seconds, times the speed probe and runs the next BATCH of the
    short `bg` ops, so that those are timed throughout the round and not at
    one moment of it; any still pending when `fg` is done run right after,
    each batch after a probe. Batches let most bg ops start with warm caches.
    A bg op's or probe's time is left out of the time of the fg op it
    interrupted. Records are keyed by list and position, and carry each op's
    time both as measured and scaled to the reference speed (HostSpeed)."""
    timed: list = []  # (key, op, out, seconds, start, end)
    pending = deque(enumerate(bg))
    speed = HostSpeed()
    bg_total = 0.0
    busy = False

    def run_one(key: tuple, op: Op) -> float:
        started, before = perf_counter(), bg_total
        try:
            out = op.run(tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"{op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        ended = perf_counter()
        t = ended - started - (bg_total - before)
        timed.append((key, op, out, t, started, ended))
        return t

    def run_batch() -> float:
        total = speed.probe()
        for _ in range(min(BATCH, len(pending))):
            j, op = pending.popleft()
            total += run_one(("bg", j), op)
        return total

    def tick(signum, frame) -> None:
        nonlocal bg_total, busy
        if busy:
            return
        busy = True
        bg_total += run_batch()
        busy = False

    started = perf_counter()
    speed.probe()
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        for i, op in enumerate(fg):
            run_one(("fg", i), op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    while pending:
        run_batch()
    speed.probe()
    wall_s = perf_counter() - started
    factor = speed.scaler()
    records = [(key, op, out, t, t * factor(a, b)) for key, op, out, t, a, b in timed]
    return Round(wall_s, records, statistics.median(speed.secs))


def count_failures(rounds: list[Round], refs: dict) -> tuple[int, int]:
    attempted = failed = 0
    for r in rounds:
        for _, op, out, *_ in r.records:
            attempted += 1
            if out is None or not op.check(out, refs):
                failed += 1
    return attempted, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def with_setup(ops: list[Op], setup: Op) -> list[Op]:
    """`ops` with a set-up op first and after every SETUP_EVERY ops, so that
    set-up is timed many times and, like the other ops, across the run."""
    out = []
    for i, op in enumerate(ops):
        if i % SETUP_EVERY == 0:
            out.append(setup)
        out.append(op)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    w = WORKLOADS[workload](seed)
    tracer = Tracer(trace)
    setup = w.setup_op()
    fg, bg = w.operations(setup)
    setup.run(Tracer(False))  # the ops need loaded networks from the start
    rounds: list[Round] = []
    peak_rss_mb = 0.0
    started = perf_counter()
    while not rounds or perf_counter() - started < seconds:
        if trace:  # untraced and traced rounds alternate, for the overhead
            rounds.append(run_round(fg, bg, w.interval, Tracer(False)))
            with tracer.span("round"):
                rounds.append(run_round(fg, bg, w.interval, tracer))
        else:
            rounds.append(run_round(fg, bg, w.interval, tracer))
        if not peak_rss_mb:  # one round's peak, whatever the number of rounds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = w.references()
    attempted, failed = count_failures(rounds, refs)
    problems = w.run_checks(refs)
    # medians over the rounds, per op position and per op: a slow spell of
    # the host in one round moves neither the round time nor the percentiles.
    # The end-to-end times are at the reference speed; the per-layer ones,
    # like the spans they sit beside, as measured (host.probe_ms gives the
    # speed they were measured at)
    by_key: dict = {}
    by_op: dict = {}
    for r in rounds:
        for key, op, _, measured, at_ref in r.records:
            t = measured if trace else at_ref
            by_key.setdefault(key, (op, []))[1].append(t)
            by_op.setdefault(id(op), (op, []))[1].append(t)
    setup_s = statistics.median(by_op[id(setup)][1])
    if trace:
        counters: dict = {}
        traced = rounds[1::2]
        w.layer_passes(tracer, counters, traced[-1].outputs())
        problems += w.trace_checks(counters, traced[-1].outputs())
        # round times at the reference speed, so that the host's swings
        # between the two kinds of round do not pass for tracing cost
        at_ref = [math.fsum(rec[4] for rec in r.records) for r in rounds]
        overhead = statistics.median(at_ref[1::2]) / statistics.median(at_ref[0::2])
        counters["host.probe_ms"] = statistics.median(r.probe_s for r in traced) * 1e3
        metrics = layer_metrics(tracer, counters, setup_s, len(traced), overhead)
        write_trace(tracer, counters, os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
    else:
        wall = math.fsum(statistics.median(t) for op, t in by_key.values() if op is not setup)
        snaps = [statistics.median(t) * 1e3 for op, t in by_op.values() if op.kind == "certify"]
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "states_per_s": sum(op.states for op in fg + bg) / wall,
            "peak_rss_mb": peak_rss_mb,
            "snap_p50_ms": statistics.median(snaps),
            "snap_p90_ms": statistics.quantiles(snaps, n=10)[8],
        }
        metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
        print(f"{workload}: {len(rounds)} rounds of {[r.wall_s for r in rounds]} s, "
              f"probe {[r.probe_s * 1e3 for r in rounds]} ms", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer: Tracer, counters: dict, setup_s: float, rounds: int, overhead: float) -> dict:
    """Per-layer values: span times per traced round, counters of the passes."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER_UNITS.items()}
    values["model.load_s"] = setup_s
    for name in (
        "capacity.exact",
        "capacity.truncated",
        "capacity.sampled",
        "montecarlo.simulate",
        "snapshot.transform",
        "solver.solve_unit",
        "solver.solve_mux",
        "flowcheck.check",
    ):
        values[f"{name}_s"] = tracer.self_total(name) / rounds
    for name in PER_LAYER_UNITS:
        if name in counters:
            values[name] = counters[name]
    if values["capacity.exact_s"]:
        values["capacity.loop_s"] = values["capacity.exact_s"] - values["solver.value_s"]
    values["trace.overhead_ratio"] = overhead
    return {k: metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}


def write_trace(tracer: Tracer, counters: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": counters}, fh)

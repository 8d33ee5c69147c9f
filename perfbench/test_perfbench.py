"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import references as ref  # noqa: E402
from qnetcap import exact_capacity, truncated_capacity  # noqa: E402


class Small(bench.Workload):
    """Certification of a few states of five_node and abilene."""

    names = ("five_node", "abilene")

    def __init__(self, seed: int):
        super().__init__(seed)
        for net in self.networks.values():
            self.corpus.append((net, net.full_counts()))
            self.corpus += [(net, c) for c in net.draw_many(15, self.rng)]

    def operations(self, setup):
        return bench.with_setup(self.certify_ops(), setup), []


@pytest.fixture(scope="module")
def small():
    w = Small(3)
    w.setup_op().run(bench.Tracer(False))
    return w, w.references()


def test_relabeled_networks_keep_their_capacity(small):
    w, _ = small
    five = w.networks["five_node"]
    assert exact_capacity(five.topo, threads=1).value == pytest.approx(1.2121, abs=5e-5)
    assert five.topo.source not in ("0", "4")


def test_integer_program_matches_packer(small):
    w, _ = small
    for name in w.names:
        assert w.solver_sample_failures(w.networks[name], 15) == []


def test_top_k_mass_matches_truncated_mode(small):
    w, _ = small
    for name, k in (("five_node", 64), ("abilene", 300)):
        net = w.networks[name]
        probs = ref.state_probabilities(net.doc)
        assert probs.size == net.num_states()
        assert np.isclose(probs.sum(), 1.0, rtol=0, atol=1e-12)
        report = truncated_capacity(net.topo, k)
        assert ref.close(report.covered_probability, ref.top_k_mass(probs, k), 1e-12)


@pytest.mark.parametrize("name, states, tol", [("five_node", 5760, 0.01), ("nsfnet", 1 << 21, 0.03)])
def test_systematic_draws_follow_the_state_distribution(name, states, tol):
    net = bench.generate_network(name, random.Random(0))
    draws = net.draw_many(2000, np.random.default_rng(0))
    totals = [sum(c.values()) for c in draws]
    mean_pairs = sum(float(l["p"]) * int(l.get("c", 1)) for l in net.doc["links"])
    assert len(draws) == 2000 and net.num_states() == states
    assert abs(np.mean(totals) - mean_pairs) < tol


def test_fixed_draws_do_not_follow_the_link_shuffle():
    nets = [bench.generate_network("abilene_mux2", random.Random(seed)) for seed in (1, 2)]
    assert [l["u"] for l in nets[0].doc["links"]] != [l["u"] for l in nets[1].doc["links"]]
    draws = [net.draw_counts(np.random.default_rng(0)) for net in nets]
    assert [draws[0][k] for k in nets[0].order] == [draws[1][k] for k in nets[1].order]


def test_certified_outputs_pass_their_checks(small):
    w, refs = small
    fg, bg = w.operations(w.setup_op())
    r = bench.run_round(fg, bg, 0.0, bench.Tracer(False))
    assert bench.count_failures([r], refs) == (len(fg), 0)


def test_background_ops_run_once_each_during_the_foreground(small):
    w, refs = small
    ops = w.certify_ops()
    slow = bench.Op("slow", lambda t: sum(range(3_000_000)), lambda out, refs: True, 0)
    r = bench.run_round([slow], ops, 0.001, bench.Tracer(False))
    keys = [key for key, *_ in r.records]
    assert sorted(keys) == [("bg", j) for j in range(len(ops))] + [("fg", 0)]
    assert keys.index(("fg", 0)) > 0  # some background ops ran inside it
    assert bench.count_failures([r], refs) == (len(ops) + 1, 0)
    assert math.fsum(t for *_, t, _ in r.records) <= r.wall_s
    assert all(t > 0 and at_ref > 0 for *_, t, at_ref in r.records)


def test_wrong_or_raising_output_is_a_failed_operation(small):
    w, refs = small
    ops = w.certify_ops()
    good = ops[0].run
    ops[0] = dataclasses.replace(
        ops[0], run=lambda t: dataclasses.replace(good(t), objective=good(t).objective + 1e-6)
    )
    ops[1] = dataclasses.replace(ops[1], run=lambda t: 1 / 0)
    ops[2] = dataclasses.replace(ops[2], run=lambda t: dataclasses.replace(good(t), feasible=False))
    r = bench.run_round(ops[:3], ops[3:], 0.0005, bench.Tracer(False))
    assert bench.count_failures([r], refs) == (len(ops), 3)


def test_speed_scaling_follows_the_probes():
    speed = bench.HostSpeed()
    speed.at = [float(i) for i in range(10)]
    speed.secs = [bench.PROBE_REF_S] * 5 + [2 * bench.PROBE_REF_S] * 5
    factor = speed.scaler()
    assert factor(1.4, 1.45) == pytest.approx(1.0)  # nearest probe, at full speed
    assert factor(7.5, 7.6) == pytest.approx(0.5)  # in a spell at half speed
    assert factor(-1.0, 10.0) == pytest.approx(0.75)  # averaged over the probes inside
    speed.secs[7] = 10 * bench.PROBE_REF_S  # one slowed probe does not count
    assert speed.scaler()(6.9, 7.1) == pytest.approx(0.5)


def test_tracer_records_nested_spans_only_when_enabled():
    off, on = bench.Tracer(False), bench.Tracer(True)
    for t in (off, on):
        with t.span("outer"):
            with t.span("inner"):
                pass
    assert off.spans == []
    assert [(s["name"], s["parent"]) for s in on.spans] == [("outer", None), ("inner", 0)]
    assert on.self_total("outer") > 0 and on.self_total("inner") > 0
    outer, inner = on.spans
    assert on.self_total("outer") == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

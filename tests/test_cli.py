"""Command-line interface, report files, manifest reproducibility."""

import csv

import pytest
import yaml

from qnetcap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_exact_five_node(capsys):
    code, out, _ = run(capsys, "capacity", "--topology", "five_node", "--threads", "1")
    assert code == 0
    assert "1.2121" in out
    assert "mode:                 exact" in out


def test_capacity_exact_abilene(capsys):
    code, out, _ = run(capsys, "capacity", "--topology", "abilene", "--threads", "1")
    assert code == 0
    assert "0.8301" in out


def test_capacity_unknown_topology(capsys):
    code, _, err = run(capsys, "capacity", "--topology", "nonexistent")
    assert code == 1
    assert "neither a bundled dataset" in err


def test_capacity_topology_from_file(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(
        "nodes: [{id: s}, {id: t}]\n"
        "links: [{u: s, v: t, p: 0.3}]\n"
        "endpoints: {source: s, sink: t}\n"
    )
    code, out, _ = run(capsys, "capacity", "--topology", str(path), "--threads", "1")
    assert code == 0
    assert "capacity:             0.3" in out


def test_capacity_link_id_naming_two_links_is_an_error(tmp_path, capsys):
    # with '-' in node ids, links (a-b, t) and (a, b-t) are both "a-b-t"
    path = tmp_path / "net.yaml"
    path.write_text(
        "nodes: [{id: s}, {id: a, q: 0.5}, {id: a-b, q: 0.5}, {id: b-t, q: 0.5}, {id: t}]\n"
        "links: [{u: a-b, v: t, p: 0.3}, {u: a, v: b-t, p: 0.3}, {u: s, v: a, p: 0.3},\n"
        "        {u: s, v: a-b, p: 0.3}, {u: b-t, v: t, p: 0.3}]\n"
        "endpoints: {source: s, sink: t}\n"
    )
    code, out, err = run(capsys, "capacity", "--topology", str(path), "--threads", "1")
    assert code == 1 and out == ""
    assert err == (
        "error: links[3] (a-b-t): id 'a-b-t' names two links, ('a-b', 't') "
        "and links[0] ('a', 'b-t')\n"
    )


def test_capacity_malformed_topology_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text("nodes: 5\nlinks: [{u: s, v: t, p: 0.3}]\nendpoints: {source: s, sink: t}\n")
    code, out, err = run(capsys, "capacity", "--topology", str(path), "--threads", "1")
    assert code == 1
    assert out == ""
    assert err == "error: nodes: expected a list\n"


@pytest.mark.parametrize("text", ["flows: [", "flows: [1, 2]", "matchings: 3"])
def test_verify_malformed_assignment_file_is_an_error(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text + "\n")
    code, out, err = run(
        capsys, "verify", "--topology", "five_node", "--assignment", str(path)
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_capacity_truncated_needs_top_k(capsys):
    code, _, err = run(capsys, "capacity", "--topology", "five_node", "--mode", "truncated")
    assert code == 1
    assert "--top-k" in err


def test_capacity_truncated(capsys):
    code, out, _ = run(
        capsys, "capacity", "--topology", "five_node", "--mode", "truncated",
        "--top-k", "64",
    )
    assert code == 0
    assert "bounds:" in out


def test_capacity_budget_guard(capsys):
    code, _, err = run(
        capsys, "capacity", "--topology", "five_node", "--budget", "10"
    )
    assert code == 1
    assert "truncated_capacity or sampled_capacity" in err


def test_capacity_rejects_negative_thread_count(capsys):
    code, _, err = run(capsys, "capacity", "--topology", "five_node", "--threads", "-1")
    assert code == 1
    assert "thread count must be >= 0, got -1" in err


def reports_twice(tmp_path, capsys, *argv):
    """The texts of two --out reports of one command line, each checked
    to be the same bytes apart from the manifest timestamp line."""
    docs = []
    for name in ("a.yaml", "b.yaml"):
        path = tmp_path / name
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        docs.append(path.read_text())
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("  timestamp:")]
    assert strip(docs[0]) == strip(docs[1])
    return docs


def test_capacity_report_file_and_reproducibility(tmp_path, capsys):
    argv = ("capacity", "--topology", "five_node", "--threads", "1")
    for text in reports_twice(tmp_path, capsys, *argv):
        doc = yaml.safe_load(text)
        assert doc["report"]["value"] == pytest.approx(1.2121, abs=5e-4)
        assert doc["manifest"]["command"] == "capacity"
        assert doc["manifest"]["topology_digest"]


def test_snapshot_report_file_and_reproducibility(tmp_path, capsys):
    argv = ("snapshot", "--topology", "five_node", "--solver", "both")
    for text in reports_twice(tmp_path, capsys, *argv):
        doc = yaml.safe_load(text)
        assert doc["solution"]["objective"] == doc["oracle_objective"] == pytest.approx(3.415)
        assert doc["solution"]["stats"]["nodes_explored"] > 0
        assert doc["manifest"]["command"] == "snapshot"
    # the wall time stays in the text output
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "wall time:" in out


def test_verify_report_file_and_reproducibility(tmp_path, capsys):
    argv = ("verify", "--topology", "demo_c6", "--assignment", "demo_c6_bad")
    for text in reports_twice(tmp_path, capsys, *argv):
        doc = yaml.safe_load(text)
        assert doc["feasible"] is False
        assert {v["constraint"] for v in doc["violations"]} == {"C6"}
        assert doc["manifest"]["command"] == "verify"


def test_capacity_per_state_csv(tmp_path, capsys):
    target = tmp_path / "states.csv"
    code, _, _ = run(
        capsys, "capacity", "--topology", "five_node", "--threads", "1",
        "--per-state", str(target),
    )
    assert code == 0
    with open(target) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5760
    assert set(rows[0]) == {"state_index", "state_counts", "probability", "capacity"}


def test_capacity_per_state_does_not_change_the_report(tmp_path, capsys):
    argv = ("capacity", "--topology", "five_node", "--threads", "1")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, with_rows, _ = run(capsys, *argv, "--per-state", str(tmp_path / "states.csv"))
    assert code == 0
    assert with_rows == plain


def test_capacity_sampled(capsys):
    code, out, _ = run(
        capsys, "capacity", "--topology", "five_node", "--mode", "sampled",
        "--samples", "2000", "--seed", "3", "--threads", "1",
    )
    assert code == 0
    assert "stderr:" in out


def test_snapshot_both_solvers_agree(capsys):
    code, out, _ = run(
        capsys, "snapshot", "--topology", "five_node", "--solver", "both"
    )
    assert code == 0
    assert "3.415" in out
    assert "agree" in out


def test_snapshot_empty_state(capsys):
    code, out, _ = run(
        capsys, "snapshot", "--topology", "five_node", "--state", "empty"
    )
    assert code == 0
    assert "objective:            0" in out
    assert "paths (0):" in out


def test_snapshot_explicit_state(capsys):
    code, out, _ = run(
        capsys, "snapshot", "--topology", "five_node", "--state", "0-4=1,0-1"
    )
    assert code == 0
    assert "objective:            1" in out  # only the direct pair delivers


def test_snapshot_surfnet_full_matches_capacity_module(capsys):
    from qnetcap import datasets
    from qnetcap.capacity import full_state_capacity

    code, out, _ = run(capsys, "snapshot", "--topology", "surfnet")
    assert code == 0
    expected = full_state_capacity(datasets.load_dataset("surfnet"))
    objective = float(
        next(l for l in out.splitlines() if l.startswith("objective:")).split()[-1]
    )
    assert objective == pytest.approx(expected, abs=1e-9)


def test_snapshot_rejects_bad_link(capsys):
    code, _, err = run(
        capsys, "snapshot", "--topology", "five_node", "--state", "9-9=1"
    )
    assert code == 1
    assert "unknown link" in err


def test_snapshot_rejects_count_over_capacity(capsys):
    code, _, err = run(
        capsys, "snapshot", "--topology", "five_node", "--state", "0-4=2"
    )
    assert code == 1
    assert "outside" in err


def test_snapshot_rejects_negative_count(capsys):
    code, _, err = run(
        capsys, "snapshot", "--topology", "five_node", "--state", "0-4=-1"
    )
    assert code == 1
    assert "count -1 on link 0-4 is negative" in err
    assert "exceeds" not in err


def test_verify_demo_c6_partial_constraints(capsys):
    code, out, _ = run(
        capsys, "verify", "--topology", "demo_c6", "--assignment", "demo_c6_bad",
        "--constraints", "c7,c8,c9",
    )
    assert code == 0
    assert "C7: PASS" in out and "C8: PASS" in out and "C9: PASS" in out
    assert "FEASIBLE" in out.splitlines()[-1]


def test_verify_demo_c6_all_constraints(capsys):
    code, out, _ = run(
        capsys, "verify", "--topology", "demo_c6", "--assignment", "demo_c6_bad"
    )
    assert code == 0
    assert "C6: FAIL" in out
    assert "('2', '3')" in out
    assert "INFEASIBLE" in out


def test_verify_demo_c7_only_c7_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--topology", "demo_c7", "--assignment", "demo_c7_bad"
    )
    assert code == 0
    assert "C7: FAIL" in out
    for tag in ("BOUNDS", "C6", "C8", "C9"):
        assert f"{tag}: PASS" in out


def test_verify_assignment_file(tmp_path, capsys):
    path = tmp_path / "zero.yaml"
    path.write_text("flows: []\nmatchings: []\n")
    code, out, _ = run(
        capsys, "verify", "--topology", "five_node", "--assignment", str(path)
    )
    assert code == 0
    assert "objective: 0" in out
    assert "FEASIBLE" in out


def test_simulate_chain(capsys):
    code, out, _ = run(
        capsys, "simulate", "--topology", "five_node", "--samples", "2000",
        "--seed", "7",
    )
    assert code == 0
    assert "mean delivered:" in out


def test_simulate_rejects_zero_samples(capsys):
    code, _, err = run(
        capsys, "simulate", "--topology", "five_node", "--samples", "0"
    )
    assert code == 1
    assert "samples" in err


def test_datasets_list(capsys):
    code, out, _ = run(capsys, "datasets", "list")
    assert code == 0
    for name in ("five_node", "abilene", "abilene_mux2", "nsfnet", "surfnet"):
        assert name in out


def test_datasets_export_matches_bundle(tmp_path, capsys):
    from qnetcap import datasets

    target = tmp_path / "surfnet.yaml"
    code, _, _ = run(capsys, "datasets", "export", "surfnet", "--out", str(target))
    assert code == 0
    assert target.read_text() == datasets.dataset_text("surfnet")


def test_datasets_export_unknown(capsys):
    code, _, err = run(capsys, "datasets", "export", "bogus")
    assert code == 1
    assert "unknown dataset" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

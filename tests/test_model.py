"""Topology data model, loss-model derivation, file ingestion."""

import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qnetcap import datasets
from qnetcap.flowcheck import load_assignment
from qnetcap.model import (
    YAML_LOADER,
    LinkSpec,
    LossConstants,
    NodeSpec,
    Topology,
    TopologyError,
    derive_link_probability,
    dump_topology,
    load_topology,
    serialize_topology,
    validate_topology,
)

DEFAULTS = LossConstants()


@pytest.mark.parametrize(
    "length_km, expected",
    [
        (11.0, 0.5423),
        (1.138, 0.8540),
        (16.8, 0.4152),
    ],
)
def test_derive_matches_published_values(length_km, expected):
    assert derive_link_probability(length_km, DEFAULTS) == pytest.approx(expected, abs=5e-5)


def test_derive_zero_length_is_prefactor():
    assert derive_link_probability(0.0, DEFAULTS) == 0.9


def test_derive_rejects_negative_length():
    with pytest.raises(TopologyError):
        derive_link_probability(-1.0, DEFAULTS)


def test_derive_clamped_to_unit_interval():
    assert derive_link_probability(0.0, LossConstants(c_eff=1.0, beta=0.0)) == 1.0
    assert 0.0 <= derive_link_probability(1e6, DEFAULTS) <= 1.0


@given(
    shorter=st.floats(min_value=0.0, max_value=500.0),
    extra=st.floats(min_value=1e-3, max_value=500.0),
)
@settings(max_examples=60, deadline=None)
def test_derive_strictly_decreasing_in_length(shorter, extra):
    assert derive_link_probability(shorter, DEFAULTS) > derive_link_probability(
        shorter + extra, DEFAULTS
    )


def test_loss_constants_validated():
    with pytest.raises(TopologyError):
        LossConstants(c_eff=0.0)
    with pytest.raises(TopologyError):
        LossConstants(beta=-0.1)


@pytest.mark.parametrize("length_km", [float("nan"), float("inf")])
def test_derive_rejects_non_finite_length(length_km):
    with pytest.raises(TopologyError, match="length_km: must be finite"):
        derive_link_probability(length_km, DEFAULTS)


@pytest.mark.parametrize(
    "link, constants, field",
    [
        ("length_km: .nan", "{}", ".length_km: must be finite and >= 0"),
        ("length_km: 10", "{beta: .nan}", "constants.beta: must be finite and >= 0"),
        ("length_km: .inf", "{beta: 0}", ".length_km: must be finite and >= 0"),
    ],
)
def test_non_finite_loss_fields_are_rejected(link, constants, field):
    # each would give p = nan, and a nan capacity, instead of an error
    doc = f"""
nodes: [{{id: a}}, {{id: b}}]
links: [{{u: a, v: b, {link}}}]
endpoints: {{source: a, sink: b}}
constants: {constants}
"""
    with pytest.raises(TopologyError, match=re.escape(field)):
        load_topology(doc)


def test_five_node_dataset_shape(five_node):
    assert len(five_node.nodes) == 5
    assert len(five_node.links) == 7
    idx = five_node.link_index["0-1"]
    assert five_node.probabilities[idx] == 0.5679


def test_surfnet_dataset_shape(surfnet):
    assert len(surfnet.nodes) == 17
    assert len(surfnet.links) == 20
    roles = {n.role for n in surfnet.nodes}
    assert roles == {"source", "sink", "internal"}


def test_source_equals_sink_rejected():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, p: 0.5}]
endpoints: {source: a, sink: a}
"""
    with pytest.raises(TopologyError, match="source == sink"):
        load_topology(doc)


def test_missing_endpoint_node_rejected():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, p: 0.5}]
endpoints: {source: a, sink: z}
"""
    with pytest.raises(TopologyError, match="not in nodes"):
        load_topology(doc)


def test_length_and_p_mutually_exclusive():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, p: 0.5, length_km: 3}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError, match="exactly one"):
        load_topology(doc)


def test_p_derived_from_length():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, length_km: 11}]
endpoints: {source: a, sink: b}
"""
    t = load_topology(doc)
    assert t.probabilities[0] == pytest.approx(0.5423, abs=5e-5)


def test_capacity_below_one_rejected():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, p: 0.5, c: 0}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError, match="c: must be"):
        load_topology(doc)


def test_capacity_above_byte_limit_rejected():
    doc = """
nodes: [{id: a}, {id: b}]
links: [{u: a, v: b, p: 0.5, c: 256}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError, match=r"links\[0\].*\.c: must be an integer in \[1, 255\]"):
        load_topology(doc)


@pytest.mark.parametrize(
    "raw, shown", [("2.7", "2.7"), ("true", "True"), ('"3"', "'3'"), ("2.0", "2.0")]
)
def test_capacity_must_be_a_yaml_integer(raw, shown):
    doc = f"""
nodes: [{{id: a}}, {{id: b}}]
links: [{{u: a, v: b, p: 0.5, c: {raw}}}]
endpoints: {{source: a, sink: b}}
"""
    message = rf"\.c: must be an integer in \[1, 255\], got {shown}$"
    with pytest.raises(TopologyError, match=message):
        load_topology(doc)


@pytest.mark.parametrize("c", [2.7, True, "3", 2.0])
def test_capacity_must_be_an_int(c):
    nodes = (NodeSpec("s", role="source"), NodeSpec("t", role="sink"))
    link = LinkSpec("s", "t", p=0.5, c=c)
    with pytest.raises(TopologyError, match=rf"\.c: must be an integer in \[1, 255\], got {c!r}$"):
        Topology(nodes, (link,), "s", "t")


def numeric_field_doc(field, raw):
    """A three-node line a-m-b with raw as the given numeric field."""
    link = f"{field}: {raw}" if field in ("p", "length_km") else "p: 0.5"
    q = f", q: {raw}" if field == "q" else ""
    constants = f"{{{field}: {raw}}}" if field in ("c_eff", "beta") else "{}"
    return f"""
nodes: [{{id: a}}, {{id: m{q}}}, {{id: b}}]
links: [{{u: a, v: m, {link}}}, {{u: m, v: b, p: 0.5}}]
endpoints: {{source: a, sink: b}}
constants: {constants}
"""


@pytest.mark.parametrize(
    "field, raw, shown",
    [
        ("p", "true", "True"),
        ("p", '"0.5"', "'0.5'"),
        ("q", "true", "True"),
        ("q", '"0.5"', "'0.5'"),
        ("length_km", '"10"', "'10'"),
        ("length_km", "true", "True"),
        ("c_eff", "true", "True"),
        ("beta", '"0.2"', "'0.2'"),
    ],
)
def test_numeric_fields_must_be_yaml_numbers(field, raw, shown):
    with pytest.raises(TopologyError) as info:
        load_topology(numeric_field_doc(field, raw))
    (diag,) = info.value.diagnostics
    assert re.search(rf"\.{field}: must .*, got {re.escape(shown)}$", diag), diag


@pytest.mark.parametrize("field", ["p", "q", "c_eff"])
def test_integer_one_loads_as_a_float(field):
    t = load_topology(numeric_field_doc(field, "1"))
    value = {"p": t.links[0].p, "q": t.node_by_id["m"].q, "c_eff": t.constants.c_eff}[field]
    assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("field", ["p", "length_km", "q"])
@pytest.mark.parametrize("raw", [True, "0.5"])
def test_spec_numeric_fields_must_be_numbers(field, raw):
    q = raw if field == "q" else 0.5
    link = {field: raw} if field != "q" else {"p": 0.5}
    nodes = (NodeSpec("s", role="source"), NodeSpec("m", q), NodeSpec("t", role="sink"))
    links = (LinkSpec("s", "m", **link), LinkSpec("m", "t", p=1))
    with pytest.raises(TopologyError, match=rf"\.{field}: must .*, got {re.escape(repr(raw))}$"):
        Topology(nodes, links, "s", "t")


def test_spec_integer_fields_are_numbers():
    nodes = (NodeSpec("s", role="source"), NodeSpec("m", 1), NodeSpec("t", role="sink"))
    links = (LinkSpec("s", "m", p=1), LinkSpec("m", "t", length_km=10))
    t = Topology(nodes, links, "s", "t", LossConstants(c_eff=1, beta=0))
    assert t.probabilities == (1, 1.0)


@pytest.mark.parametrize("field", ["c_eff", "beta"])
@pytest.mark.parametrize("raw", [True, False, "0.2"])
def test_loss_constants_must_be_numbers(field, raw):
    with pytest.raises(TopologyError, match=rf"\.{field}: must .*, got {re.escape(repr(raw))}$"):
        LossConstants(**{field: raw})


def test_diagnostics_carry_field_paths():
    doc = """
nodes: [{id: a}, {id: b}, {id: c, q: 1.5}]
links: [{u: a, v: b, p: 1.5}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError) as err:
        load_topology(doc)
    text = str(err.value)
    assert "nodes[2].q" in text
    assert ".p: must be in [0, 1]" in text


def test_validate_flags_q_out_of_range():
    doc = """
nodes: [{id: a}, {id: b}, {id: m, q: 0.0}]
links: [{u: a, v: m, p: 0.5}, {u: m, v: b, p: 0.5}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError, match=r"q out of \(0,1\]"):
        load_topology(doc)


def test_endpoint_q_must_be_absent_or_one():
    doc = """
nodes: [{id: a, q: 0.5}, {id: b}]
links: [{u: a, v: b, p: 0.5}]
endpoints: {source: a, sink: b}
"""
    with pytest.raises(TopologyError, match="absent or 1"):
        load_topology(doc)


def test_validate_flags_duplicate_links():
    nodes = (NodeSpec("s", role="source"), NodeSpec("t", role="sink"))
    links = (LinkSpec("s", "t", p=0.5), LinkSpec("t", "s", p=0.4))
    with pytest.raises(TopologyError, match="duplicate link") as exc:
        Topology(nodes, links, "s", "t")
    # its ids name the other link too, but it is reported once, as a duplicate
    assert len(exc.value.diagnostics) == 1


def with_endpoints(*internal):
    """s, t and internal nodes of the given ids."""
    ends = (NodeSpec("s", role="source"), NodeSpec("t", role="sink"))
    return ends + tuple(NodeSpec(n, 0.5) for n in internal)


@pytest.mark.parametrize(
    "pairs, name, first, second",
    [
        # u-v of one link is u-v of the other
        ([("a-b", "t"), ("a", "b-t"), ("s", "a"), ("s", "a-b")], "a-b-t",
         "('a', 'b-t')", "('a-b', 't')"),
        # v-u of one link is u-v of the other
        ([("t", "a-b"), ("b", "t-a"), ("s", "b"), ("s", "a-b")], "t-a-b",
         "('b', 't-a')", "('t', 'a-b')"),
    ],
)
def test_validate_flags_link_ids_naming_two_links(pairs, name, first, second):
    nodes = with_endpoints(*sorted({n for pair in pairs for n in pair} - {"s", "t"}))
    links = tuple(LinkSpec(u, v, p=0.5) for u, v in pairs)
    with pytest.raises(TopologyError) as exc:
        Topology(nodes, links, "s", "t")
    (diag,) = exc.value.diagnostics
    assert f"id '{name}' names two links" in diag
    assert first in diag and second in diag


def test_dashed_node_ids_with_distinct_link_ids_are_accepted():
    links = (LinkSpec("a-b", "t", p=0.5), LinkSpec("s", "a-b", p=0.5), LinkSpec("s", "b", p=0.5))
    t = Topology(with_endpoints("a-b", "b"), links, "s", "t")
    assert validate_topology(t) == []
    assert t.link_index["t-a-b"] == t.link_ids.index("a-b-t")


def test_validate_clean_dataset_is_empty(abilene):
    assert validate_topology(abilene) == []


@pytest.mark.parametrize("name", datasets.DATASETS)
def test_serialization_round_trip(name):
    t = datasets.load_dataset(name)
    again = load_topology(dump_topology(t))
    assert serialize_topology(again) == serialize_topology(t)
    assert again.digest() == t.digest()


def test_links_iterate_in_lexicographic_order(five_node):
    keys = [l.key for l in five_node.links]
    assert keys == sorted(keys)


def test_q_of_endpoints_is_one(five_node):
    assert five_node.q_of(five_node.source) == 1.0
    assert five_node.q_of(five_node.sink) == 1.0
    assert five_node.q_of("2") == 0.27


def test_with_endpoints_swap(five_node):
    swapped = five_node.with_endpoints(five_node.sink, five_node.source)
    assert swapped.source == five_node.sink
    assert {l.key for l in swapped.links} == {l.key for l in five_node.links}


@pytest.mark.parametrize(
    "name", datasets.DATASETS + datasets.FIXTURE_TOPOLOGIES + datasets.FIXTURE_ASSIGNMENTS
)
def test_yaml_loader_reads_every_bundled_document_like_safe_load(name):
    text = datasets.dataset_text(name)
    assert yaml.load(text, Loader=YAML_LOADER) == yaml.safe_load(text)


def test_a_string_is_yaml_text_never_a_file_name(tmp_path, monkeypatch):
    text = datasets.dataset_text("five_node")
    (tmp_path / "net.yaml").write_text(text)
    (tmp_path / "bad.yaml").write_text(datasets.dataset_text("demo_c9_bad"))
    monkeypatch.chdir(tmp_path)
    with open("net.yaml", encoding="utf-8") as fh:
        assert load_topology(fh) == load_topology(text)
    with pytest.raises(TopologyError) as info:
        load_topology("net.yaml")
    assert info.value.diagnostics == ["document: expected a mapping at top level"]
    with open("bad.yaml", encoding="utf-8") as fh:
        assert load_assignment(fh) == datasets.load_fixture_assignment("demo_c9_bad")
    with pytest.raises(ValueError, match="must be a mapping"):
        load_assignment("bad.yaml")


def test_malformed_yaml_is_a_topology_error():
    with pytest.raises(TopologyError) as info:
        load_topology("nodes: [")
    assert info.value.diagnostics[0].startswith("document: YAML parse failure:")


@pytest.mark.parametrize(
    "section, message",
    [
        ("nodes: 5", "nodes: expected a list"),
        ("nodes: {id: a}", "nodes: expected a list"),
        ("links: {u: a, v: b}", "links: expected a list"),
        ("links: a-b", "links: expected a list"),
        ("constants: 5", "constants: expected a mapping"),
        ("constants: [0.9, 0.2]", "constants: expected a mapping"),
    ],
)
def test_malformed_sections_are_topology_errors(section, message):
    doc = {
        "nodes": "nodes: [{id: a}, {id: b}]",
        "links": "links: [{u: a, v: b, p: 0.5}]",
        "constants": "constants: {beta: 0.2}",
    }
    doc[section.split(":")[0]] = section
    text = "\n".join([*doc.values(), "endpoints: {source: a, sink: b}"])
    with pytest.raises(TopologyError) as info:
        load_topology(text)
    assert info.value.diagnostics == [message]


def test_null_sections_read_as_empty():
    t = load_topology(
        "nodes: [{id: a}, {id: b}]\nlinks: [{u: a, v: b, p: 0.5}]\n"
        "constants: null\nendpoints: {source: a, sink: b}\n"
    )
    assert t.constants == LossConstants()

"""Knowledge-graph model, geometry and JSON round-trip."""

import dataclasses
import json
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdkg.embeddings import CostMemo, feature_cost
from rdkg.errors import InputError
from rdkg.kg import (
    ConceptNode,
    KnowledgeGraph,
    RelationEdge,
    build_kg_space,
    edge_from_dict,
    hop_distance,
    kg_from_dict,
    kg_to_dict,
    load_kg,
    node_from_dict,
    node_text,
    rate,
    save_kg,
    struct_distance,
    validate_graph,
)
from rdkg.lecture import fuse, minmax_normalize

from conftest import topic_a_only_kg


def test_copy_is_equal_and_shares_no_list_or_dict():
    node = ConceptNode(id="n", label="L", definition="def", aliases=["x"],
                       provenance={"source": "s"}, confidence=0.9, rationale="why",
                       extra={"k": 1})
    edge = RelationEdge(src="n", dst="m", relation="uses", confidence=0.8,
                        rationale="because", extra={"k": 2})
    # a field that copy forgets would come back at its default
    for obj, cls in ((node, ConceptNode), (edge, RelationEdge)):
        for f in dataclasses.fields(cls):
            default = (f.default_factory() if f.default_factory is not dataclasses.MISSING
                       else f.default)
            assert getattr(obj, f.name) != default, f.name
    kg = KnowledgeGraph(nodes=[node], edges=[edge], extra={"k": 3})
    copied = kg.copy()
    assert copied == kg
    for original, clone in ((kg, copied), (node, copied.nodes[0]), (edge, copied.edges[0])):
        for name, value in vars(original).items():
            if isinstance(value, (list, dict)):
                assert getattr(clone, name) is not value, name
    # an empty provenance object stays one, as a KG file round trip keeps it
    empty = KnowledgeGraph(nodes=[ConceptNode(id="e", label="E", provenance={})])
    assert empty.copy() == empty


def simple_graph():
    return KnowledgeGraph(
        nodes=[
            ConceptNode(id="a", label="Alpha"),
            ConceptNode(id="b", label="Beta"),
            ConceptNode(id="c", label="Gamma"),
        ],
        edges=[
            RelationEdge("a", "b", "partOf", 0.9),
            RelationEdge("b", "c", "uses", 0.8),
        ],
    )


# --- validation ----------------------------------------------------------------


def test_validate_well_formed():
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id="x", label="X"), ConceptNode(id="y", label="Y")],
        edges=[RelationEdge("x", "y", "partOf", 0.5)],
    )
    assert validate_graph(kg) == []


def test_validate_dangling_endpoint():
    kg = simple_graph()
    kg.edges.append(RelationEdge("a", "ghost", "uses", 0.5))
    report = validate_graph(kg)
    assert any("dangling endpoint" in v for v in report)


def test_validate_unknown_relation():
    kg = simple_graph()
    kg.edges.append(RelationEdge("a", "c", "causes", 0.5))
    assert any("unknown relation" in v for v in validate_graph(kg))


def test_validate_duplicate_id_and_self_loop():
    kg = simple_graph()
    kg.nodes.append(ConceptNode(id="a", label="Dup"))
    kg.edges.append(RelationEdge("b", "b", "uses", 0.5))
    report = validate_graph(kg)
    assert any("duplicate id" in v for v in report)
    assert any("self-loop" in v for v in report)


def test_validate_duplicate_edge():
    kg = simple_graph()
    kg.edges.append(RelationEdge("b", "a", "partOf", 0.1))  # same unordered pair
    assert any("duplicate edge" in v for v in validate_graph(kg))


def test_validate_empty_label_and_confidence_range():
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="x", label="  "),
            ConceptNode(id="y", label="Y", confidence=1.5),
        ],
        edges=[RelationEdge("x", "y", "uses", confidence=-0.1)],
    )
    report = validate_graph(kg)
    assert any(v == "empty label: x" for v in report)
    assert any(v.startswith("invalid confidence: y") for v in report)
    assert any(v.startswith("invalid confidence: x-y") for v in report)


def test_validate_blank_id():
    kg = KnowledgeGraph(nodes=[ConceptNode(id=" ", label="X"), ConceptNode(id="y", label="Y")])
    assert validate_graph(kg) == ["empty id: ' '"]


def test_extra_relations_accepted_via_config():
    from rdkg.kg import ALLOWED_RELATIONS

    kg = simple_graph()
    kg.edges.append(RelationEdge("a", "c", "causes", 0.5))
    assert validate_graph(kg, ALLOWED_RELATIONS | {"causes"}) == []


# --- geometry --------------------------------------------------------------------


def test_struct_distance_path_graph():
    d = struct_distance(simple_graph())
    assert d[0, 1] == pytest.approx(0.5)
    assert d[0, 2] == pytest.approx(1.0)
    assert np.allclose(np.diag(d), 0.0)


def test_struct_distance_disconnected_pair():
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id="a", label="A"), ConceptNode(id="b", label="B")]
    )
    d = struct_distance(kg)
    assert d[0, 1] == pytest.approx(1.0)


def test_struct_distance_single_node():
    kg = KnowledgeGraph(nodes=[ConceptNode(id="a", label="A")])
    assert struct_distance(kg).tolist() == [[0.0]]


def test_struct_distance_unreachable_beyond_diameter():
    kg = simple_graph()
    kg.nodes.append(ConceptNode(id="d", label="Island"))
    hops = hop_distance(kg)
    # component diameter 2, unreachable pairs get 3
    assert hops[0, 3] == 3.0
    assert hops[3, 0] == 3.0


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_hop_triangle_inequality_on_random_connected(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 8))
    nodes = [ConceptNode(id=f"n{i}", label=f"N{i}") for i in range(m)]
    edges = [RelationEdge(f"n{i}", f"n{i + 1}", "relatedTo", 0.5) for i in range(m - 1)]
    for _ in range(int(rng.integers(0, m))):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            edge = RelationEdge(f"n{min(i, j)}", f"n{max(i, j)}", "uses", 0.5)
            if edge.key() not in {e.key() for e in edges}:
                edges.append(edge)
    hops = hop_distance(KnowledgeGraph(nodes=nodes, edges=edges))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert hops[i, j] <= hops[i, k] + hops[k, j] + 1e-12


def deque_bfs_hops(m, pairs):
    """Reference hop counts: one queue-based BFS per source."""
    adjacency = [set() for _ in range(m)]
    for i, j in pairs:
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    hops = np.full((m, m), -1.0)
    for source in range(m):
        hops[source, source] = 0.0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(adjacency[u]):
                if hops[source, v] < 0:
                    hops[source, v] = hops[source, u] + 1
                    queue.append(v)
    hops[hops < 0] = hops.max() + 1
    return hops


@st.composite
def graphs_with_messy_edges(draw):
    """Up to 12 nodes; edges may repeat, appear reversed or be self-loops,
    and the graph may fall apart into several components."""
    m = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=m - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * m))
    reversed_copies = [(j, i) for i, j in pairs if draw(st.booleans())]
    return m, pairs + reversed_copies


@given(graphs_with_messy_edges())
@settings(max_examples=150, deadline=None)
def test_hop_distance_matches_deque_bfs(graph):
    m, pairs = graph
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=f"n{i}", label=f"N{i}") for i in range(m)],
        edges=[RelationEdge(f"n{i}", f"n{j}", "relatedTo", 0.5) for i, j in pairs],
    )
    assert np.array_equal(hop_distance(kg), deque_bfs_hops(m, pairs))


def test_struct_distance_permutation_invariance():
    kg = simple_graph()
    base = struct_distance(kg)
    perm = [2, 0, 1]
    permuted = KnowledgeGraph(
        nodes=[kg.nodes[i] for i in perm], edges=list(kg.edges)
    )
    d = struct_distance(permuted)
    for pi, i in enumerate(perm):
        for pj, j in enumerate(perm):
            assert d[pi, pj] == base[i, j]


# --- node text and fusion ---------------------------------------------------------


def test_node_text_label_only():
    assert node_text(ConceptNode(id="x", label="MultiIndex basics")) == "MultiIndex basics"


def test_node_text_label_and_definition():
    assert node_text(ConceptNode(id="x", label="L", definition="D")) == "L. D"


def test_node_text_caps_aliases_at_three():
    node = ConceptNode(id="x", label="L", definition="D",
                       aliases=["a1", "a2", "a3", "a4", "a5"])
    assert node_text(node) == "L. D. a1; a2; a3"


def test_combine_kg_distance_reduction():
    rng = np.random.default_rng(3)
    c = rng.random((4, 4))
    c = (c + c.T) / 2
    np.fill_diagonal(c, 0)
    d = fuse("gamma", (1.0, 0.0), [c, np.zeros_like(c)])
    assert np.allclose(d, minmax_normalize(c))


def test_combine_kg_distance_direct_value():
    s = np.array([[0.0, 0.5], [0.5, 0.0]])
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    # pre-normalization fused value 0.4*0.5 + 0.6*1.0 = 0.8; with a single
    # off-diagonal value min-max maps it to 0 (constant rule)
    fused = 0.4 * 0.5 + 0.6 * 1.0
    assert fused == pytest.approx(0.8)
    d = fuse("gamma", (0.4, 0.6), [s, f])
    assert d[0, 1] == 0.0


def test_combine_kg_invalid_gamma():
    z = np.zeros((2, 2))
    with pytest.raises(InputError, match="invalid weights"):
        fuse("gamma", (0.7, 0.6), [z, z])


def test_rate_values():
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=f"n{i}", label="x") for i in range(10)],
        edges=[RelationEdge(f"n{i}", f"n{i + 1}", "uses", 0.5) for i in range(6)],
    )
    assert rate(kg) == 13.0
    assert rate(KnowledgeGraph()) == 0.0
    assert rate(KnowledgeGraph(nodes=[ConceptNode(id="a", label="A")])) == 1.0


def test_build_kg_space_invariants(provider):
    d = build_kg_space(simple_graph(), CostMemo(provider.embed, ["unit"]))
    assert np.array_equal(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    assert 0.0 <= d.min() and d.max() <= 1.0
    assert d.shape == (3, 3)


@pytest.mark.parametrize("gamma", [(0.5, 0.5), (0.3, 0.7)])
def test_build_kg_space_equals_the_hand_written_fusion(provider, gamma):
    # the fusion the graph space had before it shared lecture.fuse, bit for bit
    for kg in (simple_graph(), topic_a_only_kg()):
        rows = provider.embed([node_text(n) for n in kg.nodes])
        g = np.asarray(gamma, dtype=np.float64)
        reference = minmax_normalize(
            g[0] * struct_distance(kg) + g[1] * minmax_normalize(feature_cost(rows, rows))
        )
        memo = CostMemo(provider.embed, ["unit"])
        assert np.array_equal(build_kg_space(kg, memo, gamma), reference)


# --- JSON round-trip ---------------------------------------------------------------


def test_round_trip_field_identical(tmp_path):
    kg = simple_graph()
    kg.nodes[0].provenance = {"path": ["A"], "line_span": [1, 4], "excerpt": "text"}
    kg.nodes[0].aliases = ["alias one"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_kg(kg, p1)
    loaded = load_kg(p1)
    save_kg(loaded, p2)
    assert json.loads(p1.read_text()) == json.loads(p2.read_text())
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_fields_preserved(tmp_path):
    doc = {
        "nodes": [
            {"id": "a", "label": "A", "definition": "", "aliases": [],
             "provenance": None, "confidence": 0.5, "rationale": None,
             "custom_score": 0.77, "origin": "manual"},
        ],
        "edges": [],
        "dataset": "week3",
    }
    path = tmp_path / "kg.json"
    path.write_text(json.dumps(doc))
    kg = load_kg(path)
    assert kg.nodes[0].extra == {"custom_score": 0.77, "origin": "manual"}
    assert kg.extra == {"dataset": "week3"}
    out = kg_to_dict(kg)
    assert out["nodes"][0]["custom_score"] == 0.77
    assert out["dataset"] == "week3"


def asdict_doc(element):
    """An element's document by dataclasses.asdict, the deep-copy form
    kg_to_dict once used: the oracle of its keys, their order and values."""
    doc = dataclasses.asdict(element)
    doc.update(doc.pop("extra"))
    return doc


def test_kg_to_dict_equals_the_asdict_form():
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="a", label="Alpha", definition="first", aliases=["A", "alpha"],
                        provenance={"path": ["S", "T"], "excerpt": "first"}, confidence=0.7,
                        rationale="why", extra={"score": 0.77, "tags": ["x", {"y": None}]}),
            ConceptNode(id="b", label="Beta"),  # None provenance and rationale, no extra
        ],
        edges=[
            RelationEdge("a", "b", "uses", 0.9, "because", extra={"hint": {"w": [1, 2]}}),
            RelationEdge("b", "a", "partOf"),
        ],
        extra={"dataset": "week3"},
    )
    want = {"nodes": [asdict_doc(n) for n in kg.nodes],
            "edges": [asdict_doc(e) for e in kg.edges], "dataset": "week3"}
    got = kg_to_dict(kg)
    assert got == want
    assert json.dumps(got, indent=1) == json.dumps(want, indent=1)  # key order included


def test_from_dict_to_dict_identity():
    doc = kg_to_dict(simple_graph())
    assert kg_to_dict(kg_from_dict(doc)) == doc


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(InputError, match="malformed"):
        load_kg(bad)


@pytest.mark.parametrize("fields, message", [
    ({"id": 7}, "id must be a string, got 7"),
    ({"label": ["A"]}, 'label must be a string, got ["A"]'),
    ({"definition": ["x", "y"]}, 'definition must be a string or null, got ["x", "y"]'),
    ({"aliases": "matrix algebra"}, 'aliases must be a list of strings or null, got "matrix algebra"'),
    ({"aliases": ["ok", 3]}, 'aliases must be a list of strings or null, got ["ok", 3]'),
    ({"provenance": "slides 3"}, 'provenance must be an object or null, got "slides 3"'),
    ({"confidence": "0.9"}, 'confidence must be a finite number, got "0.9"'),
    ({"confidence": True}, "confidence must be a finite number, got true"),
    ({"confidence": None}, "confidence must be a finite number, got null"),
    ({"rationale": 1}, "rationale must be a string or null, got 1"),
    ({"confidence": 10**400}, "confidence must be a finite number, got 1" + "0" * 76 + "..."),
], ids=[
    "fields0-id is not a string (int)",
    "fields1-label is not a string (list)",
    "fields2-definition is not a string (list)",
    "fields3-aliases is not a list of strings (str)",
    "fields4-aliases is not a list of strings (list)",
    "fields5-provenance is not an object (str)",
    "fields6-confidence is not a number (str)",
    "fields7-confidence is not a number (bool)",
    "fields8-confidence is null",
    "fields9-rationale is not a string (int)",
    "fields10-confidence beyond the largest float",
])
def test_node_from_dict_refuses_a_mistyped_field(fields, message):
    with pytest.raises((TypeError, ValueError)) as info:
        node_from_dict({"id": "a", "label": "A", **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"src": 1}, "src must be a string, got 1"),
    ({"relation": None}, "relation must be a string, got null"),
    ({"confidence": False}, "confidence must be a finite number, got false"),
    ({"rationale": ["why"]}, 'rationale must be a string or null, got ["why"]'),
], ids=[
    "fields0-src is not a string (int)",
    "fields1-relation is null",
    "fields2-confidence is not a number (bool)",
    "fields3-rationale is not a string (list)",
])
def test_edge_from_dict_refuses_a_mistyped_field(fields, message):
    with pytest.raises((TypeError, ValueError)) as info:
        edge_from_dict({"src": "a", "dst": "b", "relation": "uses", **fields})
    assert str(info.value) == message


def test_reader_refuses_a_missing_endpoint_and_a_non_object():
    with pytest.raises(ValueError, match="^dst is missing$"):
        edge_from_dict({"src": "a", "relation": "uses"})
    with pytest.raises(TypeError, match="a node is not a JSON object"):
        kg_from_dict({"nodes": ["a"]})
    with pytest.raises(ValueError, match=re.escape('edges must be a list, got {"src": "a"}')):
        kg_from_dict({"nodes": [], "edges": {"src": "a"}})


def test_reader_null_means_empty_or_none_where_a_field_may_be_empty():
    node = node_from_dict({"id": "a", "label": "A", "definition": None, "aliases": None,
                           "provenance": None, "rationale": None})
    assert (node.definition, node.aliases, node.provenance, node.rationale) == ("", [], None, None)
    assert node.confidence == 0.5 and node.extra == {}
    edge = edge_from_dict({"src": "a", "dst": "b", "relation": "uses", "confidence": 1,
                           "rationale": None})
    assert edge.confidence == 1.0 and isinstance(edge.confidence, float)
    assert edge.rationale is None
    with pytest.raises(ValueError, match="^nodes must be a list, got null$"):
        kg_from_dict({"nodes": None})

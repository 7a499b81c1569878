"""LLM bridge: bootstrap, naming and edge proposal with offline fallbacks."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from rdkg.embeddings import cosine_distance
from rdkg.errors import InputError
from rdkg.kg import (ALLOWED_RELATIONS, ConceptNode, KnowledgeGraph, RelationEdge, node_text,
                     validate_graph)
from rdkg.llm import (
    LlmClient,
    Namer,
    bootstrap_kg,
    propose_label_edges,
)
from rdkg.markdown import parse_markdown
from rdkg.refine import apply_edits, llm_propose_edges

from conftest import table_memo


def make_client(reply_factory, retries=0):
    """Client whose transport synthesizes chat-completion replies."""

    def transport(url, payload, headers, timeout):
        content = reply_factory(payload)
        if isinstance(content, Exception):
            raise content
        return {"choices": [{"message": {"content": content}}]}

    return LlmClient(base_url="http://fake/llm", model="m", retries=retries,
                     transport=transport)


# --- bootstrap ---------------------------------------------------------------


def test_fallback_bootstrap_headings_to_nodes():
    kg = bootstrap_kg("# A\nalpha text\n## B\nbeta text")
    assert sorted(n.label for n in kg.nodes) == ["A", "B"]
    assert len(kg.edges) == 1
    edge = kg.edges[0]
    assert edge.relation == "partOf"
    labels = {n.id: n.label for n in kg.nodes}
    assert labels[edge.src] == "B" and labels[edge.dst] == "A"


def test_fallback_node_count_equals_heading_count():
    md = "# A\nx\n## B\ny\n## C\nz\n# D\nw\n### E\nv"
    kg = bootstrap_kg(md)
    sections, headings = [parse_markdown(md)], 0
    while sections:
        section = sections.pop()
        headings += section.level > 0
        sections.extend(section.children)
    assert len(kg.nodes) == headings == 5


def test_fallback_definitions_from_first_block():
    kg = bootstrap_kg("# A\nfirst block\n\nsecond block")
    assert kg.nodes[0].definition == "first block"
    assert kg.nodes[0].rationale.startswith("fallback")


def test_fallback_graph_validates():
    md = "# A\nx\n## B\ny\n### C\nz\n## B\ndup heading text"
    kg = bootstrap_kg(md)
    assert validate_graph(kg) == []


def test_bootstrap_empty_input():
    with pytest.raises(InputError, match="empty input"):
        bootstrap_kg("   ")


def test_bootstrap_llm_response_used():
    reply = json.dumps(
        {
            "nodes": [
                {"id": "c1", "label": "Concept", "definition": "d", "aliases": [],
                 "confidence": 0.9, "rationale": "core idea"},
                {"id": "c2", "label": "Other", "definition": "d2", "aliases": [],
                 "confidence": 0.8, "rationale": "supporting idea"},
            ],
            "edges": [
                {"src": "c2", "dst": "c1", "relation": "partOf",
                 "confidence": 0.7, "rationale": "nesting"},
            ],
        }
    )
    kg = bootstrap_kg("# A\ntext", make_client(lambda p: reply))
    assert [n.id for n in kg.nodes] == ["c1", "c2"]
    assert [e.relation for e in kg.edges] == ["partOf"]
    assert validate_graph(kg) == []


def test_bootstrap_drops_invalid_relation_keeps_rest():
    reply = json.dumps(
        {
            "nodes": [
                {"id": "c1", "label": "A", "confidence": 0.9, "rationale": "r"},
                {"id": "c2", "label": "B", "confidence": 0.9, "rationale": "r"},
            ],
            "edges": [
                {"src": "c2", "dst": "c1", "relation": "causes",
                 "confidence": 0.7, "rationale": "bad"},
                {"src": "c1", "dst": "c2", "relation": "uses",
                 "confidence": 0.7, "rationale": "good"},
            ],
        }
    )
    kg = bootstrap_kg("# A\ntext", make_client(lambda p: reply))
    assert [e.relation for e in kg.edges] == ["uses"]


@pytest.mark.parametrize("bad_node", [
    {"provenance": "slides 3"},
    {"provenance": {"path": 0.5}},
    {"aliases": "matrix algebra"},
    {"confidence": "0.9"},
    {"confidence": True},
    {"definition": ["x", "y"]},
    {"id": None},
    {"id": "  "},
    {"confidence": 1.5},
    {"id": "c1"},  # a duplicate id
    {"rationale": " "},
    {"confidence": float("nan")},
    {"confidence": 10**400},  # beyond the largest float: no OverflowError escapes
])
def test_bootstrap_drops_a_bad_node_keeps_the_rest(bad_node):
    good = [{"id": "c1", "label": "A", "confidence": 0.9, "rationale": "r"},
            {"id": "c2", "label": "B", "confidence": 0.9, "rationale": "r"}]
    bad = {"id": "c3", "label": "C", "confidence": 0.5, "rationale": "r", **bad_node}
    reply = json.dumps({"nodes": [good[0], bad, good[1]],
                        "edges": [{"src": "c1", "dst": "c2", "relation": "uses",
                                   "confidence": 0.7, "rationale": "r"}]})
    kg = bootstrap_kg("# A\ntext", make_client(lambda p: reply))
    assert [n.id for n in kg.nodes] == ["c1", "c2"]
    assert [e.relation for e in kg.edges] == ["uses"]


@pytest.mark.parametrize("bad_edge", [
    {"confidence": False},
    {"confidence": "0.9"},
    {"rationale": ["why"]},
    {"dst": "ghost"},
    {"dst": "new"},  # a self-loop
    {"relation": "causes"},
    {"dst": "a", "relation": "uses"},  # the edge the graph has
    {"confidence": -0.1},
])
def test_edge_proposals_drop_a_bad_edge_keep_the_rest(bad_edge):
    kg, costs = graph_with_new_node()
    kg.edges.append(RelationEdge("a", "new", "uses", 0.5, "x"))
    bad = {"src": "new", "dst": "b", "relation": "partOf", "confidence": 0.5,
           "rationale": "r", **bad_edge}
    good = {"src": "new", "dst": "b", "relation": "uses", "confidence": 0.8, "rationale": "r"}
    reply = json.dumps({"edges": [bad, good]})
    edits = llm_propose_edges(kg, None, edge_pass_ctx(make_client(lambda p: reply)))
    out, records = apply_edits(kg, edits)
    assert [(e.src, e.relation, e.dst) for e in out.edges[len(kg.edges):]] == [
        ("new", "uses", "b")
    ]
    assert [r.edges for r in records] == [[["new", "uses", "b"]]]


def test_reply_items_must_state_confidence_and_keep_unknown_keys():
    reply = json.dumps({"nodes": [
        {"id": "c1", "label": "A", "rationale": "no confidence"},
        {"id": " c2 ", "label": " B ", "confidence": 0.9, "rationale": " r ", "salience": 2},
    ]})
    kg = bootstrap_kg("# A\ntext", make_client(lambda p: reply))
    assert [(n.id, n.label, n.rationale, n.extra) for n in kg.nodes] == [
        (" c2 ", " B ", " r ", {"salience": 2})
    ]


def test_bootstrap_unusable_response_falls_back():
    kg = bootstrap_kg("# A\ntext\n## B\nmore", make_client(lambda p: "not json at all"))
    assert sorted(n.label for n in kg.nodes) == ["A", "B"]


def test_bootstrap_client_error_falls_back():
    kg = bootstrap_kg("# A\ntext", make_client(lambda p: OSError("down")))
    assert [n.label for n in kg.nodes] == ["A"]


def test_bootstrap_prompt_contains_relations_and_document():
    seen = {}

    def factory(payload):
        seen["prompt"] = payload["messages"][0]["content"]
        return "{}"

    bootstrap_kg("# Unique Heading\nbody", make_client(factory))
    assert "prerequisiteOf" in seen["prompt"]
    assert "Unique Heading" in seen["prompt"]


# --- naming --------------------------------------------------------------------


def tfidf_oracle(group_text, corpus):
    """Hand evaluation of tf * ln(1 + N/df) over the corpus."""
    import re

    tokens = re.findall(r"[a-z0-9_]+", group_text.lower())
    from collections import Counter

    tf = Counter(tokens)
    scores = {}
    for term, count in tf.items():
        df = sum(1 for doc in corpus if term in re.findall(r"[a-z0-9_]+", doc.lower()))
        scores[term] = count * math.log(1 + len(corpus) / max(df, 1))
    return scores


def test_tfidf_label_prefers_rare_repeated_term():
    corpus = ["filler words only"] * 9 + ["set_index reset_index set_index"]
    label = Namer(corpus).name(["set_index reset_index set_index"])
    scores = tfidf_oracle("set_index reset_index set_index", corpus)
    assert scores["set_index"] > scores["reset_index"]
    assert "Set_index" in label
    assert label.split()[0] == "Set_index"


def test_tfidf_excludes_stopwords():
    corpus = ["the and of gradient descent", "gradient methods", "descent rates"]
    label = Namer(corpus).name(["the and of gradient descent"])
    assert "The" not in label.split()
    assert "Gradient" in label or "Descent" in label


def test_all_stopword_group_gets_hash_label():
    corpus = ["the and of", "other words here"]
    label = Namer(corpus).name(["the and of"])
    assert label.startswith("Concept ")
    assert Namer(corpus).name(["the and of"]) == label  # deterministic


def test_client_label_used_verbatim():
    namer = Namer(["corpus text"], make_client(lambda p: '{"label": "MultiIndex Basics"}'))
    assert namer.name(["whatever"]) == "MultiIndex Basics"


def test_empty_client_label_falls_back():
    namer = Namer(
        ["groupby aggregation is common", "other filler"],
        make_client(lambda p: '{"label": ""}'),
    )
    label = namer.name(["groupby aggregation groupby"])
    assert "Groupby" in label


@pytest.mark.parametrize("reply", ['{"label": null}', '{"label": 5}', '{"label": ["A"]}'])
def test_client_label_that_is_no_string_falls_back(reply):
    # a null label was read as the label "None"
    namer = Namer(["groupby aggregation is common", "other filler"],
                  make_client(lambda p: reply))
    assert namer.name(["groupby aggregation groupby"]).startswith("Groupby")


# --- edge proposal ----------------------------------------------------------------


def edge_pass_ctx(client, relations=ALLOWED_RELATIONS):
    """The two fields of an ``OpContext`` that the LLM edge pass reads."""
    return SimpleNamespace(llm_client=client, allowed_relations=relations)


def graph_with_new_node():
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="a", label="Tables", definition="dataframe index column"),
            ConceptNode(id="b", label="Plots", definition="figure axis chart"),
            ConceptNode(id="new", label="Joins", definition="merge join dataframe"),
        ]
    )
    costs = np.array([0.1, 0.6])  # the new node's costs against a, b: closest to a
    return kg, costs


def test_fallback_single_related_to_nearest():
    kg, costs = graph_with_new_node()
    edges = propose_label_edges(kg.get_node("new"), kg.nodes[:2], costs)
    assert len(edges) == 1
    assert edges[0].relation == "relatedTo"
    assert edges[0].confidence == 0.3
    assert {edges[0].src, edges[0].dst} == {"new", "a"}
    assert propose_label_edges(kg.get_node("new"), [], np.array([])) == []  # the first node


def test_fallback_takes_the_first_least_memo_cost():
    # Rows are small-integer multiples of six directions, the last five
    # exact copies of earlier rows, so many nodes tie at the least cost.
    # The new node's row is a multiple of a row or a direction plus noise.
    # The fallback links the first node at the least memo cost, and that
    # node is nearest by the scalar cosine distance too.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = rng.integers(-2, 3, size=(6, 4)).astype(float)
        base[np.abs(base).sum(axis=1) == 0] = 1.0
        rows = base[rng.integers(0, 6, 30)] * rng.integers(1, 8, 30)[:, None]
        rows[-5:] = rows[rng.integers(0, 25, 5)]
        points = [3.0 * rows[rng.integers(0, 30)],
                  base[rng.integers(0, 6)] + rng.normal(0.0, 0.3, 4)]
        for point in points:
            kg = KnowledgeGraph(nodes=[ConceptNode(id=f"r{i}", label=f"R{i}")
                                       for i in range(30)])
            kg.nodes.append(ConceptNode(id="new", label="New"))
            memo = table_memo({**{f"R{i}": row for i, row in enumerate(rows)}, "New": point})
            costs = memo.pair_cost([node_text(n) for n in kg.nodes])[-1, :-1]
            edges = propose_label_edges(kg.nodes[-1], kg.nodes[:-1], costs)
            nearest = int(edges[0].dst[1:])
            assert nearest == costs.tolist().index(costs.min())
            scalar = [cosine_distance(point, row) for row in rows]
            assert scalar[nearest] <= min(scalar) + 1e-12


def test_client_self_loop_dropped_fallback_applies():
    # the edge pass drops the self-loop and proposes nothing, so the new
    # node keeps its nearest-node relatedTo edge alone
    kg, costs = graph_with_new_node()
    kg.edges.extend(propose_label_edges(kg.get_node("new"), kg.nodes[:2], costs))
    reply = json.dumps({"edges": [{"src": "new", "dst": "new", "relation": "uses",
                                   "confidence": 0.5, "rationale": "x"}]})
    assert llm_propose_edges(kg, None, edge_pass_ctx(make_client(lambda p: reply))) == []
    assert [(e.src, e.relation, e.dst) for e in kg.edges] == [("new", "relatedTo", "a")]


def test_client_valid_uses_edge_returned():
    kg, costs = graph_with_new_node()
    reply = json.dumps({"edges": [{"src": "new", "dst": "b", "relation": "uses",
                                   "confidence": 0.8, "rationale": "joins feed plots"}]})
    edits = llm_propose_edges(kg, None, edge_pass_ctx(make_client(lambda p: reply)))
    out, records = apply_edits(kg, edits)
    assert [(e.src, e.relation, e.dst, e.confidence) for e in out.edges] == [
        ("new", "uses", "b", 0.8)
    ]
    assert [(r.op, r.edges) for r in records] == [("llm-edge", [["new", "uses", "b"]])]


def test_client_cache_by_prompt():
    calls = []

    def factory(payload):
        calls.append(1)
        return '{"label": "X"}'

    client = make_client(factory)
    namer = Namer(["c"], client)
    namer.name(["same text"])
    namer.name(["same text"])
    assert len(calls) == 1


def test_offline_operations_deterministic():
    md = "# Alpha\nalpha body text\n## Beta\nbeta body text"
    a = bootstrap_kg(md)
    b = bootstrap_kg(md)
    assert [n.__dict__ for n in a.nodes] == [n.__dict__ for n in b.nodes]
    assert [e.__dict__ for e in a.edges] == [e.__dict__ for e in b.edges]


PINNED_EDGE_PROMPT = """Given the knowledge-graph nodes below, propose new edges using
only this information. Allowed relations: partOf, relatedTo, uses. Reply with a single JSON
object {"edges": [{"src": str, "dst": str, "relation": str,
"confidence": float, "rationale": str}]} and nothing else.

Nodes:
- a: Tables. dataframe index column
- b: Plots. figure axis chart

Existing edges:
- a uses b
"""


def test_edge_prompt_same_from_both_callers():
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="a", label="Tables", definition="dataframe index column"),
            ConceptNode(id="b", label="Plots", definition="figure axis chart"),
        ],
        edges=[RelationEdge("a", "b", "uses", 0.5, "tables feed plots")],
    )
    relations = frozenset({"uses", "partOf", "relatedTo"})
    sent = []

    def record(payload):
        sent.append(payload["messages"][0]["content"])
        return '{"edges": []}'

    # the LLM edge pass is the prompt's one caller; it reads no alignment
    llm_propose_edges(kg, None, edge_pass_ctx(make_client(record), relations))
    assert sent == [PINNED_EDGE_PROMPT]


def test_client_retries_with_backoff_until_json(monkeypatch):
    slept = []
    monkeypatch.setattr("rdkg.embeddings.time.sleep", slept.append)
    replies = [OSError("down"), "not json", '{"label": "X"}']
    client = make_client(lambda p: replies.pop(0), retries=2)
    assert client.chat_json("prompt") == {"label": "X"}
    assert replies == [] and slept == [0.5, 1.0]

    attempts = []
    client = make_client(lambda p: attempts.append(1) or "[1, 2]", retries=2)
    assert client.chat_json("prompt") is None
    assert len(attempts) == 3


@pytest.mark.parametrize("settings, message", [
    ({"timeout": 0}, "timeout must be positive"),
    ({"retries": -1}, "retries must be nonnegative"),
])
def test_client_refuses_bad_request_settings(settings, message):
    with pytest.raises(InputError, match=message):
        LlmClient("http://fake", "m", **settings)


def test_client_sends_api_key_header(monkeypatch):
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(headers)
        return {"choices": [{"message": {"content": "{}"}}]}

    monkeypatch.setenv("LLM_API_KEY", "sekrit")
    client = LlmClient(base_url="http://fake", model="m", transport=transport)
    client.chat_json("prompt")
    assert seen == {"Content-Type": "application/json", "Authorization": "Bearer sekrit"}

"""Refinement operators and the bounded search loop."""

import hashlib
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from rdkg.analysis import _round9, coverage, coverage_tolerance, save_trace
from rdkg.embeddings import CostMemo, cosine_distance, feature_cost
from rdkg.errors import InputError, NumericalError
from rdkg.kg import (
    ALLOWED_RELATIONS,
    ConceptNode,
    KnowledgeGraph,
    RelationEdge,
    build_kg_space,
    kg_to_dict,
    node_text,
    rate,
    save_kg,
    validate_graph,
)
from rdkg.lecture import build_lecture_space
from rdkg.llm import Namer
from rdkg.ot import Coupling, fgw
from rdkg.refine import (
    THETA_ADD,
    Aligned,
    _farthest_pair,
    _merge_nodes,
    _split_node,
    EditRecord,
    OpContext,
    RefinementConfig,
    align_graph,
    apply_edits,
    column_entropy,
    covered_row_mass,
    fresh_id,
    llm_propose_edges,
    op_add,
    op_merge,
    op_prune,
    op_relate,
    op_split,
    refine,
    symmetric_kl,
    two_means,
)

from conftest import (
    TOPIC_A_WORDS,
    TOPIC_B_WORDS,
    make_section,
    random_metric,
    table_memo,
    topic_a_only_kg,
    two_topic_markdown,
)


def make_ctx(space, provider, config=None, client=None, relations=ALLOWED_RELATIONS):
    return OpContext(
        lecture=space,
        memo=CostMemo(provider.embed, space.contents()),
        namer=Namer(space.contents(), client),
        config=config or RefinementConfig(),
        llm_client=client,
        allowed_relations=relations,
    )


def solve(space, kg, provider):
    return align_graph(space, kg, CostMemo(provider.embed, space.contents()))


def hand_composed_alignment(space, kg, provider):
    """The alignment spelled out: node distance, feature cost, fgw with a
    uniform node measure; returns it with the node distance."""
    distance = build_kg_space(kg, CostMemo(provider.embed, space.contents()))
    feats = feature_cost(provider.embed(space.contents()),
                         provider.embed([node_text(n) for n in kg.nodes]))
    measure = np.full(len(kg.nodes), 1.0 / len(kg.nodes))
    result = fgw(space.distance, distance, feats, space.measure, measure)
    return Aligned(feature=feats, result=result), distance


# --- coupling statistics --------------------------------------------------------


def test_covered_row_mass_indicator_extremes():
    plan = np.full((4, 2), 0.125)
    low = np.zeros((4, 2))
    high = np.ones((4, 2))
    assert np.allclose(covered_row_mass(plan, low, tol=0.1), 0.25)  # all within tol
    assert np.allclose(covered_row_mass(plan, high, tol=0.1), 0.0)  # none within tol


def test_covered_row_mass_partial():
    # 40% of a uniform row's mass within tolerance: 0.4 * 1/50 = 0.008
    n, m = 50, 10
    plan = np.full((n, m), 1.0 / (n * m))
    feats = np.ones((n, m))
    feats[:, :4] = 0.0
    rho = covered_row_mass(plan, feats, tol=0.5)
    assert rho[0] == pytest.approx(0.4 * (1.0 / n))
    assert rho[0] < THETA_ADD


def test_covered_row_mass_shape_mismatch():
    with pytest.raises(InputError):
        covered_row_mass(np.ones((2, 2)), np.ones((2, 3)), 0.1)


def test_column_entropy_uniform_and_onehot():
    n = 8
    uniform = np.full((n, 1), 1.0 / n)
    onehot = np.zeros((n, 1))
    onehot[3, 0] = 1.0
    assert column_entropy(uniform)[0] == pytest.approx(1.0)
    assert column_entropy(onehot)[0] == 0.0


def test_column_entropy_two_rows():
    col = np.array([[0.5], [0.5]])
    assert column_entropy(col)[0] == pytest.approx(1.0)


def test_column_entropy_zero_column():
    plan = np.zeros((3, 2))
    plan[:, 0] = 1 / 3
    assert column_entropy(plan).tolist() == [pytest.approx(1.0), 0.0]


def test_symmetric_kl_values():
    p = np.array([0.75, 0.25])
    q = np.array([0.25, 0.75])
    # hand oracle: each direction is 0.5 * ln 3
    assert symmetric_kl(p, q) == pytest.approx(0.5 * math.log(3.0), rel=1e-5)
    assert symmetric_kl(p, p) == 0.0
    # the same column normalized from two scalings differs only by
    # rounding; unclamped, this pair sums to about -1e-18
    column = np.array([0.6855419844806947, 0.6504592762678163, 0.6884467305709401,
                       0.3889214239791038, 0.13509650502241122, 0.7214883401940817,
                       0.5253543224757259])
    rng = np.random.default_rng(3)
    pairs = [(column, 3.0 * column)] + [
        (c, s * c) for c, s in zip(rng.random((20, 7)), rng.uniform(0.1, 10.0, 20))
    ]
    for a, b in pairs:
        kl = symmetric_kl(a / a.sum(), b / b.sum())
        assert kl >= 0.0 and kl < 1e-15
        assert f"{kl:.4f}" == "0.0000"
    kl = symmetric_kl(column / column.sum(), 3.0 * column / (3.0 * column).sum())
    assert kl == 0.0 and math.copysign(1.0, kl) == 1.0


def test_symmetric_kl_smoothing_keeps_finite():
    one_hot = np.array([1.0, 0.0])
    uniform = np.array([0.5, 0.5])
    value = symmetric_kl(one_hot, uniform)
    assert value > 5.0 and np.isfinite(value)


def test_symmetric_kl_length_mismatch():
    with pytest.raises(InputError):
        symmetric_kl(np.array([1.0]), np.array([0.5, 0.5]))


def prune_with(plan, kg):
    """``op_prune`` against ``plan``: it reads only the coupling and TAU."""
    aligned = SimpleNamespace(coupling=SimpleNamespace(matrix=plan))
    return op_prune(kg, aligned, SimpleNamespace())


def test_edge_support_arithmetic(gates):
    # an edge's support is the product of its endpoints' column masses
    plan = np.array([[0.25, 0.125, 0.0], [0.25, 0.125, 0.25]])
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=x, label=x.upper()) for x in "abc"],
        edges=[RelationEdge("a", "b", "uses", 0.5), RelationEdge("c", "b", "partOf", 0.5)],
    )
    gates(tau=0.0625)
    assert prune_with(plan, kg) == []  # supports 0.125 and 0.0625
    gates(tau=0.07)
    out, records = apply_edits(kg, prune_with(plan, kg))
    assert [(e.src, e.dst) for e in out.edges] == [("a", "b")]
    assert [r.rationale for r in records] == ["support 6.250e-02 below tau"]
    gates(tau=0.13)
    out, records = apply_edits(kg, prune_with(plan, kg))
    assert out.edges == [] and len(records) == 2


def test_edge_support_zero_column_prunes():
    plan = np.zeros((4, 2))
    plan[:, 0] = 0.25
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=x, label=x.upper()) for x in "ab"],
        edges=[RelationEdge("a", "b", "uses", 0.5)],
    )
    out, records = apply_edits(kg, prune_with(plan, kg))
    assert out.edges == []
    assert [r.rationale for r in records] == ["support 0.000e+00 below tau"]


def test_top_coupled_ties_lowest_index(gates):
    # column 0 ties six elements, column 1 ties six at 0 behind element 6;
    # element 5 is far from every other, so the pair is related only if
    # both columns take their ties to the lowest index and leave 5 out
    plan = np.zeros((7, 2))
    plan[:6, 0], plan[6, 0], plan[6, 1] = 0.2, 0.1, 1.0
    d = np.full((7, 7), 0.1)
    d[5, :] = d[:, 5] = 1.0
    np.fill_diagonal(d, 0.0)
    assert top_coupled_reference(plan, 0) == [0, 1, 2, 3, 4]
    assert top_coupled_reference(plan, 1) == [6, 0, 1, 2, 3]
    kg = KnowledgeGraph(nodes=[ConceptNode(id=f"n{j}", label=f"N{j}") for j in range(2)])
    gates(theta_relate=0.2)
    _, records = apply_edits(kg, op_relate(kg, fake_aligned(plan), relate_ctx(d)))
    assert [r.edges[0] for r in records] == [["n0", "relatedTo", "n1"]]


# --- two_means ------------------------------------------------------------------


def test_two_means_separates_clusters():
    pts = np.array([[1.0, 0.0], [1.1, 0.0], [1.0, 0.1], [-5.0, 5.0], [-5.1, 5.0]])
    labels = two_means(pts)
    assert len(set(labels[:3])) == 1
    assert len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_two_means_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(10, 4))
    assert np.array_equal(two_means(pts), two_means(pts))


def test_two_means_identical_points_repair():
    pts = np.ones((5, 3))
    labels = two_means(pts)
    assert set(labels) == {0, 1}  # repair keeps both clusters nonempty


def scalar_farthest_pair(pts):
    """Reference seeding: every pair scored on its own with ``feature_cost``,
    the first strict improvement in row order wins."""
    pair, best = (0, 1), -1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = feature_cost(pts[i : i + 1], pts[j : j + 1])[0, 0]
            if d > best:
                best, pair = d, (i, j)
    return pair


def reference_two_means(pts, max_iters=25):
    """two_means with the scalar seeding scan."""
    a, b = scalar_farthest_pair(pts)
    centroids = np.stack([pts[a], pts[b]])
    labels = None
    for _ in range(max_iters):
        d0 = ((pts - centroids[0]) ** 2).sum(axis=1)
        d1 = ((pts - centroids[1]) ** 2).sum(axis=1)
        new_labels = (d1 < d0).astype(int)
        for cluster in (0, 1):
            if not (new_labels == cluster).any():
                far = int(np.argmax(((pts - centroids[1 - cluster]) ** 2).sum(axis=1)))
                new_labels[far] = cluster
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        for cluster in (0, 1):
            centroids[cluster] = pts[labels == cluster].mean(axis=0)
    return labels


def tied_point_sets():
    """Point sets with exact duplicates and many pairs tied at the maximum.

    Antipodal copies put every (v, -v) pair at distance ~2; scaled
    copies differ from their originals only in the last bits of the unit
    row, so the tied distances differ by an ulp or not at all.
    """
    rng = np.random.default_rng(7)
    sets = [
        np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.ones((5, 3)),
    ]
    for _ in range(30):
        base = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), 8)).astype(float)
        base[~base.any(axis=1), 0] = 1.0
        copies = [base, -base, 3.0 * base, -7.0 * base, base]
        pts = np.concatenate(copies)[rng.permutation(5 * len(base))]
        sets.append(pts)
    return sets


def test_farthest_pair_matches_scalar_scan_on_ties():
    for pts in tied_point_sets():
        cost = feature_cost(pts, pts)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        top = max(cost[p] for p in pairs)
        pair = _farthest_pair(pts)
        assert pair in pairs and cost[pair] == top
        assert all(cost[p] < top for p in pairs[: pairs.index(pair)])
        assert pair == scalar_farthest_pair(pts)
    assert _farthest_pair(np.ones((5, 3))) == (0, 1)  # exact duplicates: the first pair


def test_two_means_matches_scalar_seeding_on_ties():
    for pts in tied_point_sets():
        assert np.array_equal(two_means(pts), reference_two_means(pts))


# --- operators ---------------------------------------------------------------------


def test_op_add_no_candidates_is_noop(provider):
    # identical unit and node texts give an all-zero feature cost, so the
    # tolerance is 0 and every row keeps its full mass above THETA_ADD
    lines = ["# T", "", "## S", ""]
    for _ in range(6):
        lines += ["identical content block repeated verbatim.", ""]
    space = build_lecture_space("\n".join(lines), embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id="n1", label="identical content block repeated verbatim.")]
    )
    aligned = solve(space, kg, provider)
    assert aligned.feature.max() < 1e-12
    ctx = make_ctx(space, provider)
    assert op_add(kg, aligned, ctx) == []


def test_op_add_fallback_edge_to_nearest(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    aligned = solve(space, kg, provider)
    ctx = make_ctx(space, provider)
    out, records = apply_edits(kg, op_add(kg, aligned, ctx))
    assert records, "under-covered topic B must trigger adds"
    assert len(records) <= RefinementConfig().max_adds
    for record in records:
        assert record.op == "add"
        assert len(record.edges) == 1
        assert record.edges[0][1] == "relatedTo"
    assert validate_graph(out) == []
    assert rate(out) >= rate(kg) + 1.0  # each add contributes at least a node
    new_nodes = [n for n in out.nodes if n.id not in {"n1", "n2", "n3"}]
    assert all(n.definition and len(n.definition) <= 1000 for n in new_nodes)
    assert all(n.provenance and n.provenance.get("path") for n in new_nodes)


def test_op_add_cap_and_ordering(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    aligned = solve(space, kg, provider)
    cfg = RefinementConfig(max_adds=2)
    ctx = make_ctx(space, provider, cfg)
    tol = coverage_tolerance(aligned.feature)
    rho = covered_row_mass(aligned.coupling.matrix, aligned.feature, tol)
    out, records = apply_edits(kg, op_add(kg, aligned, ctx))
    assert len(records) == 2
    # groups are taken lowest mass first; every skipped flagged element
    # has mass at least the worst accepted group's minimum
    flagged = [i for i in range(len(rho)) if rho[i] < THETA_ADD]
    assert flagged


def _add_group_starts(space, aligned, tol):
    """First row of each span op_add would flag at tolerance ``tol``."""
    rho = covered_row_mass(aligned.coupling.matrix, aligned.feature, tol)
    flagged = {i for i in range(len(rho)) if rho[i] < THETA_ADD}
    paths = [e.section_path for e in space.elements]
    return {i for i in flagged if i - 1 not in flagged or paths[i - 1] != paths[i]}


@pytest.mark.parametrize("percentile", [5.0, 60.0])
def test_op_add_flags_rows_by_the_configured_coverage_rule(provider, percentile, monkeypatch):
    # the rule is analysis.COVERAGE_PERCENTILE, which op_add reads through
    # the alignment's tolerance
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    aligned = solve(space, kg, provider)
    cfg = RefinementConfig(max_adds=100)
    starts = _add_group_starts(space, aligned, float(np.percentile(aligned.feature, percentile)))
    # the case is only informative where the default rule flags other spans
    assert starts != _add_group_starts(space, aligned, coverage_tolerance(aligned.feature))
    monkeypatch.setattr("rdkg.analysis.COVERAGE_PERCENTILE", percentile)
    _, records = apply_edits(kg, op_add(kg, aligned, make_ctx(space, provider, cfg)))
    # a node is named after the first unit of its span
    assert {r.nodes[0] for r in records} == {f"add_{i}" for i in starts}


def empty_reply_client(sent):
    """An LLM client that answers every prompt with ``{}`` and appends
    each prompt that reaches its transport to ``sent``."""
    from rdkg.llm import LlmClient

    def transport(url, payload, headers, timeout):
        sent.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": "{}"}}]}

    return LlmClient("http://fake", "m", retries=0, transport=transport)


def test_op_add_sends_and_keeps_extra_relations(provider):
    # op_add asks for no edges; the LLM edge pass on its graph offers the
    # run's extra relation, and a proposed edge with that relation
    # touching an added node is kept in the pass's batch
    from rdkg.llm import LlmClient

    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    relations = ALLOWED_RELATIONS | {"causes"}
    edge_prompts = []

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        content = "{}"
        if "propose new edges" in prompt:
            edge_prompts.append(prompt)
            nodes = prompt.split("Nodes:\n")[1].split("\n\n")[0].splitlines()
            ids = [line[2:].split(":")[0] for line in nodes]
            content = json.dumps({"edges": [{
                "src": ids[-1], "dst": ids[0], "relation": "causes",
                "confidence": 0.7, "rationale": "the new span causes the first",
            }]})
        return {"choices": [{"message": {"content": content}}]}

    client = LlmClient("http://fake", "m", retries=0, transport=transport)
    ctx = make_ctx(space, provider, client=client, relations=relations)
    added, add_records = apply_edits(kg, op_add(kg, solve(space, kg, provider), ctx))
    assert add_records and edge_prompts == []
    out, records = apply_edits(added, llm_propose_edges(added, solve(space, added, provider), ctx))
    (prompt,) = edge_prompts
    assert "causes" in prompt.split("Allowed relations:")[1].split(".")[0]
    # the prompt shows the graph with every added node
    new_ids = [r.nodes[0] for r in add_records]
    nodes = prompt.split("Nodes:\n")[1].split("\n\n")[0].splitlines()
    assert [line[2:].split(":")[0] for line in nodes] == kg.node_ids() + new_ids
    assert [r.edges for r in records] == [[[new_ids[-1], "causes", "n1"]]]
    assert out.edges[:-1] == added.edges
    assert validate_graph(out, relations) == []


def test_op_add_asks_the_llm_only_for_names(provider):
    # with a client, op_add's requests are its name prompts, and each new
    # node gets the nearest-node edge that the run without a client gives it
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    aligned = solve(space, kg, provider)
    sent = []
    client = empty_reply_client(sent)
    out, records = apply_edits(kg, op_add(kg, aligned, make_ctx(space, provider, client=client)))
    plain, plain_records = apply_edits(kg, op_add(kg, aligned, make_ctx(space, provider)))
    assert len(records) >= 2
    assert len(sent) == len(records)
    assert all(prompt.startswith("Propose a concise concept label") for prompt in sent)
    assert [asdict(r) for r in records] == [asdict(r) for r in plain_records]
    assert out.edges == plain.edges and out.edges[len(kg.edges):]
    assert all(e.relation == "relatedTo" for e in out.edges[len(kg.edges):])


def test_fresh_id_takes_the_least_free_suffix_of_the_graph():
    kg = KnowledgeGraph(nodes=[ConceptNode(id=i, label=i) for i in ("add_3", "add_3_1", "c")])
    assert fresh_id(kg, "add_4") == "add_4"
    # the same graph gives the same id on every call, so a re-proposed edit repeats
    assert fresh_id(kg, "add_3") == fresh_id(kg, "add_3") == "add_3_2"


def test_a_re_proposed_add_batch_sends_no_new_edge_prompts(provider):
    # the added nodes' ids do not name the iteration, so an add batch
    # proposed again on the same graph and alignment has the same ids and
    # names; it sends no edge prompt, and its name prompts are answered by
    # the client's prompt cache: the determinism the search's fixed-point
    # stop rests on
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    sent = []  # every prompt that reached the transport
    ctx = make_ctx(space, provider, client=empty_reply_client(sent))
    aligned = solve(space, kg, provider)
    calls = []  # per op_add call: (its records, the prompts it sent)
    for _ in range(2):
        before = len(sent)
        _, records = apply_edits(kg, op_add(kg, aligned, ctx))
        calls.append(([(r.nodes, r.edges) for r in records], sent[before:]))
    (records, prompts), (records_again, prompts_again) = calls
    assert records == records_again and len(records) > 0
    assert prompts and not any("propose new edges" in prompt for prompt in prompts)
    assert prompts_again == []


def test_op_add_costs_its_new_nodes_in_one_memo_read(provider, monkeypatch):
    # the batch's new texts are costed once, against the units and against
    # the nodes before them; the solve after the edit costs nothing new
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    ctx = make_ctx(space, provider)
    aligned = align_graph(space, kg, ctx.memo)
    embeddings_module = sys.modules["rdkg.embeddings"]
    original = embeddings_module._cost  # the kernel behind feature_cost and self_cost
    calls = []
    monkeypatch.setattr(embeddings_module, "_cost",
                        lambda a, b, n, m: calls.append((n, m)) or original(a, b, n, m))
    out, records = apply_edits(kg, op_add(kg, aligned, ctx))
    assert len(records) >= 2
    assert calls == [(len(space.elements), len(records)), (len(out.nodes), len(records))]
    align_graph(space, out, ctx.memo)
    assert len(calls) == 2
    # each fallback edge goes to the first node before it at the least cost
    costs = ctx.memo.pair_cost([node_text(n) for n in out.nodes])
    ids = out.node_ids()
    for record in records:
        k = ids.index(record.nodes[0])
        nearest = ids[int(np.argmin(costs[k, :k]))]
        assert record.edges == [[record.nodes[0], "relatedTo", nearest]]


def test_an_add_applied_out_of_batch_order_links_to_its_own_nearest(provider, monkeypatch):
    # each add reads its costs from the memo by node text when it is applied,
    # so a subset of the batch, or the batch in another order, links every
    # new node to the least-cost node before it, and embeds nothing new
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    ctx = make_ctx(space, provider)
    edits = op_add(kg, solve(space, kg, provider), ctx)
    assert len(edits) >= 3
    embeddings_module = sys.modules["rdkg.embeddings"]
    original = embeddings_module._cost  # the kernel behind feature_cost and self_cost
    calls = []
    monkeypatch.setattr(embeddings_module, "_cost",
                        lambda a, b, n, m: calls.append((n, m)) or original(a, b, n, m))
    for subset in ([edits[2], edits[0]], edits[::-1]):
        out, records = apply_edits(kg, subset)
        costs = ctx.memo.pair_cost([node_text(n) for n in out.nodes])
        ids = out.node_ids()
        for record in records:
            k = ids.index(record.nodes[0])
            nearest = ids[int(np.argmin(costs[k, :k]))]
            assert record.edges == [[record.nodes[0], "relatedTo", nearest]]
    assert calls == []


def test_op_split_trivial_noop(provider, gates):
    md = "\n".join(["# T", "", make_section("Topic", TOPIC_A_WORDS, 6, 0)])
    space = build_lecture_space(md, embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id="n1", label="Topic", definition=" ".join(TOPIC_A_WORDS))]
    )
    aligned = solve(space, kg, provider)
    gates(theta_split=1.5)  # unreachable threshold
    assert op_split(kg, aligned, make_ctx(space, provider)) == []


def overloaded_fixture(provider):
    lines = ["# Lecture", "", "## Linear part", ""]
    for i in range(6):
        w = [["matrix", "vector", "linear", "algebra", "eigen"][(i + j) % 5] for j in range(3)]
        lines += [f"Discussion of {w[0]} {w[1]} {w[2]} methods.", ""]
    lines += ["## Probability part", ""]
    for i in range(6):
        w = [["probability", "random", "bayes", "likelihood", "prior"][(i + j) % 5] for j in range(3)]
        lines += [f"Discussion of {w[0]} {w[1]} {w[2]} methods.", ""]
    space = build_lecture_space("\n".join(lines), embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="mix", label="Everything",
                        definition="matrix vector linear algebra eigen probability random bayes likelihood prior"),
            ConceptNode(id="anchor", label="Linear methods",
                        definition="matrix vector linear algebra eigen"),
        ],
        edges=[RelationEdge("mix", "anchor", "relatedTo", 0.5, "seed link")],
    )
    return space, kg


def test_op_split_fires_and_reduces_distortion(provider):
    space, kg = overloaded_fixture(provider)
    aligned = solve(space, kg, provider)
    ctx = make_ctx(space, provider)
    out, records = apply_edits(kg, op_split(kg, aligned, ctx))
    split_parents = [r.nodes[0] for r in records if r.op == "split"]
    assert "mix" in split_parents
    assert validate_graph(out) == []
    # children inherit the parent's incident edges
    mix_children = [n.id for n in out.nodes if n.id.startswith("mix_")]
    assert len(mix_children) == 2
    after = solve(space, out, provider)
    assert after.result.distortion < aligned.result.distortion


def test_op_split_keeps_extra_fields(provider):
    # children copy their parent's unknown fields; rewired edges keep theirs
    space, kg = overloaded_fixture(provider)
    kg.get_node("mix").extra = {"source": "seed notes", "level": 2}
    kg.get_node("anchor").extra = {"source": "syllabus"}
    kg.edges[0].extra = {"weight_hint": 0.8}
    aligned = solve(space, kg, provider)
    out, records = apply_edits(kg, op_split(kg, aligned, make_ctx(space, provider)))
    assert "mix" in [r.nodes[0] for r in records]
    for record in records:
        parent = kg.get_node(record.nodes[0])
        for child_id in record.nodes[1:]:
            child = out.get_node(child_id)
            assert child.extra == parent.extra and child.extra is not parent.extra
    assert out.edges and all(e.extra == {"weight_hint": 0.8} for e in out.edges)


def test_op_split_skips_small_subsets(provider):
    md = "\n".join(["# T", "", make_section("Tiny", TOPIC_A_WORDS, 3, 0)])
    space = build_lecture_space(md, embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id="n1", label="Tiny", definition=" ".join(TOPIC_A_WORDS))]
    )
    aligned = solve(space, kg, provider)
    # single node: its column holds everything, entropy is high, but the
    # coupled subset can be at most 3 elements, so the split must skip
    assert op_split(kg, aligned, make_ctx(space, provider)) == []


def duplicate_pair_fixture(provider):
    sections = [
        ("Alpha", TOPIC_A_WORDS[:5], 0),
        ("Beta", TOPIC_A_WORDS[5:10], 0),
        ("Gamma", TOPIC_B_WORDS[:5], 0),
        ("Delta", TOPIC_B_WORDS[5:10], 0),
    ]
    md = "\n".join(["# Topics", ""] + [make_section(t, w, 2, s) for t, w, s in sections])
    space = build_lecture_space(md, embed=provider.embed)
    nodes = [
        ConceptNode(id=f"c{k}", label=t, definition=" ".join(w))
        for k, (t, w, _) in enumerate(sections)
    ]
    nodes.append(ConceptNode(id="c3dup", label="Delta",
                             definition=" ".join(TOPIC_B_WORDS[5:10])))
    kg = KnowledgeGraph(
        nodes=nodes,
        edges=[
            RelationEdge("c1", "c0", "uses", 0.9, "x"),
            RelationEdge("c3", "c2", "uses", 0.9, "x"),
            RelationEdge("c3dup", "c2", "uses", 0.9, "x"),
        ],
    )
    return space, kg


def test_op_merge_fires_on_duplicates(provider):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    out, records = apply_edits(kg, op_merge(kg, aligned, make_ctx(space, provider)))
    assert [r.op for r in records] == ["merge"]
    assert set(records[0].nodes) == {"c3", "c3dup"}
    assert len(out.nodes) == len(kg.nodes) - 1
    assert validate_graph(out) == []
    keep = out.get_node("c3")
    assert "Delta" in keep.aliases or keep.label == "Delta"


def test_op_merge_thresholds_block(provider, gates):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    gates(theta_merge=1e-12, theta_cos=0.999999999)
    out, records = apply_edits(kg, op_merge(kg, aligned, make_ctx(space, provider)))
    # identical embeddings still satisfy cos, but near-identical (not
    # bit-identical) columns fail the tiny KL budget
    dup_records = [r for r in records if set(r.nodes) == {"c3", "c3dup"}]
    assert dup_records or records == []


def test_op_merge_identical_columns_always_fires():
    # hand-built state: two nodes with identical embeddings and columns
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="a", label="A"),
            ConceptNode(id="b", label="B"),
            ConceptNode(id="c", label="C"),
        ]
    )
    plan = np.array([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]])
    pi = Coupling(plan, plan.sum(axis=1), plan.sum(axis=0))
    memo = table_memo({"A": [1.0, 0.0], "B": [1.0, 0.0], "C": [0.0, 1.0]})
    result = type("FakeResult", (), {"coupling": pi})()
    aligned = Aligned(feature=np.zeros((2, 3)), result=result)
    ctx = type("FakeCtx", (), {"config": RefinementConfig(), "memo": memo})()
    out, records = apply_edits(kg, op_merge(kg, aligned, ctx))
    assert [r.op for r in records] == ["merge"]
    assert records[0].nodes == ["a", "b"]
    assert records[0].rationale == "cosine above 0.9, symmetric KL 0.0000"


def test_op_merge_cosine_threshold_is_one_minus_the_memo_cost(gates):
    # identical columns (KL 0), so only the cosine test decides; THETA_COS
    # set exactly to each pair's similarity, one minus its memo cost, must
    # still admit it
    rng = np.random.default_rng(5)
    emb = rng.integers(-2, 3, size=(6, 8)).astype(float)
    emb[~emb.any(axis=1), 0] = 1.0
    plan = np.full((3, 6), 1.0 / 18)
    pi = Coupling(plan, plan.sum(axis=1), plan.sum(axis=0))
    kg = KnowledgeGraph(nodes=[ConceptNode(id=f"v{i}", label=f"V{i}") for i in range(6)])
    memo = table_memo({f"V{i}": row for i, row in enumerate(emb)})
    similarity = 1.0 - memo.pair_cost([f"V{i}" for i in range(6)])
    result = type("FakeResult", (), {"coupling": pi})()
    aligned = Aligned(feature=np.zeros((3, 6)), result=result)
    for i in range(6):
        for j in range(i + 1, 6):
            theta = similarity[i, j]
            assert theta == pytest.approx(1.0 - cosine_distance(emb[i], emb[j]), abs=1e-12)
            if theta <= 0:
                continue
            gates(theta_cos=theta)
            ctx = type("FakeCtx", (), {"config": RefinementConfig(), "memo": memo})()
            _, records = apply_edits(kg, op_merge(kg, aligned, ctx))
            expected, used = [], set()
            for a in range(6):
                if len(expected) >= 3 or a in used:
                    continue
                for b in range(a + 1, 6):
                    if b not in used and similarity[a, b] >= theta:
                        expected.append([f"v{a}", f"v{b}"])
                        used.update((a, b))
                        break
            assert [r.nodes for r in records] == expected


def test_op_merge_respects_cap(provider):
    space, kg = duplicate_pair_fixture(provider)
    # add a second duplicate pair
    kg.nodes.append(ConceptNode(id="c2dup", label="Gamma",
                                definition=" ".join(TOPIC_B_WORDS[:5])))
    kg.edges.append(RelationEdge("c2dup", "c3", "uses", 0.9, "x"))
    aligned = solve(space, kg, provider)
    cfg = RefinementConfig(max_merges=1)
    out, records = apply_edits(kg, op_merge(kg, aligned, make_ctx(space, provider, cfg)))
    assert len(records) == 1


def test_op_relate_threshold_behavior(provider, gates):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    ctx = make_ctx(space, provider)
    # permissive threshold connects everything unconnected; strict connects nothing
    gates(theta_relate=0.999)
    out_hi, rec_hi = apply_edits(kg, op_relate(kg, aligned, ctx))
    assert rec_hi and all(r.op == "relate-add" for r in rec_hi)
    assert all(r.edges[0][1] == "relatedTo" for r in rec_hi)
    assert validate_graph(out_hi) == []
    gates(theta_relate=1e-9)
    assert op_relate(kg, aligned, ctx) == []


def test_op_relate_skips_connected_pairs(provider, gates):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    gates(theta_relate=0.999)
    out, records = apply_edits(kg, op_relate(kg, aligned, make_ctx(space, provider)))
    connected_before = {e.key()[:2] for e in kg.edges}
    for record in records:
        src, _, dst = record.edges[0]
        assert tuple(sorted((src, dst))) not in connected_before


def top_coupled_reference(plan, column):
    """The 5 largest entries of a column, ties to the lowest index."""
    return sorted(range(plan.shape[0]), key=lambda i: (-plan[i, column], i))[:5]


def reference_relate_edges(kg, plan, d_lecture, theta):
    """Per-pair definition of op_relate: scan j < k, skip connected
    pairs (edges added so far included), mean over p != q cross pairs."""
    m = len(kg.nodes)
    tops = [top_coupled_reference(plan, j) for j in range(m)]
    working = kg.copy()
    added = []
    for j in range(m):
        for k in range(j + 1, m):
            a, b = kg.nodes[j].id, kg.nodes[k].id
            if working.has_edge_between(a, b):
                continue
            distances = [d_lecture[p, q] for p in tops[j] for q in tops[k] if p != q]
            if distances and float(np.mean(distances)) < theta:
                working.edges.append(RelationEdge(a, b, "relatedTo", 0.5))
                added.append([a, "relatedTo", b])
    return added


def hand_built_relate_state(n_elements=8):
    """Five nodes over an 8-element lecture; columns chosen so the
    top-5 sets overlap (shared indices hit the p == q exclusion), and an
    existing edge joins n0 and n2."""
    rng = np.random.default_rng(11)
    d = random_metric(n_elements, rng)
    plan = np.full((n_elements, 5), 1e-4)
    for j in range(5):
        for rank, i in enumerate(range(j, j + 5)):
            plan[i % n_elements, j] += 0.05 - 0.005 * rank
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=f"n{j}", label=f"N{j}") for j in range(5)],
        edges=[RelationEdge("n2", "n0", "uses", 0.9)],
    )
    return kg, plan, d, fake_aligned(plan)


def fake_aligned(plan):
    """Stand-in for an Aligned whose coupling holds ``plan``."""
    pi = Coupling(plan, plan.sum(axis=1), plan.sum(axis=0))
    return type("FakeAligned", (), {"coupling": pi})()


def relate_ctx(d):
    lecture = type("FakeLecture", (), {"distance": d})()
    return type("FakeCtx", (), {"lecture": lecture})()


def test_op_relate_matches_per_pair_reference(gates):
    """op_relate's mean of a pair, from its one gathered block of
    ``d_lecture``, is the definition: at a threshold exactly equal to that
    mean the pair is not related. On this state it equals the per-pair
    ``np.mean`` bit for bit, so the reference agrees at every threshold,
    those at a mean included."""
    kg, plan, d, aligned = hand_built_relate_state()
    tops = [top_coupled_reference(plan, j) for j in range(5)]
    assert len(set(tops[0]) & set(tops[1])) > 0  # p == q pairs exist
    means = sorted(
        float(np.mean([d[p, q] for p in tops[j] for q in tops[k] if p != q]))
        for j in range(5) for k in range(j + 1, 5)
    )
    # thresholds between the pair means, and exactly at each of them
    # (strict <: a pair whose mean equals theta is not related)
    thetas = [means[0] / 2, *means, (means[3] + means[4]) / 2, 2.0]
    fired = 0
    for theta in thetas:
        gates(theta_relate=theta)
        out, records = apply_edits(kg, op_relate(kg, aligned, relate_ctx(d)))
        expected = reference_relate_edges(kg, plan, d, theta)
        assert [r.edges[0] for r in records] == expected
        assert [r.nodes for r in records] == [[e[0], e[2]] for e in expected]
        assert [[e.src, e.relation, e.dst] for e in out.edges[1:]] == expected
        assert ["n0", "relatedTo", "n2"] not in expected
        fired += bool(expected)
    assert 0 < fired < len(thetas)


def test_op_relate_no_distinct_cross_pairs(gates):
    # a one-element lecture: every cross pair is (0, 0), so no pair is scored
    kg, plan, _, _ = hand_built_relate_state()
    gates(theta_relate=2.0)
    assert op_relate(kg, fake_aligned(plan[:1]), relate_ctx(np.zeros((1, 1)))) == []


def test_merge_into_keeps_edge_order_and_drops_duplicates():
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=x, label=x.upper()) for x in ("a", "b", "c", "x")],
        edges=[
            RelationEdge("a", "x", "uses", 0.5),
            RelationEdge("b", "x", "uses", 0.5),  # duplicate of a-x once b is a
            RelationEdge("c", "b", "partOf", 0.5),
            RelationEdge("a", "b", "uses", 0.5),  # self-loop once b is a
            RelationEdge("x", "b", "partOf", 0.5),
        ],
    )
    record = _merge_nodes("a", "b", "why", kg)
    assert asdict(record) == {"op": "merge", "nodes": ["a", "b"], "edges": [], "rationale": "why"}
    assert [(e.src, e.relation, e.dst) for e in kg.edges] == [
        ("a", "uses", "x"), ("c", "partOf", "a"), ("x", "partOf", "a"),
    ]
    assert kg.get_node("a").aliases == ["B"]


def test_split_node_keeps_edge_order_and_drops_duplicates():
    # the children take the parent's place; the edges not touching it keep
    # their order, then come child a's rewired edges, then child b's
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=x, label=x.upper(), aliases=["alias"]) for x in ("a", "p", "b")],
        edges=[
            RelationEdge("a", "b", "uses", 0.5),
            RelationEdge("p", "a", "uses", 0.5),
            RelationEdge("b", "a", "partOf", 0.5),
            RelationEdge("b", "p", "partOf", 0.5),
            RelationEdge("a", "p", "uses", 0.5),  # duplicate of p-a once rewired
        ],
    )
    record = _split_node("p", [("First", "one"), ("Second", "two")], "why", kg)
    assert asdict(record) == {"op": "split", "nodes": ["p", "p_a", "p_b"], "edges": [],
                              "rationale": "why"}
    assert [(n.id, n.label, n.definition, n.aliases) for n in kg.nodes] == [
        ("a", "A", "", ["alias"]), ("p_a", "First", "one", ["alias"]),
        ("p_b", "Second", "two", ["alias"]), ("b", "B", "", ["alias"]),
    ]
    assert [(e.src, e.relation, e.dst) for e in kg.edges] == [
        ("a", "uses", "b"), ("b", "partOf", "a"),
        ("p_a", "uses", "a"), ("b", "partOf", "p_a"),
        ("p_b", "uses", "a"), ("b", "partOf", "p_b"),
    ]
    assert len({id(e) for e in kg.edges}) == len(kg.edges)  # child b's edges are copies


def test_merge_and_split_applies_leave_their_input_graph_untouched():
    # the applies rewire the working graph's own edges in place, so only
    # apply_edits' one copy keeps the input graph as it was
    kg = KnowledgeGraph(
        nodes=[ConceptNode(id=x, label=x.upper(), aliases=[f"{x} alias"],
                           provenance={"path": ["S", x]}, extra={"k": [x]})
               for x in ("a", "b", "p", "q")],
        edges=[
            RelationEdge("a", "b", "uses", 0.5, extra={"w": [1]}),
            RelationEdge("p", "b", "partOf", 0.5),
            RelationEdge("q", "p", "uses", 0.5),
            RelationEdge("b", "q", "partOf", 0.5),
        ],
    )
    snapshot = json.dumps(kg_to_dict(kg))
    edges = list(kg.edges)
    edits = [partial(_merge_nodes, "a", "b", "why"),
             partial(_split_node, "p", [("First", "one"), ("Second", "two")], "why")]
    out, _ = apply_edits(kg, edits)
    assert json.dumps(kg_to_dict(kg)) == snapshot and kg.edges == edges
    assert all(a is b for a, b in zip(kg.edges, edges))
    assert not {id(e) for e in out.edges} & {id(e) for e in kg.edges}
    assert [(e.src, e.relation, e.dst) for e in out.edges] == [
        ("a", "partOf", "q"), ("p_a", "partOf", "a"), ("q", "uses", "p_a"),
        ("p_b", "partOf", "a"), ("q", "uses", "p_b"),
    ]


def test_op_prune_removes_unsupported(provider, gates):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    gates(tau=10.0)  # everything is below this support
    out, records = apply_edits(kg, op_prune(kg, aligned, make_ctx(space, provider)))
    assert out.edges == []
    assert len(records) == len(kg.edges)
    assert all(r.op == "prune" for r in records)


def test_op_prune_keeps_supported(provider):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    assert op_prune(kg, aligned, make_ctx(space, provider)) == []


@pytest.fixture
def graph_copies(monkeypatch):
    """Every KnowledgeGraph.copy call from here on, by the graph copied."""
    copied = []
    copy = KnowledgeGraph.copy

    def counted(self):
        copied.append(self)
        return copy(self)

    monkeypatch.setattr(KnowledgeGraph, "copy", counted)
    return copied


def test_operators_with_nothing_to_propose_return_no_edits(provider, graph_copies, gates):
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    gates(theta_cos=2.0, theta_relate=1e-9, tau=1e-300)
    ctx = make_ctx(space, provider)
    tiny_md = "\n".join(["# T", "", make_section("Tiny", TOPIC_A_WORDS, 3, 0)])
    tiny_space = build_lecture_space(tiny_md, embed=provider.embed)
    tiny_kg = KnowledgeGraph(
        nodes=[ConceptNode(id="n1", label="Tiny", definition=" ".join(TOPIC_A_WORDS))]
    )
    tiny_aligned = solve(tiny_space, tiny_kg, provider)
    graph_copies.clear()
    calls = [
        # a split candidate whose coupled subset is too small to split
        (op_split, tiny_kg, tiny_aligned, make_ctx(tiny_space, provider)),
        (op_merge, kg, aligned, ctx),
        (op_relate, kg, aligned, ctx),
        (op_prune, kg, aligned, ctx),
    ]
    for op, graph, graph_aligned, op_ctx in calls:
        assert op(graph, graph_aligned, op_ctx) == [], op.__name__
    assert graph_copies == []


def firing_operator_calls(provider, gates):
    """Each of the six edit producers on a fixture where it proposes edits:
    (producer, graph, alignment, context), with the relate and prune gates
    set so that both fire. The LLM edge pass gets a client that proposes
    one edge."""
    from rdkg.llm import LlmClient

    def transport(url, payload, headers, timeout):
        content = "{}"
        if "propose new edges" in payload["messages"][0]["content"]:
            content = json.dumps({"edges": [{"src": "c0", "dst": "c2", "relation": "contrastsWith",
                                             "confidence": 0.6, "rationale": "other topics"}]})
        return {"choices": [{"message": {"content": content}}]}

    client = LlmClient("http://fake", "m", retries=0, transport=transport)
    space, kg = duplicate_pair_fixture(provider)
    aligned = solve(space, kg, provider)
    gates(theta_relate=0.999, tau=10.0)
    ctx = make_ctx(space, provider, client=client)
    add_space, add_kg = two_topic_fixture(provider)
    split_space, split_kg = overloaded_fixture(provider)
    return [
        (op_add, add_kg, solve(add_space, add_kg, provider), make_ctx(add_space, provider)),
        (op_split, split_kg, solve(split_space, split_kg, provider),
         make_ctx(split_space, provider)),
        (op_merge, kg, aligned, ctx),
        (op_relate, kg, aligned, ctx),
        (op_prune, kg, aligned, ctx),
        (llm_propose_edges, kg, aligned, ctx),
    ]


def test_operators_never_copy_and_apply_edits_copies_once(provider, graph_copies, gates):
    for op, graph, graph_aligned, op_ctx in firing_operator_calls(provider, gates):
        graph_copies.clear()
        edits = op(graph, graph_aligned, op_ctx)
        assert edits and graph_copies == [], op.__name__
        out, records = apply_edits(graph, edits)
        assert len(records) == len(edits) and out is not graph, op.__name__
        assert graph_copies == [graph], op.__name__


def test_edits_never_touch_the_graph_they_came_from(provider, gates):
    # refine() keeps the recorded graph and alignment uncopied, and a later
    # step may apply one edit alone: both rest on proposals and applies
    # leaving their input as it was, and on applies building their own nodes
    for op, graph, graph_aligned, op_ctx in firing_operator_calls(provider, gates):
        # kg_to_dict shares the graph's lists and dicts, so snapshot its text
        doc, plan = json.dumps(kg_to_dict(graph)), graph_aligned.coupling.matrix.tobytes()
        edits = op(graph, graph_aligned, op_ctx)
        assert edits and json.dumps(kg_to_dict(graph)) == doc, op.__name__
        first, first_records = apply_edits(graph, edits)
        second, second_records = apply_edits(graph, edits)
        assert json.dumps(kg_to_dict(graph)) == doc, op.__name__
        assert graph_aligned.coupling.matrix.tobytes() == plan, op.__name__
        assert json.dumps(kg_to_dict(first)) == json.dumps(kg_to_dict(second)) != doc, op.__name__
        assert [asdict(r) for r in first_records] == [asdict(r) for r in second_records]
        objects = [{id(x) for x in g.nodes + g.edges} for g in (graph, first, second)]
        assert sum(len(ids) for ids in objects) == len(set.union(*objects)), op.__name__


def test_llm_propose_edges_noop_without_client(provider):
    space, kg = duplicate_pair_fixture(provider)
    assert llm_propose_edges(kg, solve(space, kg, provider), make_ctx(space, provider)) == []


def test_split_then_merge_restores_count(provider):
    # the overloaded node's coupled subset is six copies of one text, so
    # the split children get proportional (same-direction) embeddings and
    # the following merge collapses them back at the count level
    lines = ["# T", "", "## S", ""]
    for _ in range(6):
        lines += ["identical content block repeated verbatim.", ""]
    lines += ["## Other", ""]
    for i in range(6):
        w = [TOPIC_B_WORDS[(i + j) % 10] for j in range(3)]
        lines += [f"Distinct material on {w[0]} {w[1]} {w[2]} here.", ""]
    space = build_lecture_space("\n".join(lines), embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="n1", label="S", definition="identical content block verbatim"),
            ConceptNode(id="other", label="Sequences",
                        definition=" ".join(TOPIC_B_WORDS)),
        ],
        edges=[RelationEdge("n1", "other", "relatedTo", 0.5, "x")],
    )
    aligned = solve(space, kg, provider)
    ctx = make_ctx(space, provider)
    split_kg, split_records = apply_edits(kg, op_split(kg, aligned, ctx))
    assert any(r.nodes[0] == "n1" for r in split_records)
    count_after_split = len(split_kg.nodes)
    aligned2 = solve(space, split_kg, provider)
    merge_kg, merge_records = apply_edits(split_kg, op_merge(split_kg, aligned2, ctx))
    assert merge_records
    assert len(merge_kg.nodes) == count_after_split - len(merge_records)


# --- refine loop --------------------------------------------------------------------


def test_refine_stable_graph_early_stops(provider, gates):
    md = "\n".join(["# T", "", make_section("One", TOPIC_A_WORDS[:5], 5, 0),
                    make_section("Two", TOPIC_A_WORDS[5:], 5, 0)])
    space = build_lecture_space(md, embed=provider.embed)
    kg = KnowledgeGraph(
        nodes=[
            ConceptNode(id="n1", label="One", definition=" ".join(TOPIC_A_WORDS[:5])),
            ConceptNode(id="n2", label="Two", definition=" ".join(TOPIC_A_WORDS[5:])),
        ],
        edges=[RelationEdge("n1", "n2", "relatedTo", 0.5, "x")],
    )
    gates(theta_add=1e-9, theta_split=1.5, theta_cos=0.9999999, theta_merge=1e-12,
          theta_relate=1e-9, tau=1e-12)
    out = refine(space, kg, provider)
    # no operator can fire: t1 keeps nothing, and the search stops there
    assert len(out.trace.points) == 2
    objectives = {p.objective for p in out.trace.points}
    assert len(objectives) == 1
    assert [n.id for n in out.graph.nodes] == ["n1", "n2"]


def test_refine_stops_after_the_first_iteration_that_keeps_nothing(provider, monkeypatch):
    # every later iteration would propose the same batches, so no operator runs again
    module = sys.modules["rdkg.refine"]
    iterations = []  # the iteration of each operator call: one past the last recorded row
    rows = [-1]  # the t of each recorded row
    original_record = module._record

    def record(trace, t, *args):
        rows.append(t)
        return original_record(trace, t, *args)

    def counted(op):
        def wrapper(kg, aligned, ctx):
            iterations.append(rows[-1] + 1)
            return op(kg, aligned, ctx)
        return wrapper

    for name in ("op_add", "op_split", "op_merge", "op_relate", "op_prune"):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    monkeypatch.setattr(module, "_record", record)
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    out = refine(space, topic_a_only_kg(), provider)
    assert rows[1:] == [p.t for p in out.trace.points]
    fixed = next(t for t, edits in enumerate(out.trace.edits) if t > 0 and not edits)
    assert 1 < fixed < RefinementConfig().max_iterations
    assert max(iterations) == fixed and len(out.trace.points) == fixed + 1
    assert out.incumbent_index == fixed - 1


def test_refine_returns_the_last_recorded_row_on_a_solver_failure(provider, monkeypatch):
    # iteration 1 keeps the add batch, then the split batch's solve fails:
    # the kept add must not leak into the returned graph
    module = sys.modules["rdkg.refine"]
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    armed = []
    original_split, original_fgw = module.op_split, module.fgw

    def op_split(graph, aligned, ctx):
        assert len(graph.nodes) > len(kg.nodes)  # the add batch was kept
        armed.append(graph.node_ids())
        return original_split(graph, aligned, ctx)

    def failing_fgw(*args):
        if armed:
            raise NumericalError("solver failure")
        return original_fgw(*args)

    monkeypatch.setattr(module, "op_split", op_split)
    monkeypatch.setattr(module, "fgw", failing_fgw)
    out = refine(space, kg, provider)
    assert len(armed) == 1
    assert out.trace.incomplete and len(out.trace.points) == 1
    assert out.incumbent_index == 0
    assert out.graph.node_ids() == kg.node_ids() and out.graph.edges == kg.edges
    monkeypatch.undo()
    assert_row_is_a_fresh_solve(out.trace.points[-1], space, out.graph, provider)
    assert rate(out.graph) == out.trace.points[-1].rate


def test_refine_duplicate_fixture_merges(provider):
    space, kg = duplicate_pair_fixture(provider)
    out = refine(space, kg, provider)
    ops = [e["op"] for edits in out.trace.edits for e in edits]
    assert "merge" in ops
    assert rate(out.graph) < rate(kg)
    assert out.trace.points[out.incumbent_index].objective <= out.trace.points[0].objective


def test_refine_trace_length_contract(provider):
    space, kg = duplicate_pair_fixture(provider)
    cfg = RefinementConfig(max_iterations=3)
    out = refine(space, kg, provider, refine_config=cfg)
    assert len(out.trace.points) <= cfg.max_iterations + 1
    assert out.trace.points[0].t == 0


def test_refine_zero_iterations(provider):
    space, kg = duplicate_pair_fixture(provider)
    out = refine(space, kg, provider, refine_config=RefinementConfig(max_iterations=0))
    assert len(out.trace.points) == 1
    assert [n.id for n in out.graph.nodes] == [n.id for n in kg.nodes]


def assert_row_is_a_fresh_solve(point, space, graph, provider):
    """``point``'s distortion and coverage are those of a fresh solve of ``graph``."""
    fresh, _ = hand_composed_alignment(space, graph, provider)
    assert point.distortion == fresh.result.distortion
    assert point.coverage == coverage(fresh.feature, fresh.coupling.matrix)


def test_refine_rows_carry_their_alignment_coverage(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()
    out = refine(space, kg, provider, refine_config=RefinementConfig(max_iterations=3))
    assert out.incumbent_index > 0
    for graph, t in ((kg, 0), (out.graph, out.incumbent_index)):
        assert_row_is_a_fresh_solve(out.trace.points[t], space, graph, provider)
    # a row that keeps nothing has the incumbent's alignment, so the last
    # row holds the coverage after the search
    assert out.trace.points[-1].coverage == out.trace.points[out.incumbent_index].coverage
    assert out.trace.points[-1].coverage != out.trace.points[0].coverage


def test_refine_takes_each_alignments_coverage_tolerance_once(provider, monkeypatch):
    # the trace row and op_add read one tolerance per graph state
    refine_module = sys.modules["rdkg.refine"]
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    taken = []  # the cost matrices themselves, so no id is reused

    def counted(feature):
        taken.append(feature)
        return coverage_tolerance(feature)

    monkeypatch.setattr(refine_module, "coverage_tolerance", counted)
    out = refine(space, topic_a_only_kg(), provider,
                 refine_config=RefinementConfig(max_iterations=3))
    assert out.incumbent_index > 0
    assert len(taken) == len({id(f) for f in taken}) == out.incumbent_index + 1


def test_align_graph_equals_the_hand_composed_solve(provider, monkeypatch, gates):
    refine_module = sys.modules["rdkg.refine"]
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    _, duplicate_kg = duplicate_pair_fixture(provider)
    # at the constants, then at other values of each, read when the solve runs
    cases = [(topic_a_only_kg(), {}),
             (duplicate_kg, {"gamma": (0.7, 0.3), "lambda_feat": 0.3, "epsilon": 0.02})]
    solves = []
    monkeypatch.setattr(refine_module, "fgw", lambda *a: solves.append(a) or fgw(*a))
    for kg, constants in cases:
        gates(**constants)
        got = align_graph(space, kg, CostMemo(provider.embed, space.contents()))
        want, distance = hand_composed_alignment(space, kg, provider)
        _, solved_distance, _, _, solved_measure = solves.pop()
        assert np.array_equal(solved_distance, distance)
        assert np.array_equal(solved_measure, np.full(len(kg.nodes), 1.0 / len(kg.nodes)))
        assert np.array_equal(got.feature, want.feature)
        assert np.array_equal(got.coupling.matrix, want.coupling.matrix)
        for name in ("distortion", "structure_term", "feature_term", "history",
                     "outer_iterations", "converged"):
            assert getattr(got.result, name) == getattr(want.result, name)


OPERATOR_NAMES = ("op_add", "op_split", "op_merge", "op_relate", "op_prune")


def spy_operators(monkeypatch):
    """Rebind the five operators; return the list of each call's (name, graph).

    The list holds the graphs, so no two live states share an ``id``."""
    module = sys.modules["rdkg.refine"]
    calls = []
    for name in OPERATOR_NAMES:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda kg, *args, _op=original, _name=name:
                            calls.append((_name, kg)) or _op(kg, *args))
    return calls


def test_refine_calls_the_operators_bound_in_its_module(provider, monkeypatch):
    # a tool that rebinds rdkg.refine.op_* (such as a span tracer) sees every call
    calls = spy_operators(monkeypatch)
    space, kg = duplicate_pair_fixture(provider)
    refine(space, kg, provider, refine_config=RefinementConfig(max_iterations=2))
    names = [name for name, _ in calls]
    # the operators run in their fixed order until the fixed point
    assert set(names) == set(OPERATOR_NAMES)
    assert names == [OPERATOR_NAMES[k % len(OPERATOR_NAMES)] for k in range(len(names))]


def two_topic_fixture(provider):
    return build_lecture_space(two_topic_markdown(), embed=provider.embed), topic_a_only_kg()


@pytest.mark.parametrize("fixture", [two_topic_fixture, duplicate_pair_fixture,
                                     overloaded_fixture])
def test_refine_runs_each_operator_once_per_graph_state(provider, monkeypatch, fixture):
    calls = spy_operators(monkeypatch)
    space, kg = fixture(provider)
    out = refine(space, kg, provider)
    states = [(name, id(graph)) for name, graph in calls]
    assert len(states) == len(set(states))
    # every operator's last run saw the returned graph: the fixed point
    last = {name: graph for name, graph in calls}
    assert set(last) == set(OPERATOR_NAMES)
    assert all(graph is out.graph for graph in last.values())
    assert len(out.trace.points) - 1 < RefinementConfig().max_iterations


def fgw_inputs_digest(args) -> str:
    digest = hashlib.sha256()
    for arg in args:
        if isinstance(arg, np.ndarray):
            digest.update(repr((arg.dtype.str, arg.shape)).encode())
            digest.update(np.ascontiguousarray(arg).tobytes())
        else:
            digest.update(repr(arg).encode())
    return digest.hexdigest()


def test_refine_solves_no_input_set_twice(provider, monkeypatch):
    # on this fixture an operator run twice on one graph would re-propose a
    # rejected batch and solve its inputs again
    module = sys.modules["rdkg.refine"]
    digests = []
    monkeypatch.setattr(module, "fgw", lambda *a: digests.append(fgw_inputs_digest(a)) or fgw(*a))
    out = refine(*two_topic_fixture(provider), provider)
    assert sum(len(row) for row in out.trace.rejected) > 0
    assert len(digests) > len(out.trace.points)
    assert len(digests) == len(set(digests))


def test_refine_objective_identity(provider):
    space, kg = duplicate_pair_fixture(provider)
    out = refine(space, kg, provider, refine_config=RefinementConfig(max_iterations=2))
    for p in out.trace.points:
        assert p.objective == pytest.approx(p.rate + 100.0 * p.distortion, abs=1e-9)


def test_refine_validity_after_every_iteration(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    out = refine(space, topic_a_only_kg(), provider,
                 refine_config=RefinementConfig(max_iterations=4))
    assert validate_graph(out.graph) == []


def test_refine_caps_respected(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    cfg = RefinementConfig(max_iterations=4, max_adds=2, max_splits=1, max_merges=1)
    out = refine(space, topic_a_only_kg(), provider, refine_config=cfg)
    for edits in out.trace.edits:
        ops = [e["op"] for e in edits]
        assert ops.count("add") <= cfg.max_adds
        assert ops.count("split") <= cfg.max_splits
        assert ops.count("merge") <= cfg.max_merges


def test_refine_deterministic(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    cfg = RefinementConfig(max_iterations=3)
    a = refine(space, topic_a_only_kg(), provider, refine_config=cfg)
    b = refine(space, topic_a_only_kg(), provider, refine_config=cfg)
    assert [p.__dict__ for p in a.trace.points] == [p.__dict__ for p in b.trace.points]
    assert a.trace.edits == b.trace.edits
    assert kg_to_dict(a.graph) == kg_to_dict(b.graph)


def test_refine_embeds_each_text_once(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    seen = []

    class Counting:
        def embed(self, texts):
            seen.extend(texts)
            return provider.embed(texts)

    out = refine(space, topic_a_only_kg(), Counting(),
                 refine_config=RefinementConfig(max_iterations=3))
    assert len(out.trace.points) > 1 and sum(len(e) for e in out.trace.edits) > 0
    assert len(seen) == len(set(seen))


def test_refine_costs_each_node_text_once(provider, monkeypatch):
    embeddings_module = sys.modules["rdkg.embeddings"]
    refine_module = sys.modules["rdkg.refine"]
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    unit_rows = provider.embed(space.contents())
    unit_columns = node_rows = 0
    solved_texts = set()
    original_cost = embeddings_module.feature_cost
    original_self_cost = embeddings_module.self_cost
    original_build = refine_module.build_kg_space
    original_align = refine_module.align_graph
    solved = []  # every alignment of the search, with its graph's node texts

    # the memo's node costs, looked up in rdkg.embeddings: each new text's
    # column against the units and its rows against the texts (self_cost).
    # The split seeding costs unit-row subsets through refine's own
    # binding of self_cost, and those are not node costs.
    def cost_spy(source, target, *args, **kwargs):
        nonlocal unit_columns
        if np.array_equal(source, unit_rows):
            unit_columns += len(target)
        return original_cost(source, target, *args, **kwargs)

    def self_cost_spy(rows, start=0):
        nonlocal node_rows
        node_rows += len(rows) - start
        return original_self_cost(rows, start)

    def build_spy(kg, memo):
        solved_texts.update(node_text(n) for n in kg.nodes)
        return original_build(kg, memo)

    def align_spy(lecture, kg, *args):
        aligned = original_align(lecture, kg, *args)
        solved.append(([node_text(n) for n in kg.nodes], aligned))
        return aligned

    monkeypatch.setattr(embeddings_module, "feature_cost", cost_spy)
    monkeypatch.setattr(embeddings_module, "self_cost", self_cost_spy)
    monkeypatch.setattr(refine_module, "build_kg_space", build_spy)
    monkeypatch.setattr(refine_module, "align_graph", align_spy)
    out = refine(space, topic_a_only_kg(), provider,
                 refine_config=RefinementConfig(max_iterations=4))
    monkeypatch.undo()
    assert len(out.trace.points) > 2 and sum(len(e) for e in out.trace.edits) > 0
    assert unit_columns == node_rows == len(solved_texts)
    assert len(solved) > len(out.trace.points)  # rejected batches were solved too
    for texts, aligned in solved:
        assert np.array_equal(aligned.feature, feature_cost(unit_rows, provider.embed(texts)))


def test_refine_incumbent_is_argmin(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    out = refine(space, topic_a_only_kg(), provider,
                 refine_config=RefinementConfig(max_iterations=5))
    objectives = [p.objective for p in out.trace.points]
    assert out.trace.points[out.incumbent_index].objective == min(objectives)


@pytest.mark.parametrize("fixture", [duplicate_pair_fixture, overloaded_fixture])
def test_refine_objective_never_rises(provider, fixture):
    space, kg = fixture(provider)
    out = refine(space, kg, provider)
    objectives = [p.objective for p in out.trace.points]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert len(out.trace.rejected) == len(out.trace.points)
    for batches in out.trace.rejected:
        for batch in batches:
            assert batch["delta_L"] >= 0
            assert {e["op"] for e in batch["edits"]} == {batch["op"]}
            assert all(set(e) == set(asdict(EditRecord(op=""))) for e in batch["edits"])


def counted_solves(monkeypatch):
    """The graphs that refine() passes to align_graph, and the fgw calls."""
    module = sys.modules["rdkg.refine"]
    graphs, solves = [], []
    original_align, original_fgw = module.align_graph, module.fgw

    def aligning(lecture, kg, *args):
        graphs.append(kg)
        return original_align(lecture, kg, *args)

    monkeypatch.setattr(module, "align_graph", aligning)
    monkeypatch.setattr(module, "fgw", lambda *a: solves.append(a) or original_fgw(*a))
    return graphs, solves


def add_stray(working):
    working.nodes.append(ConceptNode(id="stray", label="Volcanoes",
                                     definition="magma lava eruption crater"))
    return EditRecord(op="add", nodes=["stray"])


#: Gates under which, with max_merges 0, no operator of the module fires on
#: the duplicate-pair fixture.
QUIET_GATES = dict(theta_add=1e-9, theta_split=1.5, theta_relate=1e-9, tau=1e-12)


def test_refine_rejects_a_batch_that_raises_the_objective(provider, monkeypatch, gates):
    space, kg = duplicate_pair_fixture(provider)
    gates(**QUIET_GATES)
    quiet = RefinementConfig(max_iterations=2, max_merges=0)
    baseline = refine(space, kg, provider, refine_config=quiet)

    def op_add(graph, aligned, ctx):
        return [add_stray]

    monkeypatch.setattr(sys.modules["rdkg.refine"], "op_add", op_add)
    out = refine(space, kg, provider, refine_config=quiet)
    assert out.graph.node_ids() == baseline.graph.node_ids() == kg.node_ids()
    assert out.graph.edges == kg.edges
    assert out.incumbent_index == 0
    # every row, its solve and coverage included, is the baseline's
    assert out.trace.points == baseline.trace.points
    assert out.trace.edits == [[], []]
    for row in out.trace.rejected[1:]:
        assert [(b["op"], [e["nodes"] for e in b["edits"]]) for b in row] == [
            ("add", [["stray"]])]
        assert row[0]["delta_L"] > 0


def test_refine_records_a_batch_whose_rate_reaches_L_unsolved(provider, monkeypatch, gates):
    # at beta 1 the duplicate fixture's L is 6.81 and one stray node takes
    # the rate from 6.5 to 7.5: D >= 0, so no solve could keep the batch
    space, kg = duplicate_pair_fixture(provider)
    gates(**QUIET_GATES)
    quiet = RefinementConfig(beta=1.0, max_iterations=2, max_merges=0)
    baseline = refine(space, kg, provider, refine_config=quiet)
    incumbent = baseline.trace.points[0].objective
    assert rate(kg) < incumbent < rate(kg) + 1
    graphs, solves = counted_solves(monkeypatch)
    monkeypatch.setattr(sys.modules["rdkg.refine"], "op_add", lambda *args: [add_stray])
    out = refine(space, kg, provider, refine_config=quiet)
    assert len(graphs) == len(solves) == 1 and graphs[0].node_ids() == kg.node_ids()
    assert out.trace.points == baseline.trace.points
    assert out.trace.edits == [[], []] and out.incumbent_index == 0
    assert out.trace.rejected == [[], [{
        "op": "add", "delta_L": _round9(rate(kg) + 1 - incumbent), "solved": False,
        "edits": [asdict(EditRecord(op="add", nodes=["stray"]))],
    }]]


def test_refine_solves_a_batch_just_below_L_and_skips_one_at_L(provider, monkeypatch, gates):
    # D does not depend on beta, so beta sets the t0 objective to the float
    # the stray batch's rate equals, or to the next float above it
    space, kg = duplicate_pair_fixture(provider)
    gates(**QUIET_GATES)
    quiet = dict(max_iterations=2, max_merges=0)
    d0 = refine(space, kg, provider, refine_config=RefinementConfig(**quiet)).trace.points[0].distortion
    target = rate(kg) + 1  # the stray batch's rate
    at = 1.0 / d0
    while rate(kg) + at * d0 < target:
        at = np.nextafter(at, np.inf)
    while rate(kg) + np.nextafter(at, 0.0) * d0 >= target:
        at = np.nextafter(at, 0.0)
    above = at
    while rate(kg) + above * d0 == target:
        above = np.nextafter(above, np.inf)
    assert rate(kg) + at * d0 == target
    assert rate(kg) + above * d0 == np.nextafter(target, np.inf)
    monkeypatch.setattr(sys.modules["rdkg.refine"], "op_add", lambda *args: [add_stray])
    graphs, _ = counted_solves(monkeypatch)
    skipped = refine(space, kg, provider, refine_config=RefinementConfig(beta=float(at), **quiet))
    assert len(graphs) == 1
    assert [(b["delta_L"], b.get("solved")) for b in skipped.trace.rejected[1]] == [(0.0, False)]
    graphs.clear()
    solved = refine(space, kg, provider, refine_config=RefinementConfig(beta=float(above), **quiet))
    assert len(graphs) == 2 and graphs[1].node_ids() == kg.node_ids() + ["stray"]
    [batch] = solved.trace.rejected[1]
    assert "solved" not in batch and batch["delta_L"] > 0


@pytest.mark.parametrize("fixture, beta", [(two_topic_fixture, 15.0), (overloaded_fixture, 15.0)])
def test_refine_unsolved_bounds_lie_below_the_true_rise(provider, monkeypatch, fixture, beta):
    # each batch refine() did not solve is solved here: its true rise in L
    # is at least its recorded bound, which is at least 0
    module = sys.modules["rdkg.refine"]
    applied = []  # (the graph, its candidate, their records) of every batch, in order

    def applying(kg, edits):
        candidate, records = apply_edits(kg, edits)
        applied.append((kg, candidate, [asdict(r) for r in records]))
        return candidate, records

    monkeypatch.setattr(module, "apply_edits", applying)
    graphs, _ = counted_solves(monkeypatch)
    space, kg = fixture(provider)
    out = refine(space, kg, provider, refine_config=RefinementConfig(beta=beta))
    monkeypatch.undo()
    batches = [b for row in out.trace.rejected for b in row]
    unsolved = [b for b in batches if b.get("solved") is False]
    skipped = [pair for pair in applied if not any(pair[1] is g for g in graphs)]
    assert len(skipped) == len(unsolved) > 0 and len(unsolved) < len(batches)
    assert any(out.trace.edits)
    memo = CostMemo(provider.embed, space.contents())

    def objective(graph):
        return rate(graph) + beta * align_graph(space, graph, memo).result.distortion

    for (graph, candidate, records), batch in zip(skipped, unsolved):
        assert batch["edits"] == records
        rise = objective(candidate) - objective(graph)
        assert _round9(rise) >= batch["delta_L"] >= 0


def test_refine_trace_does_not_depend_on_operator_function_names(provider, monkeypatch,
                                                                 tmp_path):
    # a tracer wraps the operators in functions of another name; the
    # trace names each batch after its records, so its bytes stay the same
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    cfg = RefinementConfig(max_iterations=3)
    module = sys.modules["rdkg.refine"]
    plain = refine(space, topic_a_only_kg(), provider, refine_config=cfg)
    assert "add" in [b["op"] for row in plain.trace.rejected for b in row]
    original = module.op_add

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "op_add", wrapper)
    wrapped = refine(space, topic_a_only_kg(), provider, refine_config=cfg)
    save_trace(plain.trace, tmp_path / "plain.jsonl")
    save_trace(wrapped.trace, tmp_path / "wrapped.jsonl")
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "wrapped.jsonl").read_bytes()


def test_edit_record_shape():
    # a record names no iteration: the trace row that holds it does
    record = EditRecord(op="add", nodes=["x"], edges=[["x", "relatedTo", "y"]], rationale="r")
    assert asdict(record) == {"op": "add", "nodes": ["x"], "edges": [["x", "relatedTo", "y"]],
                              "rationale": "r"}


def test_refine_with_llm_client_proposes_edges(provider):
    import json as jsonlib

    from rdkg.llm import LlmClient

    space, kg = duplicate_pair_fixture(provider)

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        if "propose new edges" in prompt:
            content = jsonlib.dumps({"edges": [
                {"src": "c0", "dst": "c2", "relation": "contrastsWith",
                 "confidence": 0.6, "rationale": "different topics"},
            ]})
        else:
            content = "{}"
        return {"choices": [{"message": {"content": content}}]}

    client = LlmClient("http://fake", "m", retries=0, transport=transport)
    out = refine(space, kg, provider, refine_config=RefinementConfig(max_iterations=1),
                 llm_client=client)
    ops = [e["op"] for edits in out.trace.edits for e in edits]
    assert "llm-edge" in ops
    assert validate_graph(out.graph) == []


def test_refine_with_an_empty_reply_client_writes_the_no_client_trace(provider, tmp_path):
    # the LLM edge pass proposes nothing on a {} reply and op_add asks for
    # no edges, so the search keeps and rejects what it does without a client
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    plain = refine(space, topic_a_only_kg(), provider)
    sent = []
    asked = refine(space, topic_a_only_kg(), provider, llm_client=empty_reply_client(sent))
    assert "add" in [e["op"] for edits in plain.trace.edits for e in edits]
    assert any("propose new edges" in prompt for prompt in sent)
    for name, outcome in (("plain", plain), ("asked", asked)):
        save_trace(outcome.trace, tmp_path / f"{name}.jsonl")
        save_kg(outcome.graph, tmp_path / f"{name}.kg.json")
    for suffix in (".jsonl", ".kg.json"):
        assert ((tmp_path / f"plain{suffix}").read_bytes()
                == (tmp_path / f"asked{suffix}").read_bytes())

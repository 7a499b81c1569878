"""Knowledge-graph model and its metric-measure space.

The graph is undirected for geometry: structural distance is the
normalized shortest-path hop count, fused with the embedding distance
over node texts. Relation labels and confidences stay available for
provenance and prompting but do not weight the geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .embeddings import CostMemo
from .errors import InputError, check_json, pop_field, read_utf8
from .lecture import fuse, minmax_normalize

#: The allowed relation ontology. relatedTo is the low-confidence
#: fallback relation used by refinement. Additional relations may be
#: admitted per run via the ``extra_relations`` config key.
ALLOWED_RELATIONS = frozenset(
    {
        "isA",
        "partOf",
        "prerequisiteOf",
        "dependsOn",
        "uses",
        "exampleOf",
        "contrastsWith",
        "implies",
        "provedBy",
        "produces",
        "consumes",
        "assessedBy",
        "relatedTo",
    }
)

DEFAULT_GAMMA = (0.4, 0.6)  # (struct, sem) fusion weights


@dataclass
class ConceptNode:
    id: str
    label: str
    definition: str = ""
    aliases: list[str] = field(default_factory=list)
    provenance: dict[str, Any] | None = None
    confidence: float = 0.5
    rationale: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class RelationEdge:
    src: str
    dst: str
    relation: str
    confidence: float = 0.5
    rationale: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple[str, str, str]:
        """Dedup key: unordered endpoint pair plus relation name."""
        a, b = sorted((self.src, self.dst))
        return (a, b, self.relation)


@dataclass
class KnowledgeGraph:
    nodes: list[ConceptNode] = field(default_factory=list)
    edges: list[RelationEdge] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def node_index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    def get_node(self, node_id: str) -> ConceptNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def has_edge_between(self, a: str, b: str) -> bool:
        pair = tuple(sorted((a, b)))
        return any(tuple(sorted((e.src, e.dst))) == pair for e in self.edges)

    def copy(self) -> "KnowledgeGraph":
        return KnowledgeGraph(nodes=[copy_node(n) for n in self.nodes],
                              edges=[copy_edge(e) for e in self.edges],
                              extra=dict(self.extra))


# The copies use the constructors, not dataclasses.replace, which costs several
# times more per call; a search copies thousands of nodes and edges.


def copy_node(n: ConceptNode) -> ConceptNode:
    """A node equal to ``n`` that shares no list or dict with it."""
    return ConceptNode(id=n.id, label=n.label, definition=n.definition,
                       aliases=list(n.aliases),
                       provenance=None if n.provenance is None else dict(n.provenance),
                       confidence=n.confidence, rationale=n.rationale, extra=dict(n.extra))


def copy_edge(e: RelationEdge) -> RelationEdge:
    """An edge equal to ``e`` that shares no dict with it."""
    return RelationEdge(src=e.src, dst=e.dst, relation=e.relation, confidence=e.confidence,
                        rationale=e.rationale, extra=dict(e.extra))


def validate_graph(
    kg: KnowledgeGraph, allowed_relations: frozenset[str] = ALLOWED_RELATIONS
) -> list[str]:
    """Return a list of violation descriptions; empty means valid. Each
    node is checked by ``node_violations``, each edge by ``edge_violations``."""
    violations: list[str] = []
    seen_ids: set[str] = set()
    for node in kg.nodes:
        violations += node_violations(node, seen_ids)
    seen_keys: set[tuple[str, str, str]] = set()
    for edge in kg.edges:
        violations += edge_violations(edge, seen_ids, allowed_relations, seen_keys)
    return violations


def node_violations(node: ConceptNode, seen_ids: set[str]) -> list[str]:
    """The violations of one node: an id in ``seen_ids`` (which it joins),
    a blank id or label, a confidence outside [0, 1]."""
    violations = []
    if node.id in seen_ids:
        violations.append(f"duplicate id: {node.id}")
    seen_ids.add(node.id)
    if not node.id.strip():
        violations.append(f"empty id: {node.id!r}")
    if not node.label.strip():
        violations.append(f"empty label: {node.id}")
    if not 0.0 <= node.confidence <= 1.0:
        violations.append(f"invalid confidence: {node.id} ({node.confidence})")
    return violations


def edge_violations(edge: RelationEdge, ids: set[str], allowed_relations: frozenset[str],
                    seen_keys: set[tuple[str, str, str]]) -> list[str]:
    """The violations of one edge: a self-loop, an endpoint not in ``ids``,
    a relation not in ``allowed_relations``, a confidence outside [0, 1],
    a key in ``seen_keys`` (which it joins)."""
    violations = []
    if edge.src == edge.dst:
        violations.append(f"self-loop: {edge.src} -{edge.relation}-")
    for endpoint in (edge.src, edge.dst):
        if endpoint not in ids:
            violations.append(f"dangling endpoint: {endpoint}")
    if edge.relation not in allowed_relations:
        violations.append(f"unknown relation: {edge.relation}")
    if not 0.0 <= edge.confidence <= 1.0:
        violations.append(f"invalid confidence: {edge.src}-{edge.dst} ({edge.confidence})")
    key = edge.key()
    if key in seen_keys:
        violations.append(f"duplicate edge: {key[0]}-{key[2]}-{key[1]}")
    seen_keys.add(key)
    return violations


def rate(kg: KnowledgeGraph) -> float:
    """Description-length proxy for graph complexity: |V| + 0.5 |E|."""
    return len(kg.nodes) + 0.5 * len(kg.edges)


def hop_distance(kg: KnowledgeGraph) -> np.ndarray:
    """All-pairs unweighted shortest-path hop counts (undirected).

    Unreachable pairs get max finite hop count + 1, keeping disconnected
    components maximally distant while staying finite. The breadth-first
    search runs for all sources at once: each level expands every
    source's frontier through one product with the adjacency matrix.
    """
    index = kg.node_index()
    m = len(kg.nodes)
    src = [index[e.src] for e in kg.edges]
    dst = [index[e.dst] for e in kg.edges]
    adjacency = np.zeros((m, m))
    adjacency[src, dst] = 1.0
    adjacency[dst, src] = 1.0
    np.fill_diagonal(adjacency, 0.0)  # self-loops add no path
    hops = np.full((m, m), -1.0)
    np.fill_diagonal(hops, 0.0)
    reached = np.eye(m, dtype=bool)
    frontier = reached
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(np.float64) @ adjacency) > 0) & ~reached
        hops[frontier] = level
        reached |= frontier
    finite_max = hops.max()
    hops[hops < 0] = finite_max + 1
    return hops


def struct_distance(kg: KnowledgeGraph) -> np.ndarray:
    """Hop-count distance matrix normalized to [0, 1] by its maximum."""
    if not kg.nodes:
        raise InputError("empty graph has no structural distance")
    hops = hop_distance(kg)
    top = hops.max()
    if top > 0:
        hops /= top
    return hops


def node_text(node: ConceptNode) -> str:
    """Embedding text for a node: label, definition, up to three aliases."""
    parts = [node.label.strip(), node.definition.strip()]
    alias_part = "; ".join(a.strip() for a in node.aliases[:3] if a.strip())
    parts.append(alias_part)
    return ". ".join(p for p in parts if p)


def build_kg_space(
    kg: KnowledgeGraph, memo: CostMemo, gamma: tuple[float, float] = DEFAULT_GAMMA
) -> np.ndarray:
    """The graph space's fused node distance; its measure is uniform over
    nodes, as the lecture's is over units.

    ``memo`` gives the pairwise feature costs of the node texts (label,
    definition, up to three aliases).
    """
    if not kg.nodes:
        raise InputError("cannot build a space over an empty graph")
    texts = [node_text(n) for n in kg.nodes]
    return fuse("gamma", gamma, [
        struct_distance(kg),
        minmax_normalize(memo.pair_cost(texts)),
    ])


# --- JSON round-trip -------------------------------------------------------
#
# Unknown fields anywhere (document, node or edge level) survive a
# load -> save cycle; the saver emits schema keys first, then extras in
# their original order.


def kg_from_dict(doc: dict[str, Any]) -> KnowledgeGraph:
    """Read a KG document with ``node_from_dict`` and ``edge_from_dict``;
    other top-level keys are kept in ``extra``. Raises TypeError or
    ValueError naming a mistyped, missing or refused field; validity is
    ``validate_graph``'s."""
    if not isinstance(doc, dict):
        raise TypeError("the top level is not a JSON object")
    doc = dict(doc)
    nodes = [node_from_dict(raw) for raw in pop_field(doc, "nodes", list, ())]
    edges = [edge_from_dict(raw) for raw in pop_field(doc, "edges", list, ())]
    return KnowledgeGraph(nodes=nodes, edges=edges, extra=doc)


def node_from_dict(raw: Any) -> ConceptNode:
    """Read one node object, keeping unknown keys in ``extra``.

    A missing or null ``id`` is refused, as is a null ``label`` (missing:
    empty) or ``confidence`` (missing: 0.5). A null ``definition`` or
    ``aliases`` reads as empty, a null ``provenance`` or ``rationale`` as
    None. Each field is read by ``errors.pop_field``. A ``provenance``
    object's ``path``, where it has one, must be a list of strings.
    """
    if not isinstance(raw, dict):
        raise TypeError("a node is not a JSON object")
    raw = dict(raw)
    node = ConceptNode(
        id=pop_field(raw, "id", str),
        label=pop_field(raw, "label", str, ""),
        definition=pop_field(raw, "definition", str | None, ""),
        aliases=list(pop_field(raw, "aliases", list[str] | None, ())),
        provenance=pop_field(raw, "provenance", dict | None, None),
        confidence=float(pop_field(raw, "confidence", float, 0.5)),
        rationale=pop_field(raw, "rationale", str | None, None),
        extra=raw,
    )
    if node.provenance is not None and "path" in node.provenance:
        check_json("provenance.path", node.provenance["path"], list[str])
    return node


def edge_from_dict(raw: Any) -> RelationEdge:
    """Read one edge object, keeping unknown keys in ``extra``. A missing
    or null ``src``, ``dst`` or ``relation`` is refused; ``confidence``
    and ``rationale`` read as in ``node_from_dict``."""
    if not isinstance(raw, dict):
        raise TypeError("an edge is not a JSON object")
    raw = dict(raw)
    return RelationEdge(
        src=pop_field(raw, "src", str),
        dst=pop_field(raw, "dst", str),
        relation=pop_field(raw, "relation", str),
        confidence=float(pop_field(raw, "confidence", float, 0.5)),
        rationale=pop_field(raw, "rationale", str | None, None),
        extra=raw,
    )


def kg_to_dict(kg: KnowledgeGraph) -> dict[str, Any]:
    """The JSON document of a graph: each node's and edge's fields in
    declaration order, then its extra keys; then the graph's extra keys.
    The document shares its lists and dicts with the graph: it is built
    to be written, so it takes no deep copy (``dataclasses.asdict``)."""
    return {"nodes": [_node_doc(n) for n in kg.nodes],
            "edges": [_edge_doc(e) for e in kg.edges], **kg.extra}


def _node_doc(n: ConceptNode) -> dict[str, Any]:
    return {"id": n.id, "label": n.label, "definition": n.definition, "aliases": n.aliases,
            "provenance": n.provenance, "confidence": n.confidence,
            "rationale": n.rationale, **n.extra}


def _edge_doc(e: RelationEdge) -> dict[str, Any]:
    return {"src": e.src, "dst": e.dst, "relation": e.relation, "confidence": e.confidence,
            "rationale": e.rationale, **e.extra}


def load_kg(path: str | Path) -> KnowledgeGraph:
    try:
        doc = json.loads(read_utf8(path, f"KG JSON {path}"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed KG JSON {path}: {exc}") from exc
    try:
        return kg_from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise InputError(f"KG JSON {path} has invalid structure: {exc}") from exc


def save_kg(kg: KnowledgeGraph, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(kg_to_dict(kg), ensure_ascii=False, indent=1), encoding="utf-8"
    )

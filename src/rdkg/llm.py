"""Optional LLM-backed operations with deterministic offline fallbacks.

Every operation here works without a client: graph bootstrapping falls
back to a heading-based extraction, concept naming to TF-IDF keyword
scoring, and edge proposal to a nearest-neighbor relatedTo link. With a
client configured, responses are validated structurally and anything
invalid is dropped (never fatal), so a flaky endpoint degrades to the
fallbacks instead of breaking a run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    _TIE_TOL,
    _unit_rows,
    check_request_settings,
    cosine_distance,
    json_headers,
    post_json,
    request_with_retries,
)
from .errors import InputError, ProviderError
from .kg import (
    ALLOWED_RELATIONS,
    ConceptNode,
    KnowledgeGraph,
    RelationEdge,
    node_text,
)
from .markdown import parse_markdown

logger = logging.getLogger(__name__)

#: Environment variable holding the LLM endpoint API key (never logged).
API_KEY_ENV = "LLM_API_KEY"

DEFAULT_LLM_TIMEOUT = 60.0  # request timeout, seconds
DEFAULT_LLM_RETRIES = 2  # retries after a failed request
DEFAULT_LLM_TEMPERATURE = 0.0

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

#: Fixed stopword list shipped with the package for reproducible TF-IDF
#: labeling (no external corpus dependency).
STOPWORDS = frozenset(
    """a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her here
    hers herself him himself his how i if in into is it its itself just me more
    most my myself no nor not now of off on once only or other our ours
    ourselves out over own same she should so some such than that the their
    theirs them themselves then there these they this those through to too
    under until up very was we were what when where which while who whom why
    will with would you your yours yourself yourselves""".split()
)

BOOTSTRAP_PROMPT = """You convert lecture notes into a compact knowledge graph.

Work in three stages:
1. Segment the Markdown into atomic spans (paragraphs, list items, math or
   code blocks).
2. Identify the salient concepts as nodes with a canonical label, a short
   definition, and up to three aliases.
3. Extract edges between those nodes, constrained to the allowed relations:
   {relations}.

Every node and edge must carry provenance (section path, line span, text
excerpt where applicable), a confidence score in [0, 1], and a short
rationale string.

Reply with a single JSON object, no prose, matching exactly:
{{"nodes": [{{"id": str, "label": str, "definition": str, "aliases": [str],
"provenance": {{"path": [str], "line_span": [int, int], "excerpt": str}},
"confidence": float, "rationale": str}}],
"edges": [{{"src": str, "dst": str, "relation": str, "confidence": float,
"rationale": str}}]}}

Lecture notes:
{markdown}
"""

NAME_PROMPT = """Propose a concise concept label (at most 6 words) for lecture
content below. Reply with a single JSON object {{"label": str}} and nothing else.

Content:
{text}
"""

EDGE_PROMPT = """Given the knowledge-graph nodes below, propose new edges using
only this information. Allowed relations: {relations}. Reply with a single JSON
object {{"edges": [{{"src": str, "dst": str, "relation": str,
"confidence": float, "rationale": str}}]}} and nothing else.

Nodes:
{nodes}

Existing edges:
{edges}
"""


@dataclass
class LlmClientConfig:
    base_url: str
    model: str
    timeout: float = DEFAULT_LLM_TIMEOUT
    retries: int = DEFAULT_LLM_RETRIES
    temperature: float = DEFAULT_LLM_TEMPERATURE

    def __post_init__(self) -> None:
        check_request_settings(self.timeout, self.retries)


class LlmClient:
    """Chat-completion client expecting a single JSON object per reply.

    Responses are cached by prompt hash for the lifetime of the client
    so repeated identical prompts within a run are stable and free.
    """

    def __init__(self, config: LlmClientConfig, transport=None):
        self.config = config
        self._transport = transport or post_json
        self._cache: dict[str, dict | None] = {}

    def chat_json(self, prompt: str) -> dict | None:
        """Send a prompt, parse the reply content as JSON.

        Returns None when the endpoint keeps failing or never yields
        parseable JSON; callers fall back deterministically.
        """
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        if key in self._cache:
            return self._cache[key]
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = json_headers(API_KEY_ENV)
        try:
            result = request_with_retries(
                lambda: self._transport(
                    self.config.base_url, payload, headers, self.config.timeout
                ),
                _extract_json,
                self.config.retries,
                "LLM",
            )
        except ProviderError:
            result = None
        self._cache[key] = result
        return result


def _extract_json(reply: dict) -> dict:
    """The JSON object in a chat-completion style reply; raises when the
    reply holds none."""
    content = reply["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise ProviderError("reply content is not text")
    content = content.strip()
    if content.startswith("```"):
        content = re.sub(r"^```[a-zA-Z]*\n?|```$", "", content).strip()
    doc = json.loads(content)
    if not isinstance(doc, dict):
        raise ProviderError("reply content is not a JSON object")
    return doc


# --- bootstrap --------------------------------------------------------------


def bootstrap_kg(
    markdown_text: str,
    client: LlmClient | None = None,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> KnowledgeGraph:
    """Extract an initial knowledge graph from lecture notes.

    With a client, a single structured request performs segmentation,
    node identification and relation-constrained edge extraction; the
    response is validated and invalid nodes/edges are dropped. Without a
    client (or when the response is unusable) the deterministic fallback
    turns each heading into a node and nests children with partOf edges.

    Raises InputError("empty input") for empty documents.
    """
    if not markdown_text or not markdown_text.strip():
        raise InputError("empty input")
    if client is not None:
        prompt = BOOTSTRAP_PROMPT.format(
            relations=", ".join(sorted(allowed_relations)), markdown=markdown_text
        )
        doc = client.chat_json(prompt)
        kg = _graph_from_response(doc, allowed_relations) if doc else None
        if kg is not None and kg.nodes:
            return kg
        logger.warning("LLM bootstrap unusable; falling back to heading extraction")
    return _heading_bootstrap(markdown_text)


def _graph_from_response(
    doc: dict, allowed_relations: frozenset[str]
) -> KnowledgeGraph | None:
    nodes: list[ConceptNode] = []
    seen: set[str] = set()
    for raw in doc.get("nodes", []) or []:
        if not isinstance(raw, dict):
            continue
        node_id = str(raw.get("id", "")).strip()
        label = str(raw.get("label", "")).strip()
        confidence = raw.get("confidence")
        rationale = str(raw.get("rationale", "") or "").strip()
        if not node_id or not label or node_id in seen:
            logger.info("dropping bootstrap node without id/label: %r", raw)
            continue
        if not isinstance(confidence, (int, float)) or not 0.0 <= confidence <= 1.0:
            logger.info("dropping bootstrap node with bad confidence: %s", node_id)
            continue
        if not rationale:
            logger.info("dropping bootstrap node without rationale: %s", node_id)
            continue
        seen.add(node_id)
        nodes.append(
            ConceptNode(
                id=node_id,
                label=label,
                definition=str(raw.get("definition", "") or ""),
                aliases=[str(a) for a in raw.get("aliases", []) or []],
                provenance=raw.get("provenance"),
                confidence=float(confidence),
                rationale=rationale,
            )
        )
    kg = KnowledgeGraph(nodes=nodes)
    kg.edges.extend(_valid_edge_proposals(doc, kg, allowed_relations))
    return kg


def _heading_bootstrap(markdown_text: str) -> KnowledgeGraph:
    """Fallback: one node per heading, partOf edges child -> parent."""
    tree = parse_markdown(markdown_text)
    kg = KnowledgeGraph()

    def walk(section, parent_id: str | None, path: tuple[str, ...]) -> None:
        here = path
        sec_id = None
        if section.level > 0:
            here = path + (section.title,)
            sec_id = section.id
            first_block = section.blocks[0].text if section.blocks else ""
            kg.nodes.append(
                ConceptNode(
                    id=sec_id,
                    label=section.title,
                    definition=first_block,
                    provenance={"path": list(here), "excerpt": first_block[:200]},
                    confidence=0.5,
                    rationale="fallback: heading-based bootstrap",
                )
            )
            if parent_id is not None:
                kg.edges.append(
                    RelationEdge(
                        src=sec_id,
                        dst=parent_id,
                        relation="partOf",
                        confidence=0.5,
                        rationale="fallback: heading nesting",
                    )
                )
        for child in section.children:
            walk(child, sec_id if sec_id is not None else parent_id, here)

    walk(tree, None, ())
    return kg


# --- naming -----------------------------------------------------------------


class Namer:
    """Concept labeler: LLM first, TF-IDF keyword fallback.

    The fallback scores terms by tf(term, group) * ln(1 + N/df(term))
    over the lecture's unit corpus, takes the top three (ties broken
    lexicographically) and joins them capitalized.
    """

    def __init__(self, corpus_texts: list[str], client: LlmClient | None = None):
        self.client = client
        self._n_units = max(len(corpus_texts), 1)
        self._df: Counter[str] = Counter()
        for text in corpus_texts:
            self._df.update(set(_tokens(text)))

    def name(self, texts: list[str]) -> str:
        if not texts:
            raise InputError("cannot name an empty group")
        if self.client is not None:
            doc = self.client.chat_json(NAME_PROMPT.format(text="\n".join(texts)))
            if doc:
                label = str(doc.get("label", "")).strip()
                if label:
                    return label
        return self._tfidf_label(texts)

    def _tfidf_label(self, texts: list[str]) -> str:
        tf = Counter(t for t in _tokens(" ".join(texts)) if t not in STOPWORDS)
        if not tf:
            digest = hashlib.sha256(" ".join(texts).encode("utf-8")).hexdigest()
            return f"Concept {digest[:8]}"
        scored = sorted(
            tf.items(),
            key=lambda kv: (-kv[1] * math.log(1.0 + self._n_units / max(self._df[kv[0]], 1)), kv[0]),
        )
        return " ".join(term.capitalize() for term, _ in scored[:3])


# --- edge proposal for a new node -------------------------------------------


def propose_label_edges(
    new_node: ConceptNode,
    kg: KnowledgeGraph,
    node_embeddings: np.ndarray,
    new_embedding: np.ndarray,
    client: LlmClient | None = None,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> list[RelationEdge]:
    """Candidate edges attaching a freshly added node to the graph.

    With a client: relation-constrained proposals touching the new node,
    each validated (existing endpoints, allowed relation, confidence in
    [0, 1], no self-loop). Without a client, or when nothing valid comes
    back: a single low-confidence relatedTo edge to the cosine-nearest
    existing node.

    node_embeddings rows follow kg.nodes order and exclude the new node.
    """
    others = [n for n in kg.nodes if n.id != new_node.id]
    if not others:
        return []
    if client is not None:
        doc = client.chat_json(edge_prompt(kg, allowed_relations))
        proposals = _valid_edge_proposals(doc, kg, allowed_relations)
        touching = [e for e in proposals if new_node.id in (e.src, e.dst)]
        if touching:
            return touching
    nearest = others[_nearest_row(new_embedding, node_embeddings[: len(others)])]
    return [
        RelationEdge(
            src=new_node.id,
            dst=nearest.id,
            relation="relatedTo",
            confidence=0.3,
            rationale="nearest existing concept by semantic similarity",
        )
    ]


def _nearest_row(point: np.ndarray, rows: np.ndarray) -> int:
    """Index of the row with the smallest ``cosine_distance`` to point,
    ties to the first.

    One product of unit vectors scores every row (as in
    ``refine._farthest_pair``), and only the rows within ``_TIE_TOL`` of
    the minimum are rescored with the scalar kernel, in index order with
    strict ``<`` (``np.argmin``'s rule), so exact duplicates and
    equidistant rows give the row a full scalar scan would.
    """
    approx = 1.0 - _unit_rows(rows) @ _unit_rows([point])[0]
    best, index = np.inf, 0
    for i in np.flatnonzero(approx <= approx.min() + _TIE_TOL).tolist():
        d = cosine_distance(point, rows[i])
        if d < best:
            best, index = d, i
    return index


def edge_prompt(kg: KnowledgeGraph, allowed_relations: frozenset[str]) -> str:
    """The edge-proposal prompt: the allowed relations, the graph's nodes
    and its existing edges."""
    return EDGE_PROMPT.format(
        relations=", ".join(sorted(allowed_relations)),
        nodes="\n".join(f"- {n.id}: {node_text(n)}" for n in kg.nodes),
        edges="\n".join(f"- {e.src} {e.relation} {e.dst}" for e in kg.edges),
    )


def _valid_edge_proposals(
    doc: dict | None,
    kg: KnowledgeGraph,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> list[RelationEdge]:
    """Filter raw proposal dicts down to structurally valid new edges."""
    if not doc:
        return []
    ids = set(kg.node_ids())
    existing = {e.key() for e in kg.edges}
    accepted: list[RelationEdge] = []
    for raw in doc.get("edges", []) or []:
        if not isinstance(raw, dict):
            continue
        edge = RelationEdge(
            src=str(raw.get("src", "")),
            dst=str(raw.get("dst", "")),
            relation=str(raw.get("relation", "")),
            confidence=raw.get("confidence", -1.0),
            rationale=str(raw.get("rationale", "") or "") or None,
        )
        reason = None
        if edge.src not in ids or edge.dst not in ids:
            reason = "unknown endpoint"
        elif edge.src == edge.dst:
            reason = "self-loop"
        elif edge.relation not in allowed_relations:
            reason = "relation not allowed"
        elif not isinstance(edge.confidence, (int, float)) or not 0.0 <= edge.confidence <= 1.0:
            reason = "confidence out of range"
        elif not edge.rationale:
            reason = "missing rationale"
        elif edge.key() in existing:
            reason = "duplicate edge"
        if reason:
            logger.info("dropping proposed edge %r: %s", raw, reason)
            continue
        edge.confidence = float(edge.confidence)
        existing.add(edge.key())
        accepted.append(edge)
    return accepted


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())

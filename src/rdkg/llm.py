"""Optional LLM-backed operations with deterministic offline fallbacks.

Every operation here works without a client: graph bootstrapping falls
back to a heading-based extraction and concept naming to TF-IDF keyword
scoring. A new node's edge is always the deterministic nearest-node
relatedTo link; LLM edges come only from the refinement's LLM edge pass,
which sends ``edge_prompt``. With a client configured, each reply node
and edge goes through the graph's own reader and rules
(``kg.node_from_dict``, ``kg.node_violations`` and their edge twins) and
anything invalid is dropped (never fatal), so a flaky endpoint degrades
to the fallbacks instead of breaking a run.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter

import numpy as np

from .embeddings import (check_request_settings, content_hash, json_headers, post_json,
                         request_with_retries, word_tokens)
from .errors import InputError, ProviderError
from .kg import (ALLOWED_RELATIONS, ConceptNode, KnowledgeGraph, RelationEdge, edge_from_dict,
                 edge_violations, node_from_dict, node_text, node_violations)
from .markdown import parse_markdown

logger = logging.getLogger(__name__)

#: Environment variable holding the LLM endpoint API key (never logged).
API_KEY_ENV = "LLM_API_KEY"

DEFAULT_LLM_TIMEOUT = 60.0  # request timeout, seconds
DEFAULT_LLM_RETRIES = 2  # retries after a failed request
DEFAULT_LLM_TEMPERATURE = 0.0

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


class LlmClient:
    """Chat-completion client expecting a single JSON object per reply.

    Responses are cached by prompt hash for the lifetime of the client
    so repeated identical prompts within a run are stable and free.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout: float = DEFAULT_LLM_TIMEOUT,
        retries: int = DEFAULT_LLM_RETRIES,
        temperature: float = DEFAULT_LLM_TEMPERATURE,
        transport=None,
    ):
        check_request_settings(timeout, retries)
        self.base_url = base_url
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.temperature = temperature
        self._transport = transport or post_json
        self._cache: dict[str, dict | None] = {}

    def chat_json(self, prompt: str) -> dict | None:
        """Send a prompt, parse the reply content as JSON.

        Returns None when the endpoint keeps failing or never yields
        parseable JSON; callers fall back deterministically.
        """
        key = content_hash(prompt)
        if key in self._cache:
            return self._cache[key]
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = json_headers(API_KEY_ENV)
        try:
            result = request_with_retries(
                lambda: self._transport(self.base_url, payload, headers, self.timeout),
                _extract_json,
                self.retries,
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
        kg = _graph_from_response(client.chat_json(prompt), allowed_relations)
        if kg.nodes:
            return kg
        logger.warning("LLM bootstrap unusable; falling back to heading extraction")
    return _heading_bootstrap(markdown_text)


def _graph_from_response(doc: dict | None, allowed_relations: frozenset[str]) -> KnowledgeGraph:
    """The graph of a bootstrap reply: the reply nodes that ``_reply_items``
    keeps under ``node_violations``, then the reply edges that
    ``_valid_edge_proposals`` keeps between them."""
    seen_ids: set[str] = set()
    kg = KnowledgeGraph(nodes=_reply_items(
        doc, "nodes", node_from_dict, lambda node: node_violations(node, seen_ids)))
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
            self._df.update(set(word_tokens(text)))

    def name(self, texts: list[str]) -> str:
        if not texts:
            raise InputError("cannot name an empty group")
        if self.client is not None:
            doc = self.client.chat_json(NAME_PROMPT.format(text="\n".join(texts)))
            label = doc.get("label") if doc else None
            if isinstance(label, str) and label.strip():
                return label.strip()
        return self._tfidf_label(texts)

    def _tfidf_label(self, texts: list[str]) -> str:
        tf = Counter(t for t in word_tokens(" ".join(texts)) if t not in STOPWORDS)
        if not tf:
            return f"Concept {content_hash(' '.join(texts))[:8]}"
        scored = sorted(
            tf.items(),
            key=lambda kv: (-kv[1] * math.log(1.0 + self._n_units / max(self._df[kv[0]], 1)), kv[0]),
        )
        return " ".join(term.capitalize() for term, _ in scored[:3])


# --- the edge of a new node --------------------------------------------------


def propose_label_edges(
    new_node: ConceptNode, nodes: list[ConceptNode], costs: np.ndarray
) -> list[RelationEdge]:
    """The edge attaching a freshly added node to the graph: a single
    low-confidence relatedTo edge to the node of least feature cost among
    ``nodes`` (the nodes before it), ties to the first (``np.argmin``);
    none when ``nodes`` is empty.

    ``costs`` holds the new node's feature cost against each of ``nodes``.
    LLM edges, for new nodes and old, come from the LLM edge pass alone.
    """
    if not nodes:
        return []
    nearest = nodes[int(np.argmin(costs))]
    return [
        RelationEdge(
            src=new_node.id,
            dst=nearest.id,
            relation="relatedTo",
            confidence=0.3,
            rationale="nearest existing concept by semantic similarity",
        )
    ]


def edge_prompt(kg: KnowledgeGraph, allowed_relations: frozenset[str]) -> str:
    """The edge-proposal prompt: the allowed relations, the graph's nodes
    and its existing edges."""
    return EDGE_PROMPT.format(
        relations=", ".join(sorted(allowed_relations)),
        nodes="\n".join(f"- {n.id}: {node_text(n)}" for n in kg.nodes),
        edges="\n".join(f"- {e.src} {e.relation} {e.dst}" for e in kg.edges),
    )


def _valid_edge_proposals(doc: dict | None, kg: KnowledgeGraph,
                          allowed_relations: frozenset[str] = ALLOWED_RELATIONS
                          ) -> list[RelationEdge]:
    """The reply edges that ``_reply_items`` keeps under ``edge_violations``
    against ``kg``'s node ids and edge keys."""
    ids = set(kg.node_ids())
    seen_keys = {e.key() for e in kg.edges}
    return _reply_items(doc, "edges", edge_from_dict,
                        lambda edge: edge_violations(edge, ids, allowed_relations, seen_keys))


def _reply_items(doc: dict | None, key: str, read, violations) -> list:
    """The items of the list ``doc[key]`` that ``read`` (``kg``'s reader)
    accepts, that state a ``confidence`` and a non-blank ``rationale`` as
    the prompts ask, and in which ``violations`` (``kg``'s rule) finds
    nothing. Each dropped item is logged with its reasons."""
    items = doc.get(key) if doc else None
    kept = []
    for raw in items if isinstance(items, list) else []:
        try:
            item = read(raw)
        except (TypeError, ValueError) as exc:
            reasons = [str(exc)]
        else:
            reasons = []
            if "confidence" not in raw:
                reasons.append("no confidence")
            if not (item.rationale or "").strip():
                reasons.append("no rationale")
            reasons = reasons or violations(item)
        if reasons:
            logger.info("dropping reply %s %r: %s", key, raw, "; ".join(reasons))
        else:
            kept.append(item)
    return kept

"""Shared fixtures: deterministic providers and synthetic lectures."""

from __future__ import annotations

import numpy as np
import pytest

from rdkg.config import config_keys
from rdkg.embeddings import CostMemo, HashEmbedder
from rdkg.kg import ConceptNode, KnowledgeGraph, RelationEdge

# The config keys each command reads, pinned here apart from cli.py: a
# command's only flags besides --config and --out.
INGEST_KEYS = frozenset({
    "alpha_chron", "alpha_logic", "alpha_sem", "embed_provider", "embed_dim", "embed_seed",
    "embeddings_file", "embed_url", "embed_model", "embed_timeout", "embed_retries",
})
COMMAND_KEYS = {
    "ingest": INGEST_KEYS,
    "bootstrap": frozenset({"llm_url", "llm_model", "llm_timeout", "llm_retries",
                            "llm_temperature", "extra_relations", "debug"}),
    "align": INGEST_KEYS | {"extra_relations", "gamma_struct", "gamma_sem", "lambda_feat",
                            "epsilon", "sinkhorn_iters", "beta", "debug"},
    "refine": frozenset(config_keys()),
}

TOPIC_A_WORDS = [
    "dataframe", "index", "column", "groupby", "aggregate",
    "merge_tables", "pivot", "filter_rows", "sort_values", "missing_values",
]
TOPIC_B_WORDS = [
    "recurrent", "sequence", "gradient", "attention", "encoder",
    "decoder", "embedding_layer", "softmax", "backprop", "hidden_state",
]


def make_section(title: str, words: list[str], n_units: int, salt: int) -> str:
    lines = [f"## {title}", ""]
    for i in range(n_units):
        w = [words[(i + j + salt) % len(words)] for j in range(5)]
        lines.append(f"The topic {w[0]} {w[1]} {w[2]} relates to {w[3]} and {w[4]}.")
        lines.append("")
    return "\n".join(lines)


def two_topic_markdown() -> str:
    """~40 units: 16 on tables (topic A), 24 on sequences (topic B)."""
    return "\n".join(
        [
            "# Lecture",
            "",
            make_section("Tables one", TOPIC_A_WORDS, 8, 0),
            make_section("Tables two", TOPIC_A_WORDS, 8, 3),
            make_section("Sequences one", TOPIC_B_WORDS, 8, 0),
            make_section("Sequences two", TOPIC_B_WORDS, 8, 3),
            make_section("Sequences three", TOPIC_B_WORDS, 8, 6),
        ]
    )


def topic_a_only_kg() -> KnowledgeGraph:
    """Deliberately impoverished bootstrap: topic B absent."""
    return KnowledgeGraph(
        nodes=[
            ConceptNode(id="n1", label="Dataframe basics",
                        definition=" ".join(TOPIC_A_WORDS[:5])),
            ConceptNode(id="n2", label="Grouping",
                        definition=" ".join(TOPIC_A_WORDS[3:8])),
            ConceptNode(id="n3", label="Missing data",
                        definition=" ".join(TOPIC_A_WORDS[5:10])),
        ],
        edges=[
            RelationEdge("n2", "n1", "uses", 0.8, "shared wrangling verbs"),
            RelationEdge("n3", "n1", "partOf", 0.8, "cleanup belongs to basics"),
        ],
    )


def random_metric(n: int, rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Normalized Euclidean distance matrix over random points."""
    pts = rng.normal(size=(n, dim))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return d / d.max()


def table_memo(rows_by_text: dict) -> CostMemo:
    """A CostMemo over one unit whose provider looks each text's row up."""
    rows = {t: np.asarray(r, dtype=np.float64) for t, r in rows_by_text.items()}
    rows["unit"] = np.ones(len(next(iter(rows.values()))))
    return CostMemo(lambda texts: np.stack([rows[t] for t in texts]), ["unit"])


@pytest.fixture
def provider() -> HashEmbedder:
    return HashEmbedder(dim=256, seed=0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

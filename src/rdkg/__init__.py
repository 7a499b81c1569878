"""Rate-distortion guided knowledge-graph construction and refinement.

Lecture notes become a metric-measure space, candidate knowledge graphs
are aligned to it with an entropic fused structural-feature transport
coupling, and local edit operators refine the graph to minimize
rate + beta * distortion. See README.md for the pipeline walkthrough.
"""

from .analysis import RdPoint, RdTrace, coverage, emit_report, knee_point
from .embeddings import (
    CostMemo,
    FileEmbedder,
    HashEmbedder,
    HttpEmbedder,
    cosine_distance,
    feature_cost,
)
from .errors import InputError, NumericalError, ProviderError, RdkgError
from .kg import (
    ALLOWED_RELATIONS,
    ConceptNode,
    KnowledgeGraph,
    RelationEdge,
    build_kg_space,
    load_kg,
    rate,
    save_kg,
    validate_graph,
)
from .lecture import (
    LectureElement,
    LectureSpace,
    build_lecture_space,
    load_lecture_space,
    save_lecture_space,
)
from .llm import LlmClient, Namer, bootstrap_kg
from .markdown import parse_markdown
from .ot import Coupling, FgwResult, fgw, sinkhorn
from .refine import RefinementConfig, RefineOutcome, refine

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_RELATIONS",
    "ConceptNode",
    "CostMemo",
    "Coupling",
    "FgwResult",
    "FileEmbedder",
    "HashEmbedder",
    "HttpEmbedder",
    "InputError",
    "KnowledgeGraph",
    "LectureElement",
    "LectureSpace",
    "LlmClient",
    "Namer",
    "NumericalError",
    "ProviderError",
    "RdPoint",
    "RdTrace",
    "RdkgError",
    "RefineOutcome",
    "RefinementConfig",
    "RelationEdge",
    "bootstrap_kg",
    "build_kg_space",
    "build_lecture_space",
    "cosine_distance",
    "coverage",
    "emit_report",
    "feature_cost",
    "fgw",
    "knee_point",
    "load_kg",
    "load_lecture_space",
    "parse_markdown",
    "rate",
    "refine",
    "save_kg",
    "save_lecture_space",
    "sinkhorn",
    "validate_graph",
]

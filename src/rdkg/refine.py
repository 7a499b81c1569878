"""Coupling-driven graph refinement minimizing rate + beta * distortion.

Each iteration applies the local edit operators in a fixed order (add,
split, merge, relate, prune, and the LLM edge pass when a client is
set), re-solving the alignment (``align_graph``) after every operator
that changed the graph, then records one trace point. The incumbent is
the argmin of the objective over all recorded iterations; the loop
stops early once the objective change stays below a threshold for a
configured number of iterations.

Operator signals all come from the coupling:

* add: row mass restricted to semantically close nodes. The raw row
  mass equals the element's measure whenever the marginals hold, so the
  restricted variant is what actually discriminates; elements whose
  mass within the coverage tolerance falls short get a new concept.
* split: normalized column entropy flags nodes coupled to heterogeneous
  lecture subsets; 2-means on the coupled embeddings yields children.
  (Entropy is normalized by ln N so the threshold is size independent.)
* merge: cosine similarity of node embeddings plus symmetric KL of
  column profiles detects redundant pairs.
* relate/prune: mean lecture distance between top-coupled neighborhoods
  adds relatedTo edges; the product of endpoint column masses prunes
  weakly supported ones.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .analysis import COVERAGE_PERCENTILE, RdPoint, RdTrace, coverage_tolerance
from .embeddings import _TIE_TOL, CostMemo, _unit_rows, cosine_distance, cosine_similarity
from .errors import InputError, NumericalError
from .kg import (
    ALLOWED_RELATIONS,
    DEFAULT_GAMMA,
    ConceptNode,
    KgSpace,
    KnowledgeGraph,
    RelationEdge,
    build_kg_space,
    node_text,
    rate,
    validate_graph,
)
from .lecture import LectureSpace
from .llm import LlmClient, Namer, _valid_edge_proposals, edge_prompt, propose_label_edges
from .ot import Coupling, FgwResult, SolverConfig, fgw

logger = logging.getLogger(__name__)

MAX_DEFINITION_CHARS = 1000


@dataclass
class RefinementConfig:
    beta: float = 100.0
    theta_add: float = 0.02
    theta_split: float = 0.35
    theta_merge: float = 0.12
    theta_cos: float = 0.90
    theta_relate: float = 0.25
    tau: float = 1e-4
    max_adds: int = 5
    max_splits: int = 3
    max_merges: int = 3
    max_iterations: int = 12
    conv_threshold: float = 0.25
    patience: int = 2
    kl_smoothing: float = 1e-9
    # the coverage rule: op_add flags rows against it, coverage is scored with it
    coverage_percentile: float = COVERAGE_PERCENTILE
    coverage_row_min: bool = False

    def __post_init__(self) -> None:
        for name in ("beta", "theta_add", "theta_split", "theta_merge",
                     "theta_cos", "theta_relate", "tau", "kl_smoothing"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if not 0.0 <= self.coverage_percentile <= 100.0:
            raise InputError("coverage_percentile must lie in [0, 100]")


@dataclass
class EditRecord:
    op: str  # add | split | merge | relate-add | prune | llm-edge
    nodes: list[str] = field(default_factory=list)
    edges: list[list[str]] = field(default_factory=list)  # [src, relation, dst]
    rationale: str = ""
    iteration: int = 0


@dataclass
class Aligned:
    """One solved alignment between the lecture and the current graph."""

    space: KgSpace
    feature: np.ndarray  # N x M cosine cost, absolute scale
    result: FgwResult

    @property
    def coupling(self) -> Coupling:
        return self.result.coupling


def align_graph(
    lecture: LectureSpace,
    kg: KnowledgeGraph,
    memo: CostMemo,
    gamma: tuple[float, float],
    solver_config: SolverConfig,
) -> Aligned:
    """Solve the fused transport alignment of ``kg`` to ``lecture``.

    Builds the graph space, reads the cost of every lecture unit against
    every node from ``memo`` (made over ``lecture``'s units) and runs
    ``fgw``. Every alignment the program solves comes from here.
    """
    space = build_kg_space(kg, memo, gamma)
    feature = memo.unit_cost([node_text(n) for n in kg.nodes])
    result = fgw(
        lecture.distance, space.distance, feature,
        lecture.measure, space.measure, solver_config,
    )
    return Aligned(space=space, feature=feature, result=result)


@dataclass
class RefineOutcome:
    graph: KnowledgeGraph
    trace: RdTrace
    incumbent_index: int
    initial: Aligned  # the unedited graph's alignment (trace row t0)
    incumbent: Aligned  # the returned graph's alignment


# --- coupling statistics ----------------------------------------------------


def covered_row_mass(plan: np.ndarray, feature_costs: np.ndarray, tol: float) -> np.ndarray:
    """Per-element coupling mass carried by semantically close nodes.

    rho_i = sum_j plan(i,j) * [feature_costs(i,j) <= tol]. Without the
    indicator the row sum is just the element's marginal mass and the
    add threshold could never fire.
    """
    if plan.shape != feature_costs.shape:
        raise InputError("coupling and feature-cost shapes differ")
    return (plan * (feature_costs <= tol)).sum(axis=1)


def column_entropy(plan: np.ndarray) -> np.ndarray:
    """Entropy of each normalized coupling column, in [0, 1].

    Columns with zero mass get entropy 0. Normalization divides by
    ln N so a fixed threshold means the same thing at any lecture size.
    """
    n = plan.shape[0]
    sums = plan.sum(axis=0)
    out = np.zeros(plan.shape[1])
    for j in range(plan.shape[1]):
        if sums[j] <= 0:
            continue
        p = plan[:, j] / sums[j]
        p = p[p > 0]
        h = float(-(p * np.log(p)).sum())
        out[j] = h / np.log(n) if n > 1 else 0.0
    return out


def symmetric_kl(
    p: np.ndarray, q: np.ndarray, smoothing: float = RefinementConfig.kl_smoothing
) -> float:
    """0.5 * (KL(p||q) + KL(q||p)) after additive smoothing.

    Smoothing every entry before renormalizing keeps the value finite
    on disjoint supports. Profiles equal up to rounding give 0.0, not
    a rounding residue of either sign.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError("symmetric_kl: length mismatch")
    ps = (p + smoothing) / (p + smoothing).sum()
    qs = (q + smoothing) / (q + smoothing).sum()
    forward = float((ps * np.log(ps / qs)).sum())
    backward = float((qs * np.log(qs / ps)).sum())
    return max(0.0, 0.5 * (forward + backward))


def edge_support(plan: np.ndarray, edge: RelationEdge, node_index: dict[str, int]) -> float:
    """Coupling support of an edge: product of its endpoint column masses."""
    try:
        a = node_index[edge.src]
        b = node_index[edge.dst]
    except KeyError as exc:
        raise InputError(f"edge endpoint not mapped to a coupling column: {exc}") from exc
    masses = plan.sum(axis=0)
    return float(masses[a] * masses[b])


def top_coupled(plan: np.ndarray, column: int, k: int = 5) -> np.ndarray:
    """Indices of the k largest entries of a column, ties to lowest index."""
    order = np.argsort(-plan[:, column], kind="stable")
    return order[: min(k, plan.shape[0])]


# --- shared operator context -------------------------------------------------


@dataclass
class OpContext:
    lecture: LectureSpace
    element_embeddings: np.ndarray
    embed: Callable[[list[str]], np.ndarray]
    namer: Namer
    config: RefinementConfig
    llm_client: LlmClient | None = None
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS

    def __post_init__(self) -> None:
        self._id_counter = 0

    def fresh_id(self, kg: KnowledgeGraph, base: str) -> str:
        existing = set(kg.node_ids())
        candidate = base
        while candidate in existing:
            self._id_counter += 1
            candidate = f"{base}_{self._id_counter}"
        return candidate


# --- operators ---------------------------------------------------------------


def op_add(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Add concepts for under-covered lecture spans (lowest mass first).

    Contiguous flagged elements sharing a section path become one node;
    per-group edges come from the LLM when available, else a single
    low-confidence relatedTo to the nearest existing concept.
    """
    cfg = ctx.config
    tol = coverage_tolerance(aligned.feature, cfg.coverage_percentile, cfg.coverage_row_min)
    rho = covered_row_mass(aligned.coupling.matrix, aligned.feature, tol)
    flagged = [i for i in range(len(rho)) if rho[i] < cfg.theta_add]
    if not flagged:
        return kg, []

    groups: list[list[int]] = []
    for i in flagged:
        if (
            groups
            and i == groups[-1][-1] + 1
            and ctx.lecture.elements[i].section_path
            == ctx.lecture.elements[groups[-1][-1]].section_path
        ):
            groups[-1].append(i)
        else:
            groups.append([i])
    groups.sort(key=lambda g: (min(rho[i] for i in g), g[0]))
    groups = groups[: cfg.max_adds]

    working = kg.copy()
    embeddings_by_id = {
        node.id: aligned.space.node_embeddings[i]
        for i, node in enumerate(kg.nodes)
    }
    records: list[EditRecord] = []
    for group in groups:
        texts = [ctx.lecture.elements[i].content for i in group]
        path = ctx.lecture.elements[group[0]].section_path
        definition = " ".join(texts)[:MAX_DEFINITION_CHARS]
        node = ConceptNode(
            id=ctx.fresh_id(working, f"add_t{iteration}_{group[0]}"),
            label=ctx.namer.name(texts),
            definition=definition,
            provenance={"path": list(path), "excerpt": definition[:200]},
            confidence=0.5,
            rationale="covers lecture span with low coupled mass",
        )
        new_embedding = ctx.embed([node_text(node)])[0]
        others = list(working.nodes)
        working.nodes.append(node)
        edges: list[RelationEdge] = []
        if others:
            other_rows = np.stack([embeddings_by_id[n.id] for n in others])
            edges = propose_label_edges(
                node, working, other_rows, new_embedding, ctx.llm_client,
                ctx.allowed_relations,
            )
            working.edges.extend(edges)
        embeddings_by_id[node.id] = new_embedding
        records.append(
            EditRecord(
                op="add",
                nodes=[node.id],
                edges=[[e.src, e.relation, e.dst] for e in edges],
                rationale=f"under-covered span at {'/'.join(path)}",
                iteration=iteration,
            )
        )
    return working, records


def op_split(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Split nodes whose coupling column spreads over heterogeneous content.

    The coupled subset (entries above the column mean) is clustered by
    deterministic 2-means; subsets smaller than 4 elements are left
    alone. Children clone the parent's attributes, take their group's
    concatenated text as definition, and inherit every incident edge.
    """
    cfg = ctx.config
    entropies = column_entropy(aligned.coupling.matrix)
    candidates = [j for j in range(len(entropies)) if entropies[j] > cfg.theta_split]
    candidates.sort(key=lambda j: (-entropies[j], j))
    candidates = candidates[: cfg.max_splits]
    if not candidates:
        return kg, []

    plan = aligned.coupling.matrix
    working = None  # copied at the first split
    records: list[EditRecord] = []
    for j in candidates:
        parent = kg.nodes[j]
        column = plan[:, j]
        subset = np.flatnonzero(column > column.mean()).tolist()
        if len(subset) < 4:
            continue
        if working is None:
            working = kg.copy()
        labels = two_means(ctx.element_embeddings[subset])
        group_a = [subset[i] for i in range(len(subset)) if labels[i] == 0]
        group_b = [subset[i] for i in range(len(subset)) if labels[i] == 1]
        children: list[ConceptNode] = []
        for tag, group in (("a", group_a), ("b", group_b)):
            texts = [ctx.lecture.elements[i].content for i in group]
            children.append(
                ConceptNode(
                    id=ctx.fresh_id(working, f"{parent.id}_{tag}"),
                    label=ctx.namer.name(texts),
                    definition=" ".join(texts)[:MAX_DEFINITION_CHARS],
                    aliases=list(parent.aliases),
                    provenance=dict(parent.provenance) if parent.provenance else None,
                    confidence=parent.confidence,
                    rationale=f"split of {parent.id} (heterogeneous coupling)",
                )
            )
        idx = next(i for i, n in enumerate(working.nodes) if n.id == parent.id)
        working.nodes[idx : idx + 1] = children
        incident = [e for e in working.edges if parent.id in (e.src, e.dst)]
        working.edges = [e for e in working.edges if parent.id not in (e.src, e.dst)]
        keys = {e.key() for e in working.edges}
        for child in children:
            for e in incident:
                rewired = RelationEdge(
                    src=child.id if e.src == parent.id else e.src,
                    dst=child.id if e.dst == parent.id else e.dst,
                    relation=e.relation,
                    confidence=e.confidence,
                    rationale=e.rationale,
                )
                _add_edge_dedup(working, rewired, keys)
        records.append(
            EditRecord(
                op="split",
                nodes=[parent.id] + [c.id for c in children],
                rationale=f"column entropy {entropies[j]:.3f} above threshold",
                iteration=iteration,
            )
        )
    return (working, records) if records else (kg, [])


def op_merge(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Merge redundant node pairs (similar embeddings, similar columns).

    Pairs are scanned in ascending node order and accepted greedily; a
    node that took part in a merge this iteration is excluded from
    further merging. The absorbing node keeps its label and definition
    and gains the absorbed node's label and aliases as aliases. The
    cosine test is read from one Gram matrix of unit rows; pairs within
    ``_TIE_TOL`` of ``theta_cos`` are re-decided with the scalar
    ``cosine_similarity``.
    """
    cfg = ctx.config
    plan = aligned.coupling.matrix
    col_sums = plan.sum(axis=0)
    embeddings = aligned.space.node_embeddings
    unit = _unit_rows(embeddings)
    cos = unit @ unit.T
    similar = cos >= cfg.theta_cos
    for i, j in zip(*np.nonzero(np.abs(cos - cfg.theta_cos) <= _TIE_TOL)):
        similar[i, j] = cosine_similarity(embeddings[i], embeddings[j]) >= cfg.theta_cos
    working = None  # copied at the first merge
    used: set[str] = set()
    records: list[EditRecord] = []
    m = len(kg.nodes)
    for i in range(m):
        if len(records) >= cfg.max_merges:
            break
        keep = kg.nodes[i]
        if keep.id in used or col_sums[i] <= 0:
            continue
        for j in range(i + 1, m):
            drop = kg.nodes[j]
            if drop.id in used or col_sums[j] <= 0:
                continue
            if not similar[i, j]:
                continue
            kl = symmetric_kl(
                plan[:, i] / col_sums[i], plan[:, j] / col_sums[j], cfg.kl_smoothing
            )
            if kl > cfg.theta_merge:
                continue
            if working is None:
                working = kg.copy()
            _merge_into(working, keep.id, drop.id)
            used.update((keep.id, drop.id))
            records.append(
                EditRecord(
                    op="merge",
                    nodes=[keep.id, drop.id],
                    rationale=f"cosine above {cfg.theta_cos}, symmetric KL {kl:.4f}",
                    iteration=iteration,
                )
            )
            break
    return (working, records) if records else (kg, [])


def op_relate(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Add relatedTo edges between nodes with adjacent lecture neighborhoods.

    For every unconnected node pair, the mean lecture distance over the
    cross pairs of their top-coupled elements (identical indices
    excluded) must fall below the threshold. Pairs are taken in
    ascending node order (j < k); a pair already joined by an edge of
    the input graph is skipped.
    All pair means come from one gathered block of ``d_lecture``; a mean
    within ``_TIE_TOL`` of ``theta_relate`` is re-decided with
    ``np.mean`` over the cross pairs in row order, so the edges are those
    of the per-pair definition.
    """
    cfg = ctx.config
    d_lecture = ctx.lecture.distance
    m = len(kg.nodes)
    if m < 2:
        return kg, []
    plan = aligned.coupling.matrix
    tops = np.stack([top_coupled(plan, j) for j in range(m)])
    rows = tops[:, None, :, None]
    cols = tops[None, :, None, :]
    distinct = rows != cols  # (m, m, k, k): the p != q cross pairs
    counts = distinct.sum(axis=(2, 3))
    means = np.where(distinct, d_lecture[rows, cols], 0.0).sum(axis=(2, 3))
    means /= np.maximum(counts, 1)
    scored = np.triu(counts > 0, 1)
    related = scored & (means < cfg.theta_relate)
    near = scored & (np.abs(means - cfg.theta_relate) <= _TIE_TOL)
    for j, k in zip(*np.nonzero(near)):
        block = d_lecture[np.ix_(tops[j], tops[k])]
        related[j, k] = float(np.mean(block[distinct[j, k]])) < cfg.theta_relate

    linked = frozenset(frozenset((e.src, e.dst)) for e in kg.edges)
    added: list[RelationEdge] = []
    records: list[EditRecord] = []
    for j, k in zip(*np.nonzero(related)):
        a, b = kg.nodes[j], kg.nodes[k]
        if frozenset((a.id, b.id)) in linked:
            continue
        edge = RelationEdge(
            src=a.id,
            dst=b.id,
            relation="relatedTo",
            confidence=0.5,
            rationale="top-coupled lecture neighborhoods are adjacent",
        )
        added.append(edge)
        records.append(
            EditRecord(
                op="relate-add",
                nodes=[a.id, b.id],
                edges=[[edge.src, edge.relation, edge.dst]],
                iteration=iteration,
            )
        )
    if not records:
        return kg, []
    working = kg.copy()
    working.edges.extend(added)
    return working, records


def op_prune(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Remove edges whose coupling support falls below tau."""
    index = kg.node_index()
    plan = aligned.coupling.matrix
    pruned: set[int] = set()
    records: list[EditRecord] = []
    for pos, edge in enumerate(kg.edges):
        support = edge_support(plan, edge, index)
        if support < ctx.config.tau:
            pruned.add(pos)
            records.append(
                EditRecord(
                    op="prune",
                    nodes=[edge.src, edge.dst],
                    edges=[[edge.src, edge.relation, edge.dst]],
                    rationale=f"support {support:.3e} below tau",
                    iteration=iteration,
                )
            )
    if not records:
        return kg, []
    working = kg.copy()
    working.edges = [e for pos, e in enumerate(working.edges) if pos not in pruned]
    return working, records


def llm_propose_edges(
    kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext, iteration: int
) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """LLM pass proposing new edges from graph content only; a no-op
    without a client."""
    if ctx.llm_client is None:
        return kg, []
    doc = ctx.llm_client.chat_json(edge_prompt(kg, ctx.allowed_relations))
    proposals = _valid_edge_proposals(doc, kg, ctx.allowed_relations)
    if not proposals:
        return kg, []
    working = kg.copy()
    records = []
    for edge in proposals:
        working.edges.append(edge)
        records.append(
            EditRecord(
                op="llm-edge",
                nodes=[edge.src, edge.dst],
                edges=[[edge.src, edge.relation, edge.dst]],
                rationale=edge.rationale or "",
                iteration=iteration,
            )
        )
    return working, records


def two_means(points: np.ndarray, max_iters: int = 25) -> np.ndarray:
    """Deterministic 2-means: farthest-pair seeding, no RNG.

    The seeds are the pair (i < j) with the largest cosine distance;
    among pairs tied at the maximum, exact duplicates included, the first
    in row order wins (``_farthest_pair``). Assignment uses squared
    Euclidean distance with ties to cluster 0; an emptied cluster is
    repaired by reassigning the point farthest from the surviving
    centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        raise InputError("two_means needs at least 2 points")
    seed_a, seed_b = _farthest_pair(pts)
    centroids = np.stack([pts[seed_a], pts[seed_b]])
    labels: np.ndarray | None = None
    for _ in range(max_iters):
        d0 = ((pts - centroids[0]) ** 2).sum(axis=1)
        d1 = ((pts - centroids[1]) ** 2).sum(axis=1)
        new_labels = (d1 < d0).astype(int)
        for cluster in (0, 1):
            if not (new_labels == cluster).any():
                other = 1 - cluster
                far = int(np.argmax(((pts - centroids[other]) ** 2).sum(axis=1)))
                new_labels[far] = cluster
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        for cluster in (0, 1):
            centroids[cluster] = pts[labels == cluster].mean(axis=0)
    return labels


def _farthest_pair(pts: np.ndarray) -> tuple[int, int]:
    """The pair (i < j) with the largest ``cosine_distance``, ties to the
    first in row order.

    One Gram matrix of unit rows finds the pairs within ``_TIE_TOL`` of
    the maximum, and only those are rescored with the scalar kernel in
    row order, so exact duplicate points and equidistant pairs give the
    pair a full scalar scan would.
    """
    unit = _unit_rows(pts)
    approx = 1.0 - unit @ unit.T
    approx[np.tril_indices(len(pts))] = -np.inf
    rows, cols = np.nonzero(approx >= approx.max() - _TIE_TOL)
    best, pair = -1.0, (0, 1)
    for i, j in zip(rows.tolist(), cols.tolist()):
        d = cosine_distance(pts[i], pts[j])
        if d > best:
            best, pair = d, (i, j)
    return pair


# --- the search loop ----------------------------------------------------------


def refine(
    lecture: LectureSpace,
    initial_kg: KnowledgeGraph,
    provider,
    solver_config: SolverConfig | None = None,
    refine_config: RefinementConfig | None = None,
    gamma: tuple[float, float] = DEFAULT_GAMMA,
    llm_client: LlmClient | None = None,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> RefineOutcome:
    """Run the bounded refinement search and return the incumbent graph.

    The trace always contains the unedited initial graph as t0. On a
    solver failure mid-run the incumbent found so far is returned and
    the trace is flagged incomplete. The outcome carries the solved
    alignments of the initial graph and of the incumbent, so callers
    need not solve either again. One ``CostMemo`` serves every solve, so
    each node text is embedded and costed once per search.
    """
    solver_cfg = solver_config or SolverConfig()
    cfg = refine_config or RefinementConfig()
    memo = CostMemo(provider.embed, lecture.contents())
    ctx = OpContext(
        lecture=lecture,
        element_embeddings=memo.unit_rows,
        embed=memo.embed,
        namer=Namer(lecture.contents(), llm_client),
        config=cfg,
        llm_client=llm_client,
        allowed_relations=allowed_relations,
    )

    kg = initial_kg.copy()
    aligned = align_graph(lecture, kg, memo, gamma, solver_cfg)
    trace = RdTrace(beta=cfg.beta)
    _record(trace, 0, kg, aligned, cfg.beta, [])
    initial = incumbent = aligned
    incumbent_kg = kg.copy()
    incumbent_l = trace.points[0].objective
    incumbent_index = 0

    # looked up here, not at import, so a rebound module name takes effect
    operators = (op_add, op_split, op_merge, op_relate, op_prune)
    if llm_client is not None:
        operators += (llm_propose_edges,)
    quiet = 0
    previous_l = incumbent_l
    for t in range(1, cfg.max_iterations + 1):
        edits: list[EditRecord] = []
        try:
            for op in operators:
                kg, records = op(kg, aligned, ctx, t)
                if records:
                    _check_valid(kg, op.__name__, allowed_relations)
                    edits.extend(records)
                    aligned = align_graph(lecture, kg, memo, gamma, solver_cfg)
        except NumericalError as exc:
            logger.error("solver failure at iteration %d: %s", t, exc)
            trace.incomplete = True
            break

        _record(trace, t, kg, aligned, cfg.beta, edits)
        objective = trace.points[-1].objective
        if objective < incumbent_l:
            incumbent_l = objective
            incumbent_kg = kg.copy()
            incumbent = aligned
            incumbent_index = t
        if abs(objective - previous_l) < cfg.conv_threshold:
            quiet += 1
            if quiet >= cfg.patience:
                break
        else:
            quiet = 0
        previous_l = objective

    return RefineOutcome(
        graph=incumbent_kg, trace=trace, incumbent_index=incumbent_index,
        initial=initial, incumbent=incumbent,
    )


def _record(
    trace: RdTrace,
    t: int,
    kg: KnowledgeGraph,
    aligned: Aligned,
    beta: float,
    edits: list[EditRecord],
) -> None:
    r = rate(kg)
    d = aligned.result.distortion
    trace.points.append(
        RdPoint(
            t=t,
            rate=r,
            distortion=d,
            objective=r + beta * d,
            structure=aligned.result.structure_term,
            feature=aligned.result.feature_term,
        )
    )
    trace.edits.append([asdict(e) for e in edits])


def _check_valid(
    kg: KnowledgeGraph, op_name: str,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> None:
    violations = validate_graph(kg, allowed_relations)
    if violations:
        raise RuntimeError(f"{op_name} corrupted the graph: {violations}")


def _merge_into(kg: KnowledgeGraph, keep_id: str, drop_id: str) -> None:
    keep = kg.get_node(keep_id)
    drop = kg.get_node(drop_id)
    for alias in [drop.label, *drop.aliases]:
        alias = alias.strip()
        if alias and alias != keep.label and alias not in keep.aliases:
            keep.aliases.append(alias)
    kg.nodes = [n for n in kg.nodes if n.id != drop_id]
    old_edges = kg.edges
    kg.edges = []
    keys: set[tuple[str, str, str]] = set()
    for e in old_edges:
        src = keep_id if e.src == drop_id else e.src
        dst = keep_id if e.dst == drop_id else e.dst
        if src == dst:
            continue
        _add_edge_dedup(
            kg,
            RelationEdge(
                src=src, dst=dst, relation=e.relation,
                confidence=e.confidence, rationale=e.rationale, extra=dict(e.extra),
            ),
            keys,
        )


def _add_edge_dedup(
    kg: KnowledgeGraph, edge: RelationEdge, keys: set[tuple[str, str, str]]
) -> None:
    """Append ``edge`` unless ``keys`` (the keys of ``kg.edges``) has it."""
    key = edge.key()
    if key not in keys:
        keys.add(key)
        kg.edges.append(edge)

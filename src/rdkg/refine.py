"""Coupling-driven graph refinement minimizing rate + beta * distortion.

Each iteration runs the local edit operators in a fixed order (add,
split, merge, relate, prune, and the LLM edge pass when a client is
set). An operator changes no graph: it proposes a ranked list of edits,
and ``apply_edits`` copies the graph once and applies them to the copy
in order. That copy is the candidate: it is solved (``align_graph``)
and kept only if it strictly lowers the objective, else the previous
graph and alignment stay and the batch is recorded as rejected with its
rise in the objective. The distortion is never negative, so a
candidate's objective is at least its rate: a candidate whose rate
alone reaches the incumbent's objective cannot be kept and is not
solved. It is recorded as rejected with ``"solved": false`` and, as its
rise, the excess of its rate over the incumbent's objective, a lower
bound on the true rise. Each iteration then records
one trace row, so the trace objective never rises and the current graph
is the incumbent. A row holds its graph's rate, distortion and objective,
its alignment's solver diagnostics and coverage, and its kept and
rejected batches; their edit records name no iteration, the row's ``t``
is theirs. The trace is thus the run's one record: the report is read
from it alone. The operators are functions of ``(kg, aligned, ctx)``
alone, so each runs at most once per graph state: the search stops as
soon as every operator has run on the current graph since the last kept
batch (the fixed point), or after ``max_iterations``.

Operator signals all come from the coupling:

* add: row mass restricted to semantically close nodes. The raw row
  mass equals the element's measure whenever the marginals hold, so the
  restricted variant is what actually discriminates; elements whose
  mass within the coverage tolerance falls short get a new concept.
* split: normalized column entropy flags nodes coupled to heterogeneous
  lecture subsets; 2-means on the coupled embeddings yields children.
  (Entropy is normalized by ln N so the threshold is size independent.)
* merge: cosine similarity of node texts (one minus their feature cost)
  plus symmetric KL of column profiles detects redundant pairs.
* relate/prune: mean lecture distance between top-coupled neighborhoods
  adds relatedTo edges; the product of endpoint column masses prunes
  weakly supported ones.

The search's ``CostMemo`` is the one source of node rows and
node-to-node costs: split clusters its unit rows, merge reads its pair
costs, and add reads the new nodes' costs for its nearest-node edges.
Every cosine decision reads the one kernel, ``feature_cost``, and every
tie (split seeds, top-coupled elements) goes to the first in row order.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .analysis import RdPoint, RdTrace, _round9, coverage_tolerance, covered_fraction
from .embeddings import CostMemo, self_cost
from .errors import InputError, NumericalError
from .kg import (
    ALLOWED_RELATIONS,
    ConceptNode,
    KnowledgeGraph,
    RelationEdge,
    build_kg_space,
    copy_edge,
    copy_node,
    node_text,
    rate,
    validate_graph,
)
from .lecture import LectureSpace, uniform_measure
from .llm import LlmClient, Namer, _valid_edge_proposals, edge_prompt, propose_label_edges
from .ot import Coupling, FgwResult, fgw

logger = logging.getLogger(__name__)

MAX_DEFINITION_CHARS = 1000
#: The operator gates: fixed rules of the search, not settings (see README)
THETA_ADD = 0.02
THETA_SPLIT = 0.35
THETA_MERGE = 0.12
THETA_COS = 0.90
THETA_RELATE = 0.25
TAU = 1e-4
#: symmetric_kl's additive smoothing, and the cap on two_means's assignment steps
KL_SMOOTHING = 1e-9
TWO_MEANS_ITERS = 25


@dataclass
class RefinementConfig:
    beta: float = 100.0
    max_adds: int = 5
    max_splits: int = 3
    max_merges: int = 3
    max_iterations: int = 12

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise InputError("beta must be positive")


@dataclass
class EditRecord:
    op: str  # add | split | merge | relate-add | prune | llm-edge
    nodes: list[str] = field(default_factory=list)
    edges: list[list[str]] = field(default_factory=list)  # [src, relation, dst]
    rationale: str = ""


@dataclass
class Aligned:
    """One solved alignment between the lecture and the current graph."""

    feature: np.ndarray  # N x M cosine cost, absolute scale
    result: FgwResult

    @property
    def coupling(self) -> Coupling:
        return self.result.coupling

    @cached_property
    def tolerance(self) -> float:
        """``coverage_tolerance`` of the feature costs, taken once: the
        trace row and ``op_add`` both read it."""
        return coverage_tolerance(self.feature)


def align_graph(lecture: LectureSpace, kg: KnowledgeGraph, memo: CostMemo) -> Aligned:
    """Solve the fused transport alignment of ``kg`` to ``lecture``.

    Builds the graph's node distance, reads the cost of every lecture
    unit against every node from ``memo`` (made over ``lecture``'s units)
    and runs ``fgw`` with uniform measures. Every alignment the program
    solves comes from here.
    """
    distance = build_kg_space(kg, memo)
    feature = memo.unit_cost([node_text(n) for n in kg.nodes])
    result = fgw(lecture.distance, distance, feature,
                 lecture.measure, uniform_measure(len(kg.nodes)))
    return Aligned(feature=feature, result=result)


@dataclass
class RefineOutcome:
    graph: KnowledgeGraph
    trace: RdTrace
    incumbent_index: int


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


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """0.5 * (KL(p||q) + KL(q||p)) after adding KL_SMOOTHING to every entry.

    Smoothing every entry before renormalizing keeps the value finite
    on disjoint supports. Profiles equal up to rounding give 0.0, not
    a rounding residue of either sign.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError("symmetric_kl: length mismatch")
    ps = (p + KL_SMOOTHING) / (p + KL_SMOOTHING).sum()
    qs = (q + KL_SMOOTHING) / (q + KL_SMOOTHING).sum()
    forward = float((ps * np.log(ps / qs)).sum())
    backward = float((qs * np.log(qs / ps)).sum())
    return max(0.0, 0.5 * (forward + backward))


# --- shared operator context -------------------------------------------------


@dataclass
class OpContext:
    lecture: LectureSpace
    memo: CostMemo  # the search's node rows and costs, made over the lecture's units
    namer: Namer
    config: RefinementConfig
    llm_client: LlmClient | None = None
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS


def fresh_id(kg: KnowledgeGraph, base: str) -> str:
    """``base``, or ``base_<k>`` with the least k >= 1 that ``kg`` does not
    use: a function of the graph, so an edit proposed again on the same
    graph gets the same ids (and the same LLM prompts)."""
    existing = set(kg.node_ids())
    candidate, k = base, 0
    while candidate in existing:
        k += 1
        candidate = f"{base}_{k}"
    return candidate


# --- operators ---------------------------------------------------------------

#: One proposed edit: it changes the working graph in place and returns its
#: record. The record exists only once the edit is applied, because it names
#: the ids that ``fresh_id`` picks on the working graph.
Edit = Callable[[KnowledgeGraph], EditRecord]


def apply_edits(kg: KnowledgeGraph, edits: list[Edit]) -> tuple[KnowledgeGraph, list[EditRecord]]:
    """Copy ``kg`` once and apply ``edits`` to the copy in order: the
    candidate graph of a batch and its records. ``kg`` is left as it was."""
    working = kg.copy()
    return working, [edit(working) for edit in edits]


def op_add(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """Add concepts for under-covered lecture spans (lowest mass first).

    Contiguous flagged elements sharing a section path become one node,
    joined by a single low-confidence relatedTo edge to the nearest
    concept added or existing before it (``propose_label_edges``). The
    new nodes are named and their texts costed in one memo read; each
    add, when applied, reads its costs against the working graph's nodes
    from the memo by text, so a subset of the batch, or the batch in
    another order, links each node to its own nearest. Every text it
    reads was costed by then. A node's id is ``add_<unit>``, its span's
    first unit, and names no iteration: a rejected batch that is
    proposed again sends the same name prompts, which the LLM client's
    cache answers. LLM edges that touch a new node come from
    ``llm_propose_edges``, as their own batch.
    """
    rho = covered_row_mass(aligned.coupling.matrix, aligned.feature, aligned.tolerance)
    flagged = [i for i in range(len(rho)) if rho[i] < THETA_ADD]
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
    groups = groups[: ctx.config.max_adds]
    if not groups:
        return []

    new_nodes = []
    for group in groups:
        texts = [ctx.lecture.elements[i].content for i in group]
        path = ctx.lecture.elements[group[0]].section_path
        definition = " ".join(texts)[:MAX_DEFINITION_CHARS]
        new_nodes.append(ConceptNode(
            id=f"add_{group[0]}",  # the base of the id fresh_id gives it
            label=ctx.namer.name(texts),
            definition=definition,
            provenance={"path": list(path), "excerpt": definition[:200]},
            confidence=0.5,
            rationale="covers lecture span with low coupled mass",
        ))
    ctx.memo.pair_cost([node_text(n) for n in kg.nodes + new_nodes])
    return [partial(_add_node, node, ctx.memo) for node in new_nodes]


def _add_node(proposed: ConceptNode, memo: CostMemo, working: KnowledgeGraph) -> EditRecord:
    node = copy_node(proposed)
    node.id = fresh_id(working, proposed.id)
    costs = memo.pair_cost([node_text(n) for n in working.nodes + [node]])[-1, :-1]
    edges = propose_label_edges(node, working.nodes, costs)
    working.nodes.append(node)
    working.edges.extend(edges)
    return EditRecord(
        op="add",
        nodes=[node.id],
        edges=[[e.src, e.relation, e.dst] for e in edges],
        rationale=f"under-covered span at {'/'.join(node.provenance['path'])}",
    )


def op_split(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """Split nodes whose coupling column spreads over heterogeneous content.

    The coupled subset (entries above the column mean) is clustered by
    deterministic 2-means; subsets smaller than 4 elements are left
    alone. Children clone the parent's attributes (``extra`` included),
    take their group's concatenated text as definition, and inherit every
    incident edge with its ``extra``.
    """
    plan = aligned.coupling.matrix
    entropies = column_entropy(plan)
    candidates = [j for j in range(len(entropies)) if entropies[j] > THETA_SPLIT]
    candidates.sort(key=lambda j: (-entropies[j], j))
    edits: list[Edit] = []
    for j in candidates[: ctx.config.max_splits]:
        column = plan[:, j]
        subset = np.flatnonzero(column > column.mean()).tolist()
        if len(subset) < 4:
            continue
        labels = two_means(ctx.memo.unit_rows[subset])
        children = []  # (label, definition) of child a, then of child b
        for cluster in (0, 1):
            texts = [ctx.lecture.elements[subset[i]].content
                     for i in range(len(subset)) if labels[i] == cluster]
            children.append((ctx.namer.name(texts), " ".join(texts)[:MAX_DEFINITION_CHARS]))
        edits.append(partial(_split_node, kg.nodes[j].id, children,
                             f"column entropy {entropies[j]:.3f} above threshold"))
    return edits


def _split_node(parent_id: str, children: list[tuple[str, str]], rationale: str,
                working: KnowledgeGraph) -> EditRecord:
    """Replace the parent by its children at its position in the node list.
    The non-incident edges keep their order; then come child a's rewired
    edges, then child b's, each dropped if its key is already present."""
    idx = next(i for i, n in enumerate(working.nodes) if n.id == parent_id)
    nodes = []
    for tag, (label, definition) in zip("ab", children):
        child = copy_node(working.nodes[idx])
        child.id = fresh_id(working, f"{parent_id}_{tag}")
        child.label, child.definition = label, definition
        child.rationale = f"split of {parent_id} (heterogeneous coupling)"
        nodes.append(child)
    working.nodes[idx : idx + 1] = nodes
    incident = [e for e in working.edges if parent_id in (e.src, e.dst)]
    working.edges = [e for e in working.edges if parent_id not in (e.src, e.dst)]
    keys = {e.key() for e in working.edges}
    # the working graph owns its edges: child a rewires them in place, child b
    # the copies taken before that
    copies = [copy_edge(e) for e in incident]
    for child, edges in zip(nodes, (incident, copies)):
        for e in edges:
            _add_edge_dedup(working, _rewire(e, parent_id, child.id), keys)
    return EditRecord(op="split", nodes=[parent_id] + [c.id for c in nodes], rationale=rationale)


def op_merge(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """Merge redundant node pairs (similar texts, similar columns).

    Pairs are scanned in ascending node order and accepted greedily; a
    node that took part in a merge this iteration is excluded from
    further merging. The absorbing node keeps its label and definition
    and gains the absorbed node's label and aliases as aliases. A pair's
    cosine similarity is one minus the feature cost of its node texts,
    read from the search's memo.
    """
    plan = aligned.coupling.matrix
    col_sums = plan.sum(axis=0)
    similar = 1.0 - ctx.memo.pair_cost([node_text(n) for n in kg.nodes]) >= THETA_COS
    used: set[str] = set()
    edits: list[Edit] = []
    m = len(kg.nodes)
    for i in range(m):
        if len(edits) >= ctx.config.max_merges:
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
            kl = symmetric_kl(plan[:, i] / col_sums[i], plan[:, j] / col_sums[j])
            if kl > THETA_MERGE:
                continue
            used.update((keep.id, drop.id))
            edits.append(partial(_merge_nodes, keep.id, drop.id,
                                 f"cosine above {THETA_COS}, symmetric KL {kl:.4f}"))
            break
    return edits


def _merge_nodes(keep_id: str, drop_id: str, rationale: str,
                 working: KnowledgeGraph) -> EditRecord:
    """Fold the dropped node into the kept one. The edges keep their order,
    rewired to the kept node; self-loops and repeated keys are dropped."""
    keep = working.get_node(keep_id)
    drop = working.get_node(drop_id)
    for alias in [drop.label, *drop.aliases]:
        alias = alias.strip()
        if alias and alias != keep.label and alias not in keep.aliases:
            keep.aliases.append(alias)
    working.nodes = [n for n in working.nodes if n.id != drop_id]
    old_edges = working.edges
    working.edges = []
    keys: set[tuple[str, str, str]] = set()
    for e in old_edges:  # the working graph's own edges, rewired in place
        _rewire(e, drop_id, keep_id)
        if e.src != e.dst:
            _add_edge_dedup(working, e, keys)
    return EditRecord(op="merge", nodes=[keep_id, drop_id], rationale=rationale)


def _rewire(edge: RelationEdge, old_id: str, new_id: str) -> RelationEdge:
    """Point ``edge``'s endpoints at ``old_id`` to ``new_id``, in place."""
    if edge.src == old_id:
        edge.src = new_id
    if edge.dst == old_id:
        edge.dst = new_id
    return edge


def op_relate(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """Add relatedTo edges between nodes with adjacent lecture neighborhoods.

    A node's top-coupled elements are the 5 largest entries of its
    coupling column, ties to the lowest index. For every unconnected node
    pair, the mean lecture distance over the cross pairs of their
    top-coupled elements (identical indices excluded) must fall below
    the threshold. Pairs are taken in ascending node order (j < k); a
    pair already joined by an edge of the input graph is skipped.
    All pair means come from one gathered block of ``d_lecture``, and
    that mean is the definition: a pair whose mean equals
    ``THETA_RELATE`` is not related.
    """
    d_lecture = ctx.lecture.distance
    if len(kg.nodes) < 2:
        return []
    plan = aligned.coupling.matrix
    tops = np.argsort(-plan, axis=0, kind="stable")[:5].T
    rows = tops[:, None, :, None]
    cols = tops[None, :, None, :]
    distinct = rows != cols  # (m, m, k, k): the p != q cross pairs
    counts = distinct.sum(axis=(2, 3))
    means = np.where(distinct, d_lecture[rows, cols], 0.0).sum(axis=(2, 3))
    means /= np.maximum(counts, 1)
    scored = np.triu(counts > 0, 1)
    related = scored & (means < THETA_RELATE)

    linked = frozenset(frozenset((e.src, e.dst)) for e in kg.edges)
    edits: list[Edit] = []
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
        edits.append(partial(_append_edge, "relate-add", "", edge))
    return edits


def op_prune(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """Remove edges whose support, the product of their endpoints' column
    masses, falls below TAU."""
    index = kg.node_index()
    masses = aligned.coupling.matrix.sum(axis=0)
    edits: list[Edit] = []
    for edge in kg.edges:
        support = float(masses[index[edge.src]] * masses[index[edge.dst]])
        if support < TAU:
            edits.append(partial(_remove_edge, edge, f"support {support:.3e} below tau"))
    return edits


def _remove_edge(edge: RelationEdge, rationale: str, working: KnowledgeGraph) -> EditRecord:
    working.edges.remove(edge)  # the first equal edge: equal edges have equal support
    return EditRecord(op="prune", nodes=[edge.src, edge.dst],
                      edges=[[edge.src, edge.relation, edge.dst]], rationale=rationale)


def llm_propose_edges(kg: KnowledgeGraph, aligned: Aligned, ctx: OpContext) -> list[Edit]:
    """LLM pass proposing new edges from graph content only; proposes
    nothing without a client."""
    if ctx.llm_client is None:
        return []
    doc = ctx.llm_client.chat_json(edge_prompt(kg, ctx.allowed_relations))
    return [partial(_append_edge, "llm-edge", edge.rationale or "", edge)
            for edge in _valid_edge_proposals(doc, kg, ctx.allowed_relations)]


def _append_edge(op: str, rationale: str, edge: RelationEdge,
                 working: KnowledgeGraph) -> EditRecord:
    working.edges.append(copy_edge(edge))
    return EditRecord(op=op, nodes=[edge.src, edge.dst],
                      edges=[[edge.src, edge.relation, edge.dst]], rationale=rationale)


def two_means(points: np.ndarray) -> np.ndarray:
    """Deterministic 2-means: farthest-pair seeding, no RNG, at most
    TWO_MEANS_ITERS assignment steps.

    The seeds are the pair (i < j) with the largest ``feature_cost``;
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
    for _ in range(TWO_MEANS_ITERS):
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
    """The pair (i < j) with the largest ``feature_cost``, ties to the
    first in row order.

    The costs are ``self_cost(pts)``, bit-equal to ``feature_cost(pts,
    pts)`` at half the work. An entry depends only on its two rows, so
    the maximum and its ties are those of any pair-by-pair scan of the
    same kernel; exact duplicate points cost exactly 0.
    """
    cost = self_cost(pts)
    cost[np.tril_indices(len(pts))] = -np.inf
    i, j = np.unravel_index(np.argmax(cost), cost.shape)
    return int(i), int(j)


# --- the search loop ----------------------------------------------------------


def refine(
    lecture: LectureSpace,
    initial_kg: KnowledgeGraph,
    provider,
    refine_config: RefinementConfig | None = None,
    llm_client: LlmClient | None = None,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> RefineOutcome:
    """Run the bounded refinement search and return the incumbent graph.

    The trace always contains the unedited initial graph as t0. A batch
    is kept only if it lowers the objective, so the current graph is the
    incumbent, and ``incumbent_index`` is the last row that kept an edit
    (0 if none did). Each operator proposes its edits without changing
    the graph, and ``apply_edits`` applies them in order to one copy,
    the candidate. A candidate whose rate is at least the incumbent's
    objective is rejected unsolved (``beta * D >= 0``): its record has
    ``"solved": false`` and ``delta_L`` = rate - objective, a lower bound
    on its rise, and a solve that would have raised ``NumericalError``
    for it never runs. The operators read only the graph and its
    alignment, and name ids and prompts from them, so an operator run
    again on the same graph proposes the batch it proposed before. The
    search counts the operator runs since the last kept batch and stops
    once every operator has run on the current graph: the last row
    lists only the operators that had not yet run on it. On a solver
    failure mid-run the graph of the last recorded row is returned and
    the trace is flagged incomplete. Each row records its alignment's
    coverage, so the first and last rows hold the coverage before and
    after. One ``CostMemo`` serves every solve, so each node text is
    embedded and costed once per search.
    """
    cfg = refine_config or RefinementConfig()
    memo = CostMemo(provider.embed, lecture.contents())
    ctx = OpContext(
        lecture=lecture,
        memo=memo,
        namer=Namer(lecture.contents(), llm_client),
        config=cfg,
        llm_client=llm_client,
        allowed_relations=allowed_relations,
    )

    kg = initial_kg.copy()
    aligned = align_graph(lecture, kg, memo)
    trace = RdTrace(beta=cfg.beta)
    _record(trace, 0, kg, aligned, cfg, [], [])
    incumbent_index = 0

    # looked up here, not at import, so a rebound module name takes effect
    operators = (op_add, op_split, op_merge, op_relate, op_prune)
    if llm_client is not None:
        operators += (llm_propose_edges,)
    idle_runs = 0  # operator runs on the current graph and alignment
    for t in range(1, cfg.max_iterations + 1):
        # an operator only proposes, and apply_edits edits its own copy, so
        # the recorded state needs no copy
        recorded = kg, aligned
        edits: list[EditRecord] = []
        rejected: list[dict] = []
        try:
            for op in operators:
                if idle_runs == len(operators):
                    break  # every operator has run on this graph: the fixed point
                idle_runs += 1
                proposed = op(kg, aligned, ctx)
                if not proposed:
                    continue
                candidate, records = apply_edits(kg, proposed)
                # the records name the operator; a wrapper around op may not
                _check_valid(candidate, records[0].op, allowed_relations)
                incumbent = _objective(kg, aligned, cfg.beta)
                if rate(candidate) >= incumbent:
                    # beta * D >= 0, so the candidate's L is at least its rate: no
                    # solve can make it lower L, and its rate's excess is a lower
                    # bound on its rise
                    rejected.append({"op": records[0].op,
                                     "delta_L": _round9(rate(candidate) - incumbent),
                                     "solved": False, "edits": [asdict(r) for r in records]})
                    continue
                solution = align_graph(lecture, candidate, memo)
                delta = _objective(candidate, solution, cfg.beta) - incumbent
                if delta < 0:
                    kg, aligned = candidate, solution
                    edits.extend(records)
                    idle_runs = 0
                else:
                    rejected.append({"op": records[0].op, "delta_L": _round9(delta),
                                     "edits": [asdict(r) for r in records]})
        except NumericalError as exc:
            logger.error("solver failure at iteration %d: %s", t, exc)
            trace.incomplete = True
            kg, aligned = recorded
            break

        _record(trace, t, kg, aligned, cfg, edits, rejected)
        if not edits:
            break  # a row that keeps nothing ends at the fixed point
        incumbent_index = t

    return RefineOutcome(graph=kg, trace=trace, incumbent_index=incumbent_index)


def _record(
    trace: RdTrace,
    t: int,
    kg: KnowledgeGraph,
    aligned: Aligned,
    cfg: RefinementConfig,
    edits: list[EditRecord],
    rejected: list[dict],
) -> None:
    result = aligned.result
    trace.points.append(
        RdPoint(
            t=t,
            rate=rate(kg),
            distortion=result.distortion,
            objective=_objective(kg, aligned, cfg.beta),
            structure=result.structure_term,
            feature=result.feature_term,
            outer_iterations=result.outer_iterations,
            converged=result.converged,
            coverage=covered_fraction(aligned.feature, aligned.coupling.matrix,
                                      aligned.tolerance),
        )
    )
    trace.edits.append([asdict(e) for e in edits])
    trace.rejected.append(rejected)


def _objective(kg: KnowledgeGraph, aligned: Aligned, beta: float) -> float:
    return rate(kg) + beta * aligned.result.distortion


def _check_valid(
    kg: KnowledgeGraph, op_name: str,
    allowed_relations: frozenset[str] = ALLOWED_RELATIONS,
) -> None:
    violations = validate_graph(kg, allowed_relations)
    if violations:
        raise RuntimeError(f"{op_name} corrupted the graph: {violations}")


def _add_edge_dedup(
    kg: KnowledgeGraph, edge: RelationEdge, keys: set[tuple[str, str, str]]
) -> None:
    """Append ``edge`` unless ``keys`` (the keys of ``kg.edges``) has it."""
    key = edge.key()
    if key not in keys:
        keys.add(key)
        kg.edges.append(edge)

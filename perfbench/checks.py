"""Output checks, made apart from the program.

Each check derives what it expects from the generator's record of the
input or from properties the method must have, never from a stored copy
of earlier output. The only program code used is the embedding
provider, to obtain the same node vectors the program sees; the graph
geometry, the fusion and the distortion sum are rebuilt here.

Every check returns a list of failure strings; empty means passed.
"""

from __future__ import annotations

import json
import re
from collections import deque
from pathlib import Path

import numpy as np

from gen import Lecture

# Documented defaults (README "Configuration" and "KG JSON format").
GAMMA = (0.4, 0.6)
LAMBDA_FEAT = 0.6
RELATIONS = frozenset(
    "isA partOf prerequisiteOf dependsOn uses exampleOf contrastsWith implies "
    "provedBy produces consumes assessedBy relatedTo".split()
)
TOL = 1e-6


def _load(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_ingest(space_path: Path, lecture: Lecture) -> list[str]:
    doc = _load(space_path)
    fails = []
    elements = doc["elements"]
    if len(elements) != len(lecture.unit_paths):
        return [f"unit count {len(elements)} != generated {len(lecture.unit_paths)}"]
    for i, (element, path) in enumerate(zip(elements, lecture.unit_paths)):
        if tuple(element["path"]) != path:
            fails.append(f"unit {i} path {element['path']} != {list(path)}")
            break
    d = np.asarray(doc["d"], dtype=np.float64)
    mu = np.asarray(doc["mu"], dtype=np.float64)
    n = len(elements)
    off = ~np.eye(n, dtype=bool)
    if d.shape != (n, n):
        return fails + [f"d has shape {d.shape}"]
    if np.abs(d - d.T).max() > 1e-12:
        fails.append("d is not symmetric")
    if np.abs(np.diag(d)).max() != 0.0:
        fails.append("d has a nonzero diagonal")
    if abs(d[off].min()) > 1e-12 or abs(d[off].max() - 1.0) > 1e-12:
        fails.append(f"d off-diagonal range [{d[off].min()}, {d[off].max()}] != [0, 1]")
    if np.abs(mu - 1.0 / n).max() > 1e-15 or abs(mu.sum() - 1.0) > 1e-12:
        fails.append("mu is not uniform with total 1")
    return fails


def check_bootstrap(kg_path: Path, lecture: Lecture) -> list[str]:
    doc = _load(kg_path)
    fails = []
    if len(doc["nodes"]) != len(lecture.headings):
        fails.append(f"{len(doc['nodes'])} nodes for {len(lecture.headings)} headings")
    label = {n["id"]: n["label"] for n in doc["nodes"]}
    part_of = sorted(
        (label.get(e["src"]), label.get(e["dst"]))
        for e in doc["edges"] if e["relation"] == "partOf"
    )
    expected = sorted((t, p) for t, p in lecture.headings if p is not None)
    if part_of != expected:
        fails.append(f"{len(part_of)} partOf edges do not match the "
                     f"{len(expected)} nested headings")
    return fails


def check_graph(doc: dict) -> list[str]:
    """Validity: unique ids, known endpoints, allowed relations, no
    self-loops, confidences in [0, 1]."""
    fails = []
    ids = [n["id"] for n in doc["nodes"]]
    if len(set(ids)) != len(ids):
        fails.append("duplicate node ids")
    known = set(ids)
    for n in doc["nodes"]:
        if not 0.0 <= n["confidence"] <= 1.0:
            fails.append(f"node {n['id']} confidence {n['confidence']}")
    for e in doc["edges"]:
        if e["src"] not in known or e["dst"] not in known:
            fails.append(f"edge {e['src']}-{e['dst']} has an unknown endpoint")
        if e["src"] == e["dst"]:
            fails.append(f"self-loop on {e['src']}")
        if e["relation"] not in RELATIONS:
            fails.append(f"relation {e['relation']} not allowed")
        if not 0.0 <= e["confidence"] <= 1.0:
            fails.append(f"edge {e['src']}-{e['dst']} confidence {e['confidence']}")
    return fails


def read_trace(trace_path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(trace_path).read_text().splitlines() if line]


def incumbent(rows: list[dict]) -> dict:
    """First row of least objective."""
    return min(rows, key=lambda r: (r["objective"], r["t"]))


_INCUMBENT_RE = re.compile(r"incumbent t=(\d+)")


def check_refine(out_dir: Path, beta: float, refine_output: str) -> list[str]:
    """Trace rows, incumbent, refined graph and refine's own report."""
    fails = []
    rows = read_trace(out_dir / "trace.jsonl")
    for r in rows:
        expect = r["rate"] + beta * r["distortion"]
        if abs(r["objective"] - expect) > 1e-8 * max(1.0, abs(expect)) + 1e-9:
            fails.append(f"t={r['t']}: objective {r['objective']} != R + beta*D = {expect}")
        if r["distortion"] < 0:
            fails.append(f"t={r['t']}: negative distortion")
    graph = _load(out_dir / "refined.kg.json")
    fails += check_graph(graph)
    best = incumbent(rows)
    printed = _INCUMBENT_RE.search(refine_output)
    if printed is None or int(printed.group(1)) != best["t"]:
        fails.append(f"refine reported {printed and printed.group(0)}, trace argmin "
                     f"is t={best['t']}")
    refined_rate = len(graph["nodes"]) + 0.5 * len(graph["edges"])
    if refined_rate != best["rate"]:
        fails.append(f"refined graph rate {refined_rate} != incumbent rate {best['rate']}")
    fails += check_report(out_dir / "report.json", len(rows), with_coverage=True)
    return fails


def check_report(report_path: Path, n_rows: int, with_coverage: bool) -> list[str]:
    report = _load(report_path)
    fails = []
    knee = report["knee_index"]
    if not (isinstance(knee, int) and 0 <= knee < n_rows):
        fails.append(f"knee index {knee} outside a {n_rows}-row trace")
    for key in ("coverage_before", "coverage_after"):
        value = report[key]
        if with_coverage and not (value is not None and 0.0 <= value <= 1.0):
            fails.append(f"{key} {value} outside [0, 1]")
    return fails


_D_RE = re.compile(r"^D=([0-9.eE+-]+) ")


def printed_distortion(align_output: str) -> float | None:
    match = _D_RE.match(align_output.strip())
    return float(match.group(1)) if match else None


def check_aligned_d(align_output: str, expected_d: float) -> list[str]:
    printed = printed_distortion(align_output)
    if printed is None:
        return [f"align printed no D: {align_output!r}"]
    if abs(printed - expected_d) > TOL:
        return [f"align D {printed} != incumbent D {expected_d}"]
    return []


# --- independent distortion ---------------------------------------------------


def node_text(node: dict) -> str:
    """Embedding text of a node: label, definition, up to three aliases."""
    aliases = "; ".join(a.strip() for a in node["aliases"][:3] if a.strip())
    parts = [node["label"].strip(), node["definition"].strip(), aliases]
    return ". ".join(p for p in parts if p)


def bfs_hops(doc: dict) -> np.ndarray:
    ids = [n["id"] for n in doc["nodes"]]
    index = {v: i for i, v in enumerate(ids)}
    neighbours: list[set[int]] = [set() for _ in ids]
    for e in doc["edges"]:
        a, b = index[e["src"]], index[e["dst"]]
        neighbours[a].add(b)
        neighbours[b].add(a)
    hops = np.full((len(ids), len(ids)), -1.0)
    for s in range(len(ids)):
        hops[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if hops[s, v] < 0:
                    hops[s, v] = hops[s, u] + 1
                    queue.append(v)
    hops[hops < 0] = hops.max() + 1
    return hops


def cosine_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.clip(1.0 - a @ b.T, 0.0, 2.0)


def offdiag_minmax(m: np.ndarray) -> np.ndarray:
    off = ~np.eye(len(m), dtype=bool)
    lo, hi = m[off].min(), m[off].max()
    out = np.zeros_like(m)
    if hi > lo:
        out[off] = (m[off] - lo) / (hi - lo)
    return out


def four_index_distortion(
    pi: np.ndarray, d: np.ndarray, c2: np.ndarray, feature: np.ndarray
) -> float:
    """(1 - lambda) sum_ijkl |d_ik - C2_jl|^2 pi_ij pi_kl + lambda <M, pi>."""
    diff = d[:, None, :, None] - c2[None, :, None, :]  # axes i, j, k, l
    structure = float(np.einsum("ijkl,ij,kl->", diff * diff, pi, pi))
    return (1.0 - LAMBDA_FEAT) * structure + LAMBDA_FEAT * float((feature * pi).sum())


def check_coupling(
    coupling_path: Path, space_path: Path, kg_path: Path, embed, align_output: str
) -> list[str]:
    """Marginals of an ``align --debug`` coupling, and its printed D
    against the explicit four-index sum."""
    pi = np.asarray(_load(coupling_path)["rows"], dtype=np.float64)
    space = _load(space_path)
    graph = _load(kg_path)
    d = np.asarray(space["d"], dtype=np.float64)
    mu = np.asarray(space["mu"], dtype=np.float64)
    m = len(graph["nodes"])
    fails = []
    if pi.shape != (len(mu), m):
        return [f"coupling shape {pi.shape} != ({len(mu)}, {m})"]
    if np.abs(pi.sum(axis=1) - mu).max() > TOL:
        fails.append("coupling row sums differ from mu")
    if np.abs(pi.sum(axis=0) - 1.0 / m).max() > TOL:
        fails.append("coupling column sums differ from the node measure")
    node_vectors = embed([node_text(n) for n in graph["nodes"]])
    unit_vectors = embed([e["content"] for e in space["elements"]])
    hops = bfs_hops(graph)
    c2 = offdiag_minmax(
        GAMMA[0] * hops / hops.max() + GAMMA[1] * offdiag_minmax(cosine_cost(node_vectors, node_vectors))
    )
    expected = four_index_distortion(pi, d, c2, cosine_cost(unit_vectors, node_vectors))
    printed = printed_distortion(align_output)
    if printed is None or abs(printed - expected) > TOL:
        fails.append(f"align D {printed} != four-index sum {expected:.9f}")
    return fails

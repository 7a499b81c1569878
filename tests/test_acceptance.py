"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Oracles (grid search, 4-index sums, permutation enumeration)
are independent re-implementations, not solver code paths.
"""

import itertools
import json
import time

import numpy as np

from rdkg.analysis import coverage, knee_point, RdPoint
from rdkg.cli import EXIT_OK, main
from rdkg.embeddings import CostMemo
from rdkg.kg import kg_to_dict, load_kg, rate, save_kg
from rdkg.lecture import build_lecture_space
from rdkg.ot import LAMBDA_FEAT, fgw, sinkhorn, structure_value
from rdkg.refine import RefinementConfig, align_graph, refine

from conftest import random_metric, topic_a_only_kg, two_topic_markdown


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {message}")


def four_index_structure(c1, c2, plan):
    n, m = plan.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    total += (c1[i, k] - c2[j, l]) ** 2 * plan[i, j] * plan[k, l]
    return total


def fused_objective(c1, c2, feats, plan, lam):
    return (1 - lam) * four_index_structure(c1, c2, plan) + lam * float(
        (feats * plan).sum()
    )


def test_criterion_01_sinkhorn_grid_oracle():
    """2x2 uniform-marginal problems against dense grid search."""
    rng = np.random.default_rng(11)
    eps = 0.05
    u = np.array([0.5, 0.5])
    t_grid = np.linspace(0.0, 0.5, 20001)
    started = time.time()
    worst = 0.0
    for _ in range(100):
        cost = rng.random((2, 2)) * 2
        out = sinkhorn(cost, u, u, eps, 5000)
        assert out.marginal_residual() <= 1e-6
        p = out.matrix[out.matrix > 0]
        solver_obj = float((cost * out.matrix).sum() + eps * (p * np.log(p)).sum())
        # plans on the polytope are [[t, .5-t], [.5-t, t]]; evaluate the
        # regularized objective on the whole grid at once
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(t_grid > 0, t_grid * np.log(t_grid), 0.0)
            s = 0.5 - t_grid
            ent = ent + np.where(s > 0, s * np.log(s), 0.0)
        linear = t_grid * (cost[0, 0] + cost[1, 1]) + (0.5 - t_grid) * (
            cost[0, 1] + cost[1, 0]
        )
        grid_best = float((linear + eps * 2.0 * ent).min())
        gap = abs(solver_obj - grid_best)
        worst = max(worst, gap)
        assert gap <= 1e-3
    elapsed = time.time() - started
    assert elapsed < 5.0
    note(1, f"100 instances, worst objective gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gw_decomposition_oracle():
    """Fast structural term equals the explicit 4-index sum (1e-10)."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        c1 = random_metric(n, rng)
        c2 = random_metric(m, rng)
        plan = rng.random((n, m))
        plan /= plan.sum()
        gap = abs(structure_value(c1, c2, plan) - four_index_structure(c1, c2, plan))
        worst = max(worst, gap)
        assert gap <= 1e-10
    note(2, f"200 instances, worst decomposition gap {worst:.2e}")


def test_criterion_03_fgw_permutation_upper_bound():
    """Solver distortion within 0.1 of the best permutation coupling."""
    rng = np.random.default_rng(13)
    lam = LAMBDA_FEAT
    started = time.time()
    worst = -np.inf
    for trial in range(50):
        n = 3 if trial % 2 == 0 else 4
        c1 = random_metric(n, rng)
        c2 = random_metric(n, rng)
        feats = rng.random((n, n)) * 2
        mu = np.full(n, 1 / n)
        res = fgw(c1, c2, feats, mu, mu)
        best = min(
            fused_objective(
                c1, c2, feats, _perm_plan(n, perm), lam
            )
            for perm in itertools.permutations(range(n))
        )
        worst = max(worst, res.distortion - best)
        assert res.distortion <= best + 0.1
    elapsed = time.time() - started
    assert elapsed < 30.0
    note(3, f"50 instances, worst solver-minus-bound gap {worst:+.4f}, {elapsed:.1f}s")


def _perm_plan(n, perm):
    plan = np.zeros((n, n))
    plan[range(n), perm] = 1.0 / n
    return plan


def test_criterion_04_self_alignment(gates):
    """Identical spaces: distortion <= 0.05 and identity matching."""
    gates(epsilon=0.05)
    rng = np.random.default_rng(14)
    n = 8
    d = random_metric(n, rng)
    feats = np.ones((n, n)) - np.eye(n)
    mu = np.full(n, 1 / n)
    res = fgw(d, d, feats, mu, mu)
    assert res.distortion <= 0.05
    assert list(res.coupling.matrix.argmax(axis=1)) == list(range(n))
    note(4, f"distortion {res.distortion:.2e}, identity argmax")


def test_criterion_05_lambda_reductions(gates):
    """lambda=1 distortion is <M, pi>; lambda=0 is the structure term."""
    rng = np.random.default_rng(15)
    n, m = 4, 3
    c1, c2 = random_metric(n, rng), random_metric(m, rng)
    feats = rng.random((n, m)) * 2
    mu, nu = np.full(n, 1 / n), np.full(m, 1 / m)
    gates(lambda_feat=1.0)
    at_one = fgw(c1, c2, feats, mu, nu)
    gap_one = abs(at_one.distortion - float((feats * at_one.coupling.matrix).sum()))
    assert gap_one <= 1e-9
    gates(lambda_feat=0.0)
    at_zero = fgw(c1, c2, feats, mu, nu)
    gap_zero = abs(at_zero.distortion - at_zero.structure_term)
    assert gap_zero <= 1e-9
    note(5, f"reduction gaps {gap_one:.1e} (lambda=1), {gap_zero:.1e} (lambda=0)")


def test_criterion_06_frank_wolfe_monotone():
    """Unregularized objective nonincreasing across outer iterations."""
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        res = fgw(
            random_metric(n, rng), random_metric(m, rng), rng.random((n, m)) * 2,
            np.full(n, 1 / n), np.full(m, 1 / m),
        )
        for prev, nxt in zip(res.history, res.history[1:]):
            assert nxt <= prev + 1e-9
            checked += 1
    note(6, f"{checked} consecutive objective pairs nonincreasing")


def test_criterion_07_refinement_soundness(provider):
    """Duplicate nodes merge; an overloaded node splits profitably."""
    from test_refine import duplicate_pair_fixture, overloaded_fixture, solve
    from rdkg.embeddings import CostMemo
    from rdkg.refine import apply_edits, op_split, OpContext
    from rdkg.llm import Namer

    space, kg = duplicate_pair_fixture(provider)
    out = refine(space, kg, provider)
    ops = [e["op"] for edits in out.trace.edits for e in edits]
    assert "merge" in ops
    assert rate(out.graph) < rate(kg)
    incumbent_l = out.trace.points[out.incumbent_index].objective
    assert incumbent_l <= out.trace.points[0].objective

    space2, kg2 = overloaded_fixture(provider)
    aligned = solve(space2, kg2, provider)
    ctx = OpContext(
        lecture=space2,
        memo=CostMemo(provider.embed, space2.contents()),
        namer=Namer(space2.contents()),
        config=RefinementConfig(),
    )
    split_kg, records = apply_edits(kg2, op_split(kg2, aligned, ctx))
    assert any(r.nodes[0] == "mix" for r in records)
    after = solve(space2, split_kg, provider)
    assert after.result.distortion < aligned.result.distortion
    note(7, f"merge dropped rate {rate(kg):g}->{rate(out.graph):g}; "
            f"split cut distortion {aligned.result.distortion:.3f}->"
            f"{after.result.distortion:.3f}")


def test_criterion_08_knee_detection():
    """Reference 4-point trace: knee at index 1, scale-invariant."""
    pairs = [(1, 10), (2, 4), (3, 3.5), (4, 3.4)]
    points = [
        RdPoint(t=i, rate=r, distortion=d, objective=r + 100 * d,
                structure=0.0, feature=d, outer_iterations=1, converged=True, coverage=0.5)
        for i, (r, d) in enumerate(pairs)
    ]
    assert knee_point(points) == 1
    scaled = [
        RdPoint(t=i, rate=r * 10, distortion=d, objective=r * 10 + 100 * d,
                structure=0.0, feature=d, outer_iterations=1, converged=True, coverage=0.5)
        for i, (r, d) in enumerate(pairs)
    ]
    assert knee_point(scaled) == 1
    note(8, "knee at index 1, invariant under 10x rate scaling")


def test_criterion_09_coverage_improvement(tmp_path, provider):
    """Offline refinement lifts coverage >= 0.10 and cuts distortion."""
    started = time.time()
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    kg = topic_a_only_kg()

    def evaluate(graph):
        memo = CostMemo(provider.embed, space.contents())
        aligned = align_graph(space, graph, memo)
        return aligned.result.distortion, coverage(aligned.feature, aligned.coupling.matrix)

    d_before, cov_before = evaluate(kg)
    out = refine(space, kg, provider)
    d_after, cov_after = evaluate(out.graph)
    elapsed = time.time() - started
    assert cov_after - cov_before >= 0.10
    assert d_after < d_before
    assert elapsed < 60.0
    note(9, f"coverage {cov_before:.3f}->{cov_after:.3f}, distortion "
            f"{d_before:.3f}->{d_after:.3f}, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    """Two offline cmd_refine runs produce byte-identical artifacts."""
    src = tmp_path / "lecture.md"
    src.write_text(two_topic_markdown(), encoding="utf-8")
    assert main(["ingest", str(src), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["bootstrap", str(src), "--out", str(tmp_path)]) == EXIT_OK
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for run_dir in runs:
        code = main([
            "refine", str(tmp_path / "lecture.space.json"),
            str(tmp_path / "lecture.kg.json"),
            "--out", str(run_dir), "--max-iterations", "4",
        ])
        assert code == EXIT_OK
    names = ("refined.kg.json", "trace.jsonl", "report.json",
             "rd_curve.csv", "plot_data.json")
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    note(10, f"{len(names)} artifacts byte-identical across reruns")


def test_criterion_11_kg_round_trip(tmp_path):
    """20 generated graphs: load -> save -> load is field-identical."""
    rng = np.random.default_rng(17)
    relations = ["isA", "partOf", "uses", "relatedTo", "prerequisiteOf"]
    for g in range(20):
        m = int(rng.integers(1, 9))
        nodes = []
        for i in range(m):
            node = {
                "id": f"n{i}", "label": f"Concept {g}-{i}",
                "definition": f"definition text {i}",
                "aliases": [f"a{i}", f"b{i}"][: int(rng.integers(0, 3))],
                "provenance": {"path": ["Sec", f"Sub{i}"], "line_span": [i, i + 2],
                               "excerpt": "..."} if rng.random() < 0.5 else None,
                "confidence": round(float(rng.random()), 6),
                "rationale": "generated" if rng.random() < 0.5 else None,
            }
            if rng.random() < 0.5:
                node["custom_field"] = {"nested": [1, 2, 3]}
            nodes.append(node)
        edges = []
        seen = set()
        for _ in range(int(rng.integers(0, m * 2))):
            i, j = int(rng.integers(0, m)), int(rng.integers(0, m))
            relation = relations[int(rng.integers(0, len(relations)))]
            key = (min(i, j), max(i, j), relation)
            if i == j or key in seen:
                continue
            seen.add(key)
            edge = {"src": f"n{i}", "dst": f"n{j}", "relation": relation,
                    "confidence": round(float(rng.random()), 6), "rationale": None}
            if rng.random() < 0.3:
                edge["weight"] = 2
            edges.append(edge)
        doc = {"nodes": nodes, "edges": edges}
        if rng.random() < 0.5:
            doc["source"] = f"generator-{g}"
        path = tmp_path / f"kg{g}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        first = load_kg(path)
        save_kg(first, path)
        second = load_kg(path)
        assert kg_to_dict(first) == kg_to_dict(second)
        save_kg(second, tmp_path / "again.json")
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()
    note(11, "20 graphs round-trip field-identical with unknown fields kept")


def test_criterion_12_scale_sanity():
    """One 200x100 fused solve under 10 seconds."""
    rng = np.random.default_rng(18)
    n, m = 200, 100
    c1 = random_metric(n, rng, dim=4)
    c2 = random_metric(m, rng, dim=4)
    feats = rng.random((n, m)) * 2
    started = time.time()
    res = fgw(c1, c2, feats, np.full(n, 1 / n), np.full(m, 1 / m))
    elapsed = time.time() - started
    assert elapsed < 10.0
    assert np.isfinite(res.distortion)
    note(12, f"200x100 solve in {elapsed:.2f}s "
             f"({res.outer_iterations} outer iterations)")

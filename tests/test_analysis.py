"""Knee detection, coverage and report emission."""

import json
import math

import numpy as np
import pytest

from rdkg.analysis import (
    RdPoint,
    RdTrace,
    coverage,
    coverage_tolerance,
    covered_fraction,
    emit_report,
    knee_point,
    load_trace,
    save_trace,
)
from rdkg.errors import InputError


def points_from(pairs, beta=100.0):
    return [
        RdPoint(t=i, rate=r, distortion=d, objective=r + beta * d,
                structure=d * 0.4, feature=d * 0.6)
        for i, (r, d) in enumerate(pairs)
    ]


def perpendicular_oracle(pairs):
    """Hand evaluation: normalize both axes, distances to the chord."""
    rates = [p[0] for p in pairs]
    dists = [p[1] for p in pairs]

    def norm(vals):
        lo, hi = min(vals), max(vals)
        return [(v - lo) / (hi - lo) if hi > lo else 0.0 for v in vals]

    xs, ys = norm(rates), norm(dists)
    ax, ay, bx, by = xs[0], ys[0], xs[-1], ys[-1]
    chord = math.hypot(bx - ax, by - ay)
    out = []
    for x, y in zip(xs, ys):
        out.append(abs((bx - ax) * (ay - y) - (ax - x) * (by - ay)) / chord)
    return out


# --- knee -------------------------------------------------------------------


def test_knee_on_reference_trace():
    pairs = [(1, 10), (2, 4), (3, 3.5), (4, 3.4)]
    oracle = perpendicular_oracle(pairs)
    assert oracle.index(max(oracle)) == 1
    assert knee_point(points_from(pairs)) == 1


def test_knee_invariant_under_rate_scaling():
    pairs = [(1, 10), (2, 4), (3, 3.5), (4, 3.4)]
    scaled = [(r * 10, d) for r, d in pairs]
    assert knee_point(points_from(scaled)) == knee_point(points_from(pairs))


def test_knee_two_points_collinear_rule():
    pts = points_from([(1, 10), (5, 2)])
    assert knee_point(pts) == min((0, 1), key=lambda i: pts[i].objective)


def test_knee_three_collinear_points():
    pts = points_from([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
    assert knee_point(pts) == min(range(3), key=lambda i: pts[i].objective)


def test_knee_requires_two_points():
    with pytest.raises(InputError, match="trace too short"):
        knee_point(points_from([(1, 1)]))


def test_knee_tie_breaks_by_objective():
    # symmetric vee: indices 1 and 3 are equidistant from the chord
    pairs = [(0.0, 4.0), (1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (4.0, 4.0)]
    oracle = perpendicular_oracle(pairs)
    assert oracle[1] == pytest.approx(oracle[3])
    pts = points_from(pairs, beta=1.0)
    assert knee_point(pts) == 1  # same objective shape, lower t wins


# --- coverage -----------------------------------------------------------------


def test_coverage_all_zero_costs():
    feats = np.zeros((3, 2))
    plan = np.full((3, 2), 1 / 6)
    assert coverage(feats, plan) == 1.0


def test_coverage_single_segment_above_tolerance():
    feats = np.array([[0.9, 0.2]])
    plan = np.array([[0.8, 0.2]])  # best aligned is column 0, cost 0.9
    q = coverage_tolerance(feats)
    assert q < 0.9
    assert coverage(feats, plan) == 0.0


def test_coverage_reference_2x2():
    feats = np.array([[0.1, 0.9], [0.9, 0.9]])
    # oracle: sorted entries [0.1, 0.9, 0.9, 0.9]; linear-interpolated
    # 30th percentile at rank 0.9 -> 0.1 + 0.9 * 0.8 = 0.82
    assert coverage_tolerance(feats) == pytest.approx(0.82)
    assert np.percentile([0.1, 0.9, 0.9, 0.9], 30) == pytest.approx(0.82)
    plan = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert coverage(feats, plan) == 0.5  # segment 0 covered, segment 1 not


def test_coverage_permutation_invariance(rng):
    feats = rng.random((6, 4)) * 2
    plan = rng.random((6, 4))
    plan /= plan.sum()
    base = coverage(feats, plan)
    perm = rng.permutation(4)
    assert coverage(feats[:, perm], plan[:, perm]) == base


def test_covered_fraction_monotone_under_improvement(rng):
    feats = rng.random((5, 3))
    plan = rng.random((5, 3))
    plan /= plan.sum()
    q = coverage_tolerance(feats)
    base = covered_fraction(feats, plan, q)
    improved = feats.copy()
    best = plan.argmax(axis=1)
    improved[np.arange(5), best] = 0.0  # drop every best-aligned cost
    assert covered_fraction(improved, plan, q) >= base


def test_coverage_empty_matrix_rejected():
    with pytest.raises(InputError, match="empty"):
        coverage_tolerance(np.zeros((0, 0)))


# --- reports ----------------------------------------------------------------------


def sample_trace():
    pairs = [(1, 10), (2, 4), (3, 3.5), (4, 3.4)]
    points = points_from(pairs)
    for point, covered in zip(points, (0.4, 0.5, 0.6, 0.7)):
        point.coverage = covered
    return RdTrace(beta=100.0, points=points,
                   edits=[[], [{"op": "add", "nodes": ["x"], "edges": [], "rationale": ""}],
                          [], []])


def test_emit_report_files(tmp_path):
    trace = sample_trace()
    knee = emit_report(trace, tmp_path, {"beta": 100.0})
    assert knee == knee_point(trace.points)
    csv_lines = (tmp_path / "rd_curve.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,rate,distortion,objective,structure,feature"
    assert len(csv_lines) == 1 + 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["knee_index"] == knee == 1
    assert report["coverage_before"] == 0.4
    assert report["coverage_after"] == 0.7
    assert report["config"] == {"beta": 100.0}
    plot = json.loads((tmp_path / "plot_data.json").read_text())
    assert len(plot["points"]) == 4
    levels = [line["objective"] for line in plot["iso_objective"]["lines"]]
    knee_l = trace.points[knee].objective
    assert levels == [knee_l - 10, knee_l - 5, knee_l, knee_l + 5, knee_l + 10]
    for line in plot["iso_objective"]["lines"]:
        assert line["slope"] == pytest.approx(-1.0 / 100.0)
        assert line["intercept"] == pytest.approx(line["objective"] / 100.0)


def test_emit_report_deterministic(tmp_path):
    trace = sample_trace()
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_report(trace, a, {})
    emit_report(trace, b, {})
    for name in ("rd_curve.csv", "report.json", "plot_data.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_trace_round_trip(tmp_path):
    # trace files carry 9 significant digits, so equality holds at that grain
    from rdkg.analysis import _round9

    trace = sample_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.beta == trace.beta
    for got, want in zip(loaded.points, trace.points):
        assert got.t == want.t
        for name in ("rate", "distortion", "objective", "structure", "feature", "coverage"):
            assert getattr(got, name) == _round9(getattr(want, name))
    assert loaded.edits == trace.edits
    # a second save of the loaded trace is byte-identical (stable fixed point)
    save_trace(loaded, tmp_path / "trace2.jsonl")
    assert path.read_bytes() == (tmp_path / "trace2.jsonl").read_bytes()


def test_trace_reads_rows_with_and_without_rejected_and_solver(tmp_path):
    trace = sample_trace()
    trace.rejected = [[], [], [{"op": "split", "delta_L": 0.5, "edits": []}], []]
    trace.points[1].outer_iterations, trace.points[1].converged = 7, True
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row.get("solver") for row in rows] == [
        None, {"outer_iterations": 7, "converged": True}, None, None]
    loaded = load_trace(path)
    assert loaded.rejected == trace.rejected
    assert [(p.outer_iterations, p.converged) for p in loaded.points] == [
        (None, None), (7, True), (None, None), (None, None)]
    # rows written before they carried the two fields
    old = tmp_path / "old.jsonl"
    old.write_text("".join(
        json.dumps({k: v for k, v in row.items() if k not in ("rejected", "solver")}) + "\n"
        for row in rows))
    loaded = load_trace(old)
    assert loaded.rejected == [[], [], [], []] and loaded.edits == trace.edits
    assert all(p.outer_iterations is None and p.converged is None for p in loaded.points)
    old.write_text("".join(json.dumps({k: v for k, v in row.items() if k != "edits"}) + "\n"
                           for row in rows))
    assert load_trace(old).edits == [[], [], [], []]
    # present, each is a list
    for key, value, shown in (("edits", 5, "5"), ("rejected", "oops", '"oops"')):
        bad = [dict(row) for row in rows]
        bad[1][key] = value
        old.write_text("".join(json.dumps(row) + "\n" for row in bad))
        with pytest.raises(InputError, match=f"line 2: {key} must be a list, got {shown}"):
            load_trace(old)
    rows[1]["solver"]["converged"] = "yes"
    old.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(InputError, match="line 2: converged must be a boolean"):
        load_trace(old)


def test_a_trace_without_coverage_loads_and_reports_null(tmp_path):
    # rows written before they carried coverage, or with it null
    path = tmp_path / "trace.jsonl"
    save_trace(sample_trace(), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["coverage"] for row in rows] == [0.4, 0.5, 0.6, 0.7]
    del rows[0]["coverage"]
    rows[-1]["coverage"] = None
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    loaded = load_trace(path)
    assert [p.coverage for p in loaded.points] == [None, 0.5, 0.6, None]
    emit_report(loaded, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["coverage_before"] is None and report["coverage_after"] is None


def test_trace_rejects_malformed(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"t": 0, "rate": 1}\n')
    with pytest.raises(InputError, match="line 1"):
        load_trace(path)


@pytest.mark.parametrize("field, value", [
    ("t", 1.0), ("t", False), ("distortion", None), ("objective", [1.0]), ("feature", "0.1"),
    ("rate", float("nan")), ("beta", float("inf")), ("structure", float("-inf")),
    ("coverage", "0.5"), ("coverage", True),
])
def test_trace_rejects_a_field_that_is_no_number(tmp_path, field, value):
    path = tmp_path / "trace.jsonl"
    save_trace(sample_trace(), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1][field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(InputError, match=f"line 2: {field} must be"):
        load_trace(path)


def test_trace_keeps_beta_exact(tmp_path):
    # beta is an input, written as given: 9-digit rounding would change it
    trace = sample_trace()
    trace.beta = 1 / 3
    save_trace(trace, tmp_path / "trace.jsonl")
    assert load_trace(tmp_path / "trace.jsonl").beta == 1 / 3


def test_trace_rejects_rows_without_beta_or_with_two(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(sample_trace(), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    del rows[2]["beta"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(InputError, match="line 3 has no beta.*re-run refine"):
        load_trace(path)
    rows[2]["beta"] = 10.0
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(InputError, match="disagree on beta.*re-run refine"):
        load_trace(path)


def test_trace_rejects_empty(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("")
    with pytest.raises(InputError, match="empty trace"):
        load_trace(path)


def test_emit_report_zero_beta_skips_iso_lines(tmp_path):
    # a trace with beta 0 has no contour lines; the report must still emit
    points = [
        RdPoint(t=0, rate=5.0, distortion=0.0, objective=5.0, structure=0, feature=0),
        RdPoint(t=1, rate=4.0, distortion=0.0, objective=4.0, structure=0, feature=0),
    ]
    trace = RdTrace(beta=0.0, points=points, edits=[[], []])
    assert emit_report(trace, tmp_path) == knee_point(points)
    plot = json.loads((tmp_path / "plot_data.json").read_text())
    assert plot["iso_objective"]["lines"] == []


def test_csv_floats_nine_significant_digits(tmp_path):
    trace = RdTrace(
        beta=100.0,
        points=[
            RdPoint(t=0, rate=1 / 3, distortion=2 / 3, objective=1 / 3 + 100 * 2 / 3,
                    structure=0.123456789123, feature=0.2),
            RdPoint(t=1, rate=2.0, distortion=0.5, objective=52.0,
                    structure=0.1, feature=0.9),
        ],
        edits=[[], []],
    )
    emit_report(trace, tmp_path)
    row = (tmp_path / "rd_curve.csv").read_text().splitlines()[1].split(",")
    assert row[1] == f"{1 / 3:.9g}"
    assert row[4] == "0.123456789"

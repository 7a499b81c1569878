"""Trace analytics: knee point, coverage and report emission.

The refinement loop records one (rate, distortion) point per iteration;
this module turns the resulting trace into the operating-point analysis
(knee detection on normalized axes), the coverage score, and the files
downstream plotting consumes. All floating-point output is written with
9 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, check_json, pop_field, read_utf8

COVERAGE_PERCENTILE = 30.0
_COLLINEAR_EPS = 1e-9


@dataclass
class RdPoint:
    t: int
    rate: float
    distortion: float
    objective: float
    structure: float
    feature: float
    # the row's solve: Frank-Wolfe outer steps and whether it converged
    # (None in a trace written before rows carried them)
    outer_iterations: int | None = None
    converged: bool | None = None
    # the coverage of the row's alignment (None in a trace written before
    # rows carried it)
    coverage: float | None = None


@dataclass
class RdTrace:
    beta: float
    points: list[RdPoint] = field(default_factory=list)
    edits: list[list[dict]] = field(default_factory=list)  # kept edit records per row
    # per row, each rejected batch: {"op", "delta_L" (its rise in L), "edits"};
    # a batch whose rate alone reached the incumbent's L is not solved, since
    # D >= 0: {"op", "delta_L" (rate - L, a lower bound on its rise),
    # "solved": false, "edits"}
    rejected: list[list[dict]] = field(default_factory=list)
    incomplete: bool = False


def knee_point(points: list[RdPoint]) -> int:
    """Index of the trace point farthest from the first-to-last chord.

    Rate and distortion are each min-max normalized over the trace
    before measuring perpendicular distance, otherwise rate (tens to
    hundreds) dwarfs distortion (below 1) and the distance degenerates
    to the vertical one. Ties break by lowest objective, then lowest
    iteration; a collinear trace falls back to the objective minimizer.
    """
    if len(points) < 2:
        raise InputError("trace too short: knee needs at least 2 points")
    rates = np.array([p.rate for p in points])
    dists = np.array([p.distortion for p in points])
    x = _normalize_axis(rates)
    y = _normalize_axis(dists)
    ax, ay = x[0], y[0]
    bx, by = x[-1], y[-1]
    chord = np.hypot(bx - ax, by - ay)
    if chord < _COLLINEAR_EPS:
        perp = np.zeros(len(points))
    else:
        perp = np.abs((bx - ax) * (ay - y) - (ax - x) * (by - ay)) / chord
    best = perp.max()
    if best < _COLLINEAR_EPS:
        return min(range(len(points)), key=lambda i: (points[i].objective, points[i].t))
    tied = [i for i in range(len(points)) if perp[i] == best]
    return min(tied, key=lambda i: (points[i].objective, points[i].t))


def coverage_tolerance(feature_costs: np.ndarray) -> float:
    """Feature-distance tolerance: the COVERAGE_PERCENTILE-th percentile
    of the cost distribution.

    The percentile (linear interpolation between closest ranks) is taken
    over all N*M entries.
    """
    if feature_costs.size == 0:
        raise InputError("empty feature-cost matrix")
    return float(np.percentile(feature_costs, COVERAGE_PERCENTILE))


def covered_fraction(feature_costs: np.ndarray, plan: np.ndarray, tolerance: float) -> float:
    """Fraction of segments whose best-aligned node cost is within tolerance.

    Best-aligned = per-row argmax of the coupling plan, ties to the lowest
    column index.
    """
    if plan.shape != feature_costs.shape:
        raise InputError("coupling and feature-cost shapes differ")
    best = plan.argmax(axis=1)
    costs = feature_costs[np.arange(plan.shape[0]), best]
    return float((costs <= tolerance).mean())


def coverage(feature_costs: np.ndarray, plan: np.ndarray) -> float:
    """Coverage score in [0, 1] of a coupling plan at ``coverage_tolerance``."""
    return covered_fraction(feature_costs, plan, coverage_tolerance(feature_costs))


def emit_report(trace: RdTrace, out_dir: str | Path,
                config_echo: dict | None = None) -> int | None:
    """Write rd_curve.csv, report.json and plot_data.json into out_dir.

    Every field comes from the trace; coverage before and after is that
    of its first and last rows. Returns the trace's knee index, or None
    for a trace of fewer than 2 points. Outputs are deterministic:
    rerunning on the same trace produces byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["t,rate,distortion,objective,structure,feature"]
    for p in trace.points:
        lines.append(
            f"{p.t},{_fmt(p.rate)},{_fmt(p.distortion)},{_fmt(p.objective)},"
            f"{_fmt(p.structure)},{_fmt(p.feature)}"
        )
    (out / "rd_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    knee = knee_point(trace.points) if len(trace.points) >= 2 else None
    knee_entry = None
    if knee is not None:
        kp = trace.points[knee]
        knee_entry = {
            "t": kp.t,
            "rate": _round9(kp.rate),
            "distortion": _round9(kp.distortion),
            "objective": _round9(kp.objective),
        }
    report = {
        "beta": _round9(trace.beta),
        "points": len(trace.points),
        "incomplete": trace.incomplete,
        "knee_index": knee,
        "knee_point": knee_entry,
        "coverage_before": _round9(trace.points[0].coverage),
        "coverage_after": _round9(trace.points[-1].coverage),
        "config": config_echo or {},
    }
    (out / "report.json").write_text(
        json.dumps(report, ensure_ascii=False, indent=1), encoding="utf-8"
    )

    rates = np.array([p.rate for p in trace.points])
    dists = np.array([p.distortion for p in trace.points])
    norm_r = _normalize_axis(rates)
    norm_d = _normalize_axis(dists)
    iso = []
    if knee_entry is not None and trace.beta > 0:
        for offset in (-10.0, -5.0, 0.0, 5.0, 10.0):
            level = knee_entry["objective"] + offset
            iso.append(
                {
                    "objective": _round9(level),
                    # distortion = intercept + slope * rate along the contour
                    "intercept": _round9(level / trace.beta),
                    "slope": _round9(-1.0 / trace.beta),
                }
            )
    plot_data = {
        "points": [
            {
                "t": p.t,
                "rate": _round9(p.rate),
                "distortion": _round9(p.distortion),
                "rate_norm": _round9(float(norm_r[i])),
                "distortion_norm": _round9(float(norm_d[i])),
                "objective": _round9(p.objective),
            }
            for i, p in enumerate(trace.points)
        ],
        "knee_index": knee,
        "iso_objective": {"beta": _round9(trace.beta), "lines": iso},
    }
    (out / "plot_data.json").write_text(
        json.dumps(plot_data, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    return knee


# --- trace persistence (JSON lines, one record per iteration) ---------------


def save_trace(trace: RdTrace, path: str | Path) -> None:
    """Write one JSON row per point. Each row carries the run's beta,
    unrounded: it is an input of the run, not a measurement; its
    alignment's coverage (null when unknown); its kept and rejected
    edits; and, when known, its solve's ``solver`` diagnostics."""
    rows = []
    for i, p in enumerate(trace.points):
        row = {
            "t": p.t,
            "rate": _round9(p.rate),
            "distortion": _round9(p.distortion),
            "structure": _round9(p.structure),
            "feature": _round9(p.feature),
            "objective": _round9(p.objective),
            "coverage": _round9(p.coverage),
            "beta": float(trace.beta),
            "edits": trace.edits[i] if i < len(trace.edits) else [],
            "rejected": trace.rejected[i] if i < len(trace.rejected) else [],
        }
        if p.outer_iterations is not None:
            row["solver"] = {"outer_iterations": p.outer_iterations, "converged": p.converged}
        rows.append(json.dumps(row, ensure_ascii=False))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_trace(path: str | Path) -> RdTrace:
    """Read a JSONL trace written by save_trace.

    Raises InputError for a row field that ``check_json`` refuses as a
    finite number (``t``: an integer; ``edits`` and ``rejected``: lists),
    a row without ``beta`` (a trace written before rows carried it) or
    rows that disagree on it. ``coverage``, ``edits``, ``rejected`` and
    ``solver`` are optional, so traces written before rows carried them
    still load.
    """
    points: list[RdPoint] = []
    edits: list[list[dict]] = []
    rejected: list[list[dict]] = []
    betas: set[float] = set()
    text = read_utf8(path, f"trace {path}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = check_json("the row", json.loads(line), dict)
            solver = pop_field(row, "solver", dict, {})
            points.append(
                RdPoint(
                    t=pop_field(row, "t", int),
                    rate=float(pop_field(row, "rate", float)),
                    distortion=float(pop_field(row, "distortion", float)),
                    objective=float(pop_field(row, "objective", float)),
                    structure=float(pop_field(row, "structure", float)),
                    feature=float(pop_field(row, "feature", float)),
                    outer_iterations=pop_field(solver, "outer_iterations", int, None),
                    converged=pop_field(solver, "converged", bool, None),
                    coverage=pop_field(row, "coverage", float | None, None),
                )
            )
            edits.append(pop_field(row, "edits", list, []))
            rejected.append(pop_field(row, "rejected", list, []))
            beta = pop_field(row, "beta", float, None)
        except ValueError as exc:  # malformed JSON, or a field check_json refuses
            raise InputError(f"malformed trace at line {lineno}: {exc}") from exc
        if beta is None:
            raise InputError(
                f"trace {path} line {lineno} has no beta (it predates traces that "
                "record it); re-run refine to write a new one"
            )
        betas.add(float(beta))
    if not points:
        raise InputError("empty trace file")
    if len(betas) > 1:
        raise InputError(
            f"trace {path} rows disagree on beta ({', '.join(map(repr, sorted(betas)))}); "
            "re-run refine to write a trace of one run"
        )
    return RdTrace(beta=betas.pop(), points=points, edits=edits, rejected=rejected)


def _normalize_axis(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return (values - lo) / (hi - lo)
    return np.zeros_like(values, dtype=np.float64)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round9(x):
    if x is None:
        return None
    return float(f"{float(x):.9g}")

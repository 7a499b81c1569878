"""In-memory span recorder that wraps the program's public functions.

Nothing in the program is edited: the wrappers are installed on module
and class attributes from here and removed again afterwards. Every
rdkg module that imported a wrapped function by name gets the wrapper
too, so calls made through either name are seen.

A span is (id, name, start, end, parent id). A span's self time is its
duration minus the time its direct child spans cover; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Per-layer metrics: name -> unit. The order is the order of the table.
PER_LAYER_UNITS: dict[str, str] = {
    "cli.ingest_s": "s",
    "cli.bootstrap_s": "s",
    "cli.align_s": "s",
    "cli.report_s": "s",
    "cli.refine_post_s": "s",
    "cli.coverage_solves": "count",
    "markdown.parse_s": "s",
    "lecture.build_space_s": "s",
    "lecture.logic_distance_s": "s",
    "lecture.save_s": "s",
    "lecture.load_s": "s",
    "lecture.load_calls": "count",
    "lecture.artifact_mb": "MB",
    "embeddings.embed_s": "s",
    "embeddings.texts_embedded": "count",
    "embeddings.repeat_share": "share",
    "embeddings.feature_cost_s": "s",
    "embeddings.feature_cost_calls": "count",
    "kg.build_space_s": "s",
    "kg.build_space_calls": "count",
    "kg.hop_distance_s": "s",
    "kg.has_edge_between_s": "s",
    "kg.has_edge_between_calls": "count",
    "kg.validate_s": "s",
    "ot.fgw_self_s": "s",
    "ot.gw_gradient_s": "s",
    "ot.structure_value_calls": "count",
    "ot.product_gflop": "GFLOP",
    "ot.sinkhorn_s": "s",
    "ot.sinkhorn_calls": "count",
    "ot.sinkhorn_converged_share": "share",
    "ot.fw_iterations": "count",
    "ot.fw_converged_share": "share",
    "ot.duplicate_solves": "count",
    "refine.search_s": "s",
    "refine.op_add_s": "s",
    "refine.op_split_s": "s",
    "refine.two_means_s": "s",
    "refine.op_merge_s": "s",
    "refine.op_relate_s": "s",
    "refine.op_prune_s": "s",
    "refine.iterations": "count",
    "refine.edits": "count",
    "refine.solves_per_iteration": "count",
    "refine.improving_share": "share",
    "refine.peak_rate": "R",
    "llm.bootstrap_s": "s",
    "llm.namer_s": "s",
    "llm.propose_edges_s": "s",
    "analysis.coverage_s": "s",
    "analysis.save_trace_s": "s",
    "analysis.emit_report_s": "s",
    "trace.overhead_s": "s",
}

# span name -> per-layer time metric fed by that span's self time
_SELF_TIME_METRICS = {
    "cli.ingest": "cli.ingest_s",
    "cli.bootstrap": "cli.bootstrap_s",
    "cli.align": "cli.align_s",
    "cli.report": "cli.report_s",
    "markdown.parse": "markdown.parse_s",
    "lecture.build_space": "lecture.build_space_s",
    "lecture.logic_distance": "lecture.logic_distance_s",
    "lecture.save": "lecture.save_s",
    "lecture.load": "lecture.load_s",
    "embeddings.embed": "embeddings.embed_s",
    "embeddings.feature_cost": "embeddings.feature_cost_s",
    "kg.build_space": "kg.build_space_s",
    "kg.hop_distance": "kg.hop_distance_s",
    "kg.has_edge_between": "kg.has_edge_between_s",
    "kg.validate": "kg.validate_s",
    "ot.fgw": "ot.fgw_self_s",
    "ot.gw_gradient": "ot.gw_gradient_s",
    "ot.sinkhorn": "ot.sinkhorn_s",
    "refine.refine": "refine.search_s",
    "refine.op_add": "refine.op_add_s",
    "refine.op_split": "refine.op_split_s",
    "refine.two_means": "refine.two_means_s",
    "refine.op_merge": "refine.op_merge_s",
    "refine.op_relate": "refine.op_relate_s",
    "refine.op_prune": "refine.op_prune_s",
    "llm.bootstrap": "llm.bootstrap_s",
    "llm.namer": "llm.namer_s",
    "llm.propose_edges": "llm.propose_edges_s",
    "analysis.coverage": "analysis.coverage_s",
    "analysis.save_trace": "analysis.save_trace_s",
    "analysis.emit_report": "analysis.emit_report_s",
}


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, wrapper) -> None:
        """Point every rdkg module attribute bound to ``original`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rdkg" or name.startswith("rdkg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapper)

    def replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install_fgw_counter(counts: Counter) -> Patcher:
    """The thin always-on counter behind the ``fgw_solves`` metric."""
    original = importlib.import_module("rdkg.ot").fgw

    def counted(*args, **kwargs):
        counts["fgw"] += 1
        return original(*args, **kwargs)

    patcher = Patcher()
    patcher.replace_everywhere(original, counted)
    return patcher


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.refine_outcomes: list = []
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self._embedded: set[str] = set()
        self._solve_keys: set[bytes] = set()
        self._patcher = Patcher()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in start order
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            self._stack_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._stack_names.pop()
                self.spans[span_id] = (span_id, name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def in_span(self, name: str) -> bool:
        return name in self._stack_names

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # import_module, not "import rdkg.refine as ...": the package
        # rebinds the name ``refine`` to the function of that name
        (analysis, cli, embeddings, kg, lecture, llm, markdown, ot, refine) = (
            importlib.import_module(f"rdkg.{name}")
            for name in ("analysis", "cli", "embeddings", "kg", "lecture",
                         "llm", "markdown", "ot", "refine")
        )

        p = self._patcher
        for command in ("ingest", "bootstrap", "align", "report"):
            cmd = getattr(cli, command)
            p.replace(cmd, "callback",
                      self._wrap(f"cli.{command}", cmd.callback, before=self._new_command))
        p.replace(cli.refine_cmd, "callback",
                  self._wrap("cli.refine", cli.refine_cmd.callback, before=self._new_command))

        def span(module, attr, name, before=None, after=None):
            original = getattr(module, attr)
            p.replace_everywhere(original, self._wrap(name, original, before, after))

        def method(cls, attr, name, before=None, after=None):
            p.replace(cls, attr, self._wrap(name, getattr(cls, attr), before, after))

        span(markdown, "parse_markdown", "markdown.parse")
        span(lecture, "build_lecture_space", "lecture.build_space")
        span(lecture, "logic_distance", "lecture.logic_distance")
        span(lecture, "save_lecture_space", "lecture.save", after=self._saved_space)
        span(lecture, "load_lecture_space", "lecture.load",
             before=lambda a, k: self.counts.update(["lecture.load_calls"]))
        method(embeddings.HashEmbedder, "embed", "embeddings.embed", before=self._embed_call)
        span(embeddings, "feature_cost", "embeddings.feature_cost",
             before=lambda a, k: self.counts.update(["embeddings.feature_cost_calls"]))
        span(kg, "build_kg_space", "kg.build_space",
             before=lambda a, k: self.counts.update(["kg.build_space_calls"]))
        span(kg, "hop_distance", "kg.hop_distance")
        method(kg.KnowledgeGraph, "has_edge_between", "kg.has_edge_between",
               before=lambda a, k: self.counts.update(["kg.has_edge_between_calls"]))
        span(kg, "validate_graph", "kg.validate")
        span(ot, "fgw", "ot.fgw", before=self._fgw_call, after=self._fgw_done)
        span(ot, "gw_gradient", "ot.gw_gradient", before=self._product)
        span(ot, "sinkhorn", "ot.sinkhorn", after=self._sinkhorn_done)
        # counted, not timed: their time stays in fgw's self time
        p.replace_everywhere(ot.structure_value, _counting(
            ot.structure_value, before=self._structure_value_call))
        p.replace(ot, "_quad_coeff", _counting(ot._quad_coeff, before=self._product))
        span(refine, "refine", "refine.refine", after=self._refined)
        for op in ("op_add", "op_split", "op_merge", "op_relate", "op_prune", "two_means"):
            span(refine, op, f"refine.{op}")
        span(llm, "bootstrap_kg", "llm.bootstrap")
        method(llm.Namer, "name", "llm.namer")
        span(llm, "propose_label_edges", "llm.propose_edges")
        span(analysis, "coverage", "analysis.coverage")
        span(analysis, "save_trace", "analysis.save_trace")
        span(analysis, "emit_report", "analysis.emit_report")

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- count hooks ---------------------------------------------------------

    def _new_command(self, args, kwargs) -> None:
        self._embedded.clear()
        self._solve_keys.clear()

    def _saved_space(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["lecture.artifact_bytes"] += Path(path).stat().st_size

    def _embed_call(self, args, kwargs) -> None:
        texts = args[1] if len(args) > 1 else kwargs["texts"]
        self.counts["embeddings.texts_embedded"] += len(texts)
        for text in texts:
            if text in self._embedded:
                self.counts["embeddings.repeats"] += 1
            self._embedded.add(text)

    def _fgw_call(self, args, kwargs) -> None:
        self.counts["ot.fgw_calls"] += 1
        if self.in_span("cli.refine") and not self.in_span("refine.refine"):
            self.counts["cli.coverage_solves"] += 1
        if self.in_span("refine.refine"):
            self.counts["refine.solves"] += 1
        digest = hashlib.blake2b(digest_size=16)
        for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
            if hasattr(value, "tobytes"):
                digest.update(value.tobytes())
            else:
                digest.update(repr(value).encode())
        key = digest.digest()
        if key in self._solve_keys:
            self.counts["ot.duplicate_solves"] += 1
        self._solve_keys.add(key)

    def _fgw_done(self, args, kwargs, result) -> None:
        self.counts["ot.fw_iterations"] += result.outer_iterations
        self.counts["ot.fw_converged"] += int(result.converged)

    def _sinkhorn_done(self, args, kwargs, result) -> None:
        self.counts["ot.sinkhorn_calls"] += 1
        self.counts["ot.sinkhorn_converged"] += int(result.converged)

    def _product(self, args, kwargs) -> None:
        n, m = args[0].shape[0], args[1].shape[0]
        self.counts["ot.product_flop"] += 2 * (n * n * m + n * m * m)

    def _structure_value_call(self, args, kwargs) -> None:
        self.counts["ot.structure_value_calls"] += 1
        self._product(args, kwargs)

    def _refined(self, args, kwargs, outcome) -> None:
        self.refine_outcomes.append(outcome)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return totals

    def refine_post_time(self) -> float:
        """Time of each refine command after its refine() call returned."""
        last_refine_end: dict[int, float] = {}
        for _, name, _, end, parent in self.spans:
            if name == "refine.refine" and parent is not None:
                last_refine_end[parent] = end
        return sum(
            end - last_refine_end[span_id]
            for span_id, name, _, end, _ in self.spans
            if name == "cli.refine" and span_id in last_refine_end
        )

    def metrics(self, rounds: int, host_factor: float) -> dict[str, float]:
        """Per-layer metrics per traced round; times are self times divided
        by ``host_factor``."""
        out: dict[str, float] = {}
        self_times = self.self_times()
        for span_name, metric in _SELF_TIME_METRICS.items():
            out[metric] = self_times.get(span_name, 0.0) / rounds / host_factor
        c = self.counts
        out["cli.refine_post_s"] = self.refine_post_time() / rounds / host_factor
        for key in ("cli.coverage_solves", "lecture.load_calls",
                    "embeddings.texts_embedded", "embeddings.feature_cost_calls",
                    "kg.build_space_calls", "kg.has_edge_between_calls",
                    "ot.structure_value_calls", "ot.sinkhorn_calls",
                    "ot.fw_iterations", "ot.duplicate_solves"):
            out[key] = c[key] / rounds
        out["lecture.artifact_mb"] = c["lecture.artifact_bytes"] / 1e6 / rounds
        out["embeddings.repeat_share"] = _share(c["embeddings.repeats"],
                                                c["embeddings.texts_embedded"])
        out["ot.product_gflop"] = c["ot.product_flop"] / 1e9 / rounds
        out["ot.sinkhorn_converged_share"] = _share(c["ot.sinkhorn_converged"],
                                                    c["ot.sinkhorn_calls"])
        out["ot.fw_converged_share"] = _share(c["ot.fw_converged"], c["ot.fgw_calls"])

        iterations = improving = edits = 0
        peak_rate = 0.0
        for outcome in self.refine_outcomes:
            points = outcome.trace.points
            iterations += len(points) - 1
            improving += sum(
                1 for prev, cur in zip(points, points[1:]) if cur.objective < prev.objective
            )
            edits += sum(len(e) for e in outcome.trace.edits)
            peak_rate = max([peak_rate] + [p.rate for p in points])
        out["refine.iterations"] = iterations / rounds
        out["refine.edits"] = edits / rounds
        out["refine.solves_per_iteration"] = _share(c["refine.solves"], iterations)
        out["refine.improving_share"] = _share(improving, iterations)
        out["refine.peak_rate"] = peak_rate
        return out

    def dump(self, path: Path) -> None:
        """Write the recorded spans and counts as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _counting(fn, before):
    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

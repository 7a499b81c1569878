"""CLI pipeline: stages, exit codes, determinism."""

import hashlib
import json
import sys

import click
import pytest

from rdkg.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, align, bootstrap, ingest, main
from rdkg.cli import refine_cmd as refine_command
from rdkg.cli import report as report_command
from rdkg.config import config_keys, load_run_config
from rdkg.embeddings import HashEmbedder, content_hash
from rdkg.kg import load_kg, node_text, validate_graph
from rdkg.lecture import ARTIFACT_FORMAT, build_lecture_space, flatten
from rdkg.llm import bootstrap_kg
from rdkg.markdown import parse_markdown

from conftest import COMMAND_KEYS, two_topic_markdown


@pytest.fixture
def lecture_file(tmp_path):
    path = tmp_path / "lecture.md"
    path.write_text(two_topic_markdown(), encoding="utf-8")
    return path


@pytest.fixture
def pipeline(tmp_path, lecture_file):
    """Run ingest + bootstrap, return the artifact paths."""
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    return {
        "space": tmp_path / "lecture.space.json",
        "kg": tmp_path / "lecture.kg.json",
        "dir": tmp_path,
    }


def test_ingest_writes_artifact(tmp_path, lecture_file, capsys):
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "N=40" in out
    doc = json.loads((tmp_path / "lecture.space.json").read_text())
    assert len(doc["elements"]) == 40
    assert len(doc["d"]) == 40
    # the space and its stamp, nothing else
    assert list(doc) == ["format", "elements", "mu", "d", "alpha", "fingerprint"]
    assert doc["format"] == ARTIFACT_FORMAT
    assert doc["alpha"] == [0.2, 0.3, 0.5]
    assert doc["fingerprint"] == {"kind": "hash", "dim": 256, "seed": 0}
    space = build_lecture_space(two_topic_markdown(), embed=HashEmbedder().embed)
    assert doc["d"] == space.distance.tolist()
    assert doc["mu"] == space.measure.tolist()


def test_ingest_missing_file(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "nope.md"), "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert "file not found" in capsys.readouterr().err


def test_ingest_deterministic_rerun(tmp_path, lecture_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["ingest", str(lecture_file), "--out", str(out_a)]) == EXIT_OK
    assert main(["ingest", str(lecture_file), "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "lecture.space.json").read_bytes() == (
        out_b / "lecture.space.json"
    ).read_bytes()


def test_bootstrap_fallback_counts(tmp_path, capsys):
    md = tmp_path / "mini.md"
    md.write_text("# One\nalpha\n## Two\nbeta\n## Three\ngamma")
    assert main(["bootstrap", str(md), "--out", str(tmp_path)]) == EXIT_OK
    assert "|V|=3" in capsys.readouterr().out
    kg = load_kg(tmp_path / "mini.kg.json")
    assert len(kg.nodes) == 3


def test_bootstrap_output_round_trips(tmp_path, lecture_file):
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "lecture.kg.json"
    first = path.read_bytes()
    kg = load_kg(path)
    from rdkg.kg import save_kg

    save_kg(kg, path)
    assert path.read_bytes() == first


def test_align_prints_metrics(pipeline, capsys):
    code = main(["align", str(pipeline["space"]), str(pipeline["kg"])])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for token in ("D=", "structure=", "feature=", "rate=", "L=", "coverage="):
        assert token in out


def test_align_lambda_one_distortion_equals_feature(pipeline, capsys):
    code = main(["align", str(pipeline["space"]), str(pipeline["kg"]),
                 "--lambda-feat", "1.0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    d = float(out.split("D=")[1].split()[0])
    feature = float(out.split("feature=")[1].split(")")[0])
    assert d == pytest.approx(feature, abs=1e-9)


def test_align_broken_kg_lists_violations(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.kg.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "a", "label": "A"}],
        "edges": [{"src": "a", "dst": "ghost", "relation": "uses"}],
    }))
    code = main(["align", str(pipeline["space"]), str(bad)])
    assert code == EXIT_INPUT
    assert "dangling endpoint" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([{"id": "a", "label": "A"}], "not a JSON object"),
    ({"nodes": [{"id": None, "label": "A"}]}, "id must be a string, got null"),
    ({"nodes": [{"id": "a", "label": None}]}, "label must be a string, got null"),
    ({"nodes": [{"id": "a", "label": "A"}, {"id": "None", "label": "B"}],
      "edges": [{"src": None, "dst": "a", "relation": "uses"}]}, "src must be a string, got null"),
    ({"nodes": [{"id": "a", "label": "A"}, {"id": "None", "label": "B"}],
      "edges": [{"src": "a", "dst": None, "relation": "uses"}]}, "dst must be a string, got null"),
    ({"nodes": [{"id": "a", "label": "A"}, {"id": "b", "label": "B"}],
      "edges": [{"src": "a", "dst": "b", "relation": None}]}, "relation must be a string, got null"),
    ({"nodes": [{"id": "a", "label": "A", "provenance": "slides 3"}]},
     'provenance must be an object or null, got "slides 3"'),
    ({"nodes": [{"id": "a", "label": "A", "aliases": "matrix algebra"}]},
     'aliases must be a list of strings or null, got "matrix algebra"'),
    ({"nodes": [{"id": "a", "label": "A", "confidence": "0.9"}]},
     'confidence must be a finite number, got "0.9"'),
    ({"nodes": [{"id": "a", "label": "A", "confidence": True}]},
     "confidence must be a finite number, got true"),
    ({"nodes": [{"id": "a", "label": "A", "definition": ["x", "y"]}]},
     'definition must be a string or null, got ["x", "y"]'),
    ({"nodes": [{"id": "a", "label": "A"}, {"id": "b", "label": "B"}],
      "edges": [{"src": "a", "dst": "b", "relation": "uses", "confidence": False}]},
     "confidence must be a finite number, got false"),
    ({"nodes": [{"id": "a", "label": "A", "provenance": {"path": {}}}]},
     "provenance.path must be a list of strings, got {}"),
    ({"nodes": [{"id": "a", "label": "A", "provenance": {"path": 0.5}}]},
     "provenance.path must be a list of strings, got 0.5"),
    ({"nodes": [{"id": "a", "label": "A", "provenance": {"path": [True]}}]},
     "provenance.path must be a list of strings, got [true]"),
], ids=[
    "doc0-not a JSON object",
    "doc1-id is null",
    "doc2-label is null",
    "doc3-src is null",
    "doc4-dst is null",
    "doc5-relation is null",
    "doc6-provenance is not an object (str)",
    "doc7-aliases is not a list of strings (str)",
    "doc8-confidence is not a number (str)",
    "doc9-confidence is not a number (bool)",
    "doc10-definition is not a string (list)",
    "doc11-confidence is not a number (bool)",
    "doc12-provenance.path is an object",
    "doc13-provenance.path is a number",
    "doc14-provenance.path is a list of booleans",
])
def test_align_refuses_malformed_kg_json(pipeline, tmp_path, capsys, doc, message):
    # a null is refused, not read as the string "None" (which names a node here);
    # a mistyped field is refused, not converted (a string of aliases read as its
    # characters, "0.9" and true as numbers; a string provenance crashed refine)
    bad = tmp_path / "bad.kg.json"
    bad.write_text(json.dumps(doc))
    for command in ("align", "refine"):
        argv = [command, str(pipeline["space"]), str(bad)]
        if command == "refine":
            argv += ["--out", str(tmp_path / "refined")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "invalid structure" in err and message in err


def test_align_debug_coupling_dump(pipeline, tmp_path):
    out_dir = tmp_path / "dump"
    code = main(["align", str(pipeline["space"]), str(pipeline["kg"]),
                 "--debug", "--out", str(out_dir)])
    assert code == EXIT_OK
    dump = json.loads((out_dir / "coupling.json").read_text())
    assert dump["shape"] == [40, len(load_kg(pipeline["kg"]).nodes)]
    assert dump["marginal_residual"] <= 1e-6
    assert len(dump["rows"]) == 40


def test_align_refuses_out_without_debug(pipeline, tmp_path, capsys):
    # align writes only the coupling dump, so --out with debug off would be
    # ignored: a usage error that writes nothing
    space, kg = str(pipeline["space"]), str(pipeline["kg"])
    out = tmp_path / "dump"
    capsys.readouterr()
    for extra in ([], ["--no-debug"]):
        assert main(["align", space, kg, "--out", str(out), *extra]) == EXIT_USAGE, extra
        assert capsys.readouterr().err.startswith("usage error: "), extra
        assert not out.exists(), extra
    # debug from the config file turns the dump on, as the flag does
    cfg = tmp_path / "debug.json"
    cfg.write_text(json.dumps({"debug": True}))
    assert main(["align", space, kg, "--out", str(out), "--config", str(cfg)]) == EXIT_OK
    assert (out / "coupling.json").is_file()
    assert main(["align", space, kg, "--out", str(out), "--config", str(cfg),
                 "--no-debug"]) == EXIT_USAGE


def test_refine_full_run_outputs(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main([
        "refine", str(pipeline["space"]), str(pipeline["kg"]),
        "--out", str(out_dir), "--max-iterations", "4",
    ])
    assert code == EXIT_OK
    for name in ("refined.kg.json", "trace.jsonl", "rd_curve.csv",
                 "report.json", "plot_data.json"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["knee_index"] == report["knee_point"]["t"]
    assert report["config"]["max_iterations"] == 4
    trace_lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
    assert len(trace_lines) <= 5
    first = json.loads(trace_lines[0])
    assert first["t"] == 0 and first["edits"] == []


def test_refine_zero_iterations(pipeline, tmp_path):
    out_dir = tmp_path / "zero"
    code = main([
        "refine", str(pipeline["space"]), str(pipeline["kg"]),
        "--out", str(out_dir), "--max-iterations", "0",
    ])
    assert code == EXIT_OK
    lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    refined = load_kg(out_dir / "refined.kg.json")
    original = load_kg(pipeline["kg"])
    assert [n.id for n in refined.nodes] == [n.id for n in original.nodes]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["knee_index"] is None


def test_refine_deterministic_outputs(pipeline, tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code = main([
            "refine", str(pipeline["space"]), str(pipeline["kg"]),
            "--out", str(d), "--max-iterations", "3",
        ])
        assert code == EXIT_OK
    for name in ("refined.kg.json", "trace.jsonl", "rd_curve.csv",
                 "report.json", "plot_data.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_report_from_trace(pipeline, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]),
                 "--out", str(run_dir), "--max-iterations", "3"]) == EXIT_OK
    capsys.readouterr()
    rerun = tmp_path / "rerun"
    code = main(["report", str(run_dir / "trace.jsonl"), "--out", str(rerun)])
    assert code == EXIT_OK
    original = json.loads((run_dir / "report.json").read_text())
    regenerated = json.loads((rerun / "report.json").read_text())
    assert regenerated["knee_index"] == original["knee_index"]
    # both are read from the trace alone; only the run knows its settings
    assert original["coverage_before"] is not None and original["coverage_after"] is not None
    assert regenerated == {**original, "config": {}}


def test_report_writes_the_beta_of_the_run(pipeline, tmp_path):
    # the regenerated report states the run's beta, not one re-derived from
    # rounded trace rows, so its contour lines are the refine run's
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(run_dir),
                 "--beta", "10", "--max-iterations", "3"]) == EXIT_OK
    regen = tmp_path / "regen"
    assert main(["report", str(run_dir / "trace.jsonl"), "--out", str(regen)]) == EXIT_OK
    assert json.loads((regen / "report.json").read_text())["beta"] == 10.0
    original = json.loads((run_dir / "plot_data.json").read_text())
    regenerated = json.loads((regen / "plot_data.json").read_text())
    assert regenerated["iso_objective"] == original["iso_objective"]


@pytest.mark.parametrize("report_flags", [[]])
def test_report_config_never_disagrees_with_the_trace(pipeline, tmp_path, report_flags):
    # report's own defaults are not the run's, so the regenerated report
    # echoes none of them
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(run_dir),
                 "--beta", "1000", "--max-iterations", "3"]) == EXIT_OK
    regen = tmp_path / "regen"
    assert main(["report", str(run_dir / "trace.jsonl"), "--out", str(regen),
                 *report_flags]) == EXIT_OK
    rows = [json.loads(line) for line in (run_dir / "trace.jsonl").read_text().splitlines()]
    report = json.loads((regen / "report.json").read_text())
    assert report["beta"] == 1000.0 and {row["beta"] for row in rows} == {1000.0}
    assert report["config"] == {}


def test_report_takes_only_its_trace_and_out():
    assert [p.name for p in report_command.params] == ["trace_path", "out_dir"]


@pytest.mark.parametrize("flags", [
    ["--beta", "7"], ["--config", "c.json"], ["--debug"], ["--embed-provider", "bogus"],
], ids=["beta", "config", "debug", "embed-provider"])
def test_report_refuses_a_setting(pipeline, tmp_path, capsys, flags):
    # the report is a function of the trace alone: a setting it would
    # ignore is a usage error, not a silent no-op
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(run_dir),
                 "--max-iterations", "1"]) == EXIT_OK
    capsys.readouterr()
    regen = tmp_path / "regen"
    assert main(["report", str(run_dir / "trace.jsonl"), "--out", str(regen),
                 *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: No such option") and flags[0] in err
    assert not regen.exists()


@pytest.mark.parametrize("rewrite", ["drop", "disagree"])
def test_report_refuses_a_trace_without_one_beta(pipeline, tmp_path, capsys, rewrite):
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(run_dir),
                 "--max-iterations", "2"]) == EXIT_OK
    trace = run_dir / "trace.jsonl"
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    if rewrite == "drop":
        del rows[0]["beta"]
    else:
        rows[-1]["beta"] = rows[0]["beta"] * 2
    trace.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main(["report", str(trace), "--out", str(tmp_path / "regen")]) == EXIT_INPUT
    assert "re-run refine" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("beta", True, "beta must be a finite number, got true"),
    ("rate", "41.5", "rate must be a finite number, got \"41.5\""),
    ("objective", float("nan"), "objective must be a finite number, got NaN"),
    ("beta", float("inf"), "beta must be a finite number, got Infinity"),
    ("coverage", "0.5", "coverage must be a finite number or null, got \"0.5\""),
    ("coverage", True, "coverage must be a finite number or null, got true"),
], ids=[
    "beta-True-field 'beta' must be a number, got true",
    "rate-41.5-field 'rate' must be a number, got \"41.5\"",
    "objective-nan-field 'objective' must be finite, got NaN",
    "beta-inf-field 'beta' must be finite, got Infinity",
    "coverage-0.5",
    "coverage-True",
])
def test_report_refuses_a_trace_field_that_is_no_number(
    pipeline, tmp_path, capsys, field, value, message
):
    # coercing such a row would write a report of a run that never was
    run_dir = tmp_path / "run"
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(run_dir),
                 "--max-iterations", "2"]) == EXIT_OK
    trace = run_dir / "trace.jsonl"
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    for row in rows:
        row[field] = value
    trace.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    regen = tmp_path / "regen"
    assert main(["report", str(trace), "--out", str(regen)]) == EXIT_INPUT
    assert f"malformed trace at line 1: {message}" in capsys.readouterr().err
    assert not regen.exists()


def test_refine_trace_follows_the_coverage_rule(pipeline, tmp_path, monkeypatch):
    # op_add flags rows by the coverage percentile, so the search itself changes
    traces = []
    for percentile in (1.0, 30.0):
        monkeypatch.setattr("rdkg.analysis.COVERAGE_PERCENTILE", percentile)
        out = tmp_path / f"p{percentile}"
        assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(out),
                     "--max-iterations", "2"]) == EXIT_OK
        traces.append((out / "trace.jsonl").read_text())
    assert traces[0] != traces[1]


def test_report_empty_trace_errors(tmp_path, capsys):
    empty = tmp_path / "trace.jsonl"
    empty.write_text("")
    assert main(["report", str(empty)]) == EXIT_INPUT


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["ingest"]) == EXIT_USAGE


def test_numerical_failure_exits_three(pipeline, monkeypatch, capsys):
    from rdkg.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("numerical failure at outer iteration 1")

    # every alignment is solved through the fgw that rdkg.refine holds
    monkeypatch.setattr(sys.modules["rdkg.refine"], "fgw", boom)
    code = main(["align", str(pipeline["space"]), str(pipeline["kg"])])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, lecture_file, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"max_iterations": 2, "beta": 50.0}))
    out_dir = tmp_path / "out"
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    code = main([
        "refine", str(tmp_path / "lecture.space.json"), str(tmp_path / "lecture.kg.json"),
        "--config", str(cfg), "--out", str(out_dir),
        "--beta", "75.0",  # flag beats file
    ])
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["beta"] == 75.0
    assert report["config"]["max_iterations"] == 2


def test_dedicated_field_flags(pipeline, tmp_path):
    out_dir = tmp_path / "flagged"
    code = main([
        "refine", str(pipeline["space"]), str(pipeline["kg"]),
        "--out", str(out_dir), "--max-iterations", "1", "--beta", "42.5",
    ])
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["beta"] == 42.5
    assert report["config"]["max_iterations"] == 1
    trace_lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
    assert len(trace_lines) <= 2


def test_unknown_config_key_rejected(tmp_path, lecture_file, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"betta": 5}))
    code = main(["ingest", str(lecture_file), "--config", str(cfg)])
    assert code == EXIT_INPUT
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ('beta="abc"', 'config key beta must be a finite number, got "abc"'),
    ("debug=1", "config key debug must be a boolean, got 1"),
    ("max_iterations=-3", "max_iterations must not be negative"),
    ("max_adds=-1", "max_adds must not be negative"),
], ids=[
    'beta="abc"-beta expects float',
    "debug=1-debug expects bool",
    "max_iterations=-3-max_iterations must not be negative",
    "max_adds=-1-max_adds must not be negative",
])
def test_bad_config_values_exit_input(pipeline, tmp_path, capsys, setting, message):
    # a config file is the only source a value of another type can come
    # from: click refuses "abc" for --beta with a usage error
    key, raw = setting.split("=")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: json.loads(raw)}))
    code = main([
        "refine", str(pipeline["space"]), str(pipeline["kg"]),
        "--out", str(tmp_path / "bad"), "--config", str(cfg),
    ])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_bad_config_file_value_exits_input(tmp_path, lecture_file, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"extra_relations": "causes"}))
    assert main(["ingest", str(lecture_file), "--config", str(cfg)]) == EXIT_INPUT
    assert 'config key extra_relations must be a list of strings or null, got "causes"' in capsys.readouterr().err


def test_extra_relations_thread_through_refine(pipeline, tmp_path):
    # a graph using a configured extra relation must refine cleanly
    doc = json.loads(pipeline["kg"].read_text())
    doc["edges"].append({
        "src": doc["nodes"][0]["id"], "dst": doc["nodes"][-1]["id"],
        "relation": "causes", "confidence": 0.5, "rationale": "custom",
    })
    custom = tmp_path / "custom.kg.json"
    custom.write_text(json.dumps(doc))
    out_dir = tmp_path / "custom_out"
    code = main([
        "refine", str(pipeline["space"]), str(custom), "--out", str(out_dir),
        "--extra-relations", "causes", "--max-iterations", "1",
    ])
    assert code == EXIT_OK


def test_provider_kind_aliases(pipeline, tmp_path, capsys):
    # a provider kind has one name: hash, file or http
    space, kg = str(pipeline["space"]), str(pipeline["kg"])
    for alias in ("deterministic-hash", "precomputed-file", "http-endpoint"):
        capsys.readouterr()
        assert main(["ingest", str(pipeline["dir"] / "lecture.md"), "--out",
                     str(tmp_path / "alias"), "--embed-provider", alias]) == EXIT_INPUT
        assert main(["refine", space, kg, "--out", str(tmp_path / "alias"),
                     "--embed-provider", alias]) == EXIT_INPUT
        assert f"unknown embedding provider kind: {alias!r}" in capsys.readouterr().err
    assert not (tmp_path / "alias").exists()


def test_ingest_parse_error_carries_file_context(tmp_path, capsys):
    empty = tmp_path / "empty.md"
    empty.write_text("   \n")
    assert main(["ingest", str(empty)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "empty.md" in err and "empty input" in err


def test_pipeline_composability(tmp_path):
    """bootstrap + ingest of the same document always refine cleanly."""
    fixtures = [
        "# Single\nonly one unit here",
        "# A\nalpha text\n## B\nbeta text\n### C\ngamma text",
        two_topic_markdown(),
    ]
    for k, md in enumerate(fixtures):
        src = tmp_path / f"f{k}.md"
        src.write_text(md, encoding="utf-8")
        out = tmp_path / f"out{k}"
        assert main(["ingest", str(src), "--out", str(out)]) == EXIT_OK
        assert main(["bootstrap", str(src), "--out", str(out)]) == EXIT_OK
        code = main([
            "refine", str(out / f"f{k}.space.json"), str(out / f"f{k}.kg.json"),
            "--out", str(out), "--max-iterations", "2",
        ])
        assert code == EXIT_OK, md[:30]


@pytest.mark.parametrize("setting, message", [
    ("epsilon=0", "epsilon must be positive"),
    ("lambda_feat=2", "lambda_feat must lie in [0, 1]"),
    ("beta=0", "beta must be positive"),
    ("theta_add=-1", "theta_add must be positive"),
    ("sinkhorn_iters=0", "iteration counts must be at least 1"),
    ("gamma_struct=5", "gamma must be nonnegative and sum to 1"),
    ("alpha_sem=0.9", "alpha must be nonnegative and sum to 1"),
    ("embed_dim=0", "embedding dimension must be positive"),
    ("embed_dim=65537", "embedding dimension must be at most 65536, got 65537"),
    ("embed_dim=1180591620717411303424",  # 2**70 ended in an OverflowError traceback
     "embedding dimension must be at most 65536, got 1180591620717411303424"),
    ("embed_timeout=-1", "embed_timeout must be positive"),
    ("llm_timeout=0", "llm_timeout must be positive"),
    ("embed_provider=bogus", "unknown embedding provider kind: 'bogus'"),
    ("embed_provider=http", "embed_provider=http requires embed_url"),
    ("embed_provider=file", "embed_provider=file requires embeddings_file"),
    # the artifact's JSON codec writes integers in [-2**63, 2**64 - 1]
    ("embed_seed=18446744073709551616", "embed_seed must be in "
     "[-9223372036854775808, 18446744073709551615], got 18446744073709551616"),
    ("embed_seed=-9223372036854775809", "embed_seed must be in "
     "[-9223372036854775808, 18446744073709551615], got -9223372036854775809"),
])
def test_range_checked_by_every_command(pipeline, lecture_file, tmp_path, capsys,
                                        setting, message):
    # every command that takes settings: report takes none
    inputs = {
        "ingest": [str(lecture_file)],
        "bootstrap": [str(lecture_file)],
        "align": [str(pipeline["space"]), str(pipeline["kg"])],
        "refine": [str(pipeline["space"]), str(pipeline["kg"])],
    }
    key, value = setting.split("=")
    flag = "--" + key.replace("_", "-")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: parsed}))
    capsys.readouterr()
    for command, args in inputs.items():
        # the config file is range-checked whole, whichever keys the command reads
        out = tmp_path / f"bad-{command}"
        assert main([command, *args, "--out", str(out), "--config", str(cfg)]) == EXIT_INPUT
        assert message in capsys.readouterr().err, command
        assert not out.exists(), command
        # a flag exists only for a key the command reads
        code = main([command, *args, "--out", str(out), flag, value])
        err = capsys.readouterr().err
        if key in COMMAND_KEYS[command]:
            assert code == EXIT_INPUT, command
            assert message in err, command
        else:
            assert code == EXIT_USAGE, command
            assert err.startswith("usage error: No such option") and flag in err, command
        assert not out.exists(), command


def test_every_flag_takes_its_default(tmp_path, lecture_file):
    defaults = load_run_config().echo()
    commands = {command.name: command for command in (ingest, bootstrap, align, refine_command)}
    # each command's flags are exactly the keys it reads, and every key has a flag
    for name, command in commands.items():
        options = {p.name for p in command.params if isinstance(p, click.Option)}
        assert options == COMMAND_KEYS[name] | {"config_path", "out_dir"}, name
    assert set().union(*COMMAND_KEYS.values()) == set(defaults)
    # align hands the whole solver section to the FGW solve
    solver = {key for key, (section, _) in config_keys().items() if section == "solver"}
    assert solver and solver <= COMMAND_KEYS["align"]
    stem = tmp_path / lecture_file.stem
    inputs = {"ingest": [lecture_file], "bootstrap": [lecture_file],
              "align": [f"{stem}.space.json", f"{stem}.kg.json"],
              "refine": [f"{stem}.space.json", f"{stem}.kg.json"]}
    for name, command in commands.items():
        # align's --out is the debug dump's directory, refused with debug off
        out = [] if name == "align" else ["--out", str(tmp_path)]
        argv = [name, *map(str, inputs[name]), *out]
        # exactly one flag per key, named after it; a bool key is a switch
        for option in command.params:
            if option.name not in defaults:
                continue
            flag = "--" + option.name.replace("_", "-")
            assert option.opts == [flag]
            value = defaults[option.name]
            if isinstance(value, bool):
                assert option.secondary_opts == ["--no-" + flag[2:]]
                argv.append(flag if value else option.secondary_opts[0])
            elif value is not None:
                argv += [flag, str(value)]
        assert main(argv) == EXIT_OK, name
    # the list key repeats its flag
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path),
                 "--extra-relations", "causes", "--extra-relations", "enables"]) == EXIT_OK


@pytest.mark.parametrize("command", ["ingest", "bootstrap", "align"])
def test_a_command_refuses_the_flag_of_a_key_it_does_not_read(pipeline, lecture_file, tmp_path,
                                                              capsys, command):
    args = {"ingest": [str(lecture_file)], "bootstrap": [str(lecture_file)],
            "align": [str(pipeline["space"]), str(pipeline["kg"]), "--debug"]}[command]
    defaults = load_run_config().echo()
    unread = sorted(set(defaults) - COMMAND_KEYS[command])
    assert unread
    out = tmp_path / "out"
    capsys.readouterr()
    for key in unread:
        # the flag would be ignored, so it is a usage error and writes nothing
        flag = "--" + key.replace("_", "-")
        assert main([command, *args, "--out", str(out), flag, "1"]) == EXIT_USAGE, key
        err = capsys.readouterr().err
        assert err.startswith("usage error: No such option") and flag in err, key
        assert not out.exists(), key
        # in a config file the key is still type- and range-checked
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: 1 if isinstance(defaults[key], bool) else True}))
        assert main([command, *args, "--out", str(out), "--config", str(cfg)]) == EXIT_INPUT
        assert f"config key {key} must be " in capsys.readouterr().err, key
        assert not out.exists(), key
    # and a file that sets it to a valid value loads: one file serves every command
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({key: defaults[key] for key in unread}))
    assert main([command, *args, "--out", str(out), "--config", str(cfg)]) == EXIT_OK
    assert any(out.iterdir())


def test_a_string_flag_keeps_a_numeric_value(pipeline, tmp_path):
    out = tmp_path / "model"
    assert main(["ingest", str(pipeline["dir"] / "lecture.md"), "--out", str(out),
                 "--embed-model", "123"]) == EXIT_OK
    assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(out),
                 "--max-iterations", "0", "--embed-model", "123"]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["config"]["embed_model"] == "123"


def test_no_debug_switch_overrides_the_config_file(pipeline, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"debug": True}))
    for extra, debug in (([], True), (["--no-debug"], False)):
        out = tmp_path / f"debug-{debug}"
        assert main(["refine", str(pipeline["space"]), str(pipeline["kg"]), "--out", str(out),
                     "--max-iterations", "0", "--config", str(cfg), *extra]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["debug"] is debug


def test_align_and_refine_refuse_artifact_with_other_alpha(tmp_path, lecture_file, capsys):
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path),
                 "--alpha-chron", "0.5", "--alpha-sem", "0.2"]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    space, kg = str(tmp_path / "lecture.space.json"), str(tmp_path / "lecture.kg.json")
    capsys.readouterr()
    for command in ("align", "refine"):
        out = tmp_path / f"out-{command}"
        assert main([command, space, kg, "--out", str(out)]) == EXIT_INPUT, command
        err = capsys.readouterr().err
        assert "(0.5, 0.3, 0.2)" in err and "(0.2, 0.3, 0.5)" in err, command
        assert not out.exists(), command
    assert main(["align", space, kg, "--alpha-chron", "0.5", "--alpha-sem", "0.2"]) == EXIT_OK


@pytest.mark.parametrize("seed", [-2**63, 2**64 - 1])
def test_the_widest_embed_seeds_write_an_artifact_that_align_reads(lecture_file, tmp_path,
                                                                   seed):
    flags = ["--out", str(tmp_path), "--embed-seed", str(seed)]
    assert main(["ingest", str(lecture_file), *flags]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    stem = tmp_path / lecture_file.stem
    assert main(["align", f"{stem}.space.json", f"{stem}.kg.json", *flags[2:]]) == EXIT_OK


@pytest.mark.parametrize("flags", [
    ["--embed-dim", "8"],
    ["--embed-seed", "3"],
    ["--embed-provider", "http", "--embed-url", "http://localhost:9/embed"],
])
def test_align_and_refine_refuse_artifact_with_other_embedding(pipeline, tmp_path, capsys,
                                                               flags):
    capsys.readouterr()
    for command in ("align", "refine"):
        out = tmp_path / f"out-{command}"
        code = main([command, str(pipeline["space"]), str(pipeline["kg"]),
                     "--out", str(out), *flags])
        assert code == EXIT_INPUT, command
        err = capsys.readouterr().err
        assert "{'kind': 'hash', 'dim': 256, 'seed': 0}" in err, command
        assert "re-ingest" in err, command
        assert not out.exists(), command


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("fingerprint"), "embedding None"),
    (lambda doc: doc.update(fingerprint=None), "embedding None"),
    (lambda doc: doc.pop("format"), "has format 1"),
    (lambda doc: doc.update(format=3), "has format 3"),
])
def test_align_and_refine_refuse_unstamped_or_other_format(pipeline, tmp_path, capsys,
                                                          edit, message):
    doc = json.loads(pipeline["space"].read_text())
    edit(doc)
    hand = tmp_path / "hand.space.json"
    hand.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("align", "refine"):
        out = tmp_path / f"out-{command}"
        assert main([command, str(hand), str(pipeline["kg"]), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "re-ingest" in err, command
        assert not out.exists(), command


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["d"][1].pop(), "malformed field"),
    (lambda doc: doc["d"][0].__setitem__(1, "near"), "malformed field"),
    (lambda doc: doc["mu"].__setitem__(0, [doc["mu"][0]]), "mu must be a list of finite numbers"),
    (lambda doc: doc["mu"].__setitem__(0, "x"), "mu must be a list of finite numbers"),
    (lambda doc: doc["d"][0].__setitem__(1, float("nan")), "non-finite"),
    (lambda doc: doc.update(mu=[2 * m for m in doc["mu"]]), "not a positive probability"),
    (lambda doc: doc["d"][0].__setitem__(1, -5.0), "not exactly symmetric"),
    (lambda doc: doc["d"][0].__setitem__(2, doc["d"][2][0] / 2), "not exactly symmetric"),
    (lambda doc: (doc["d"][0].__setitem__(1, -5.0), doc["d"][1].__setitem__(0, -5.0)),
     "outside [0, 1]"),
    (lambda doc: (doc["d"][0].__setitem__(1, 1.5), doc["d"][1].__setitem__(0, 1.5)),
     "outside [0, 1]"),
    (lambda doc: doc["d"][0].__setitem__(0, 0.25), "nonzero diagonal"),
], ids=["ragged-d", "text-in-d", "ragged-mu", "text-in-mu", "nan-in-d", "doubled-mu",
        "negative-d-one-side", "asymmetric-d", "negative-d", "d-above-1", "nonzero-diagonal"])
def test_align_refuses_a_bad_lecture_artifact(pipeline, tmp_path, capsys, edit, message):
    doc = json.loads(pipeline["space"].read_text())
    edit(doc)
    hand = tmp_path / "hand.space.json"
    hand.write_text(json.dumps(doc))  # a NaN is written as the NaN literal
    capsys.readouterr()
    assert main(["align", str(hand), str(pipeline["kg"])]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["elements"][0].update(content=5), "element 0: content must be a string, got 5"),
    (lambda doc: doc["elements"][0].update(path="AB"),
     'element 0: path must be a list of strings, got "AB"'),
    (lambda doc: doc["elements"][0].update(idx="0"), 'element 0: idx must be an integer, got "0"'),
    (lambda doc: doc["elements"][0].update(id=3), "element 0: id must be a string, got 3"),
    (lambda doc: doc.update(alpha=["0.2", "0.3", "0.5"]),
     'alpha must be a list of finite numbers, got ["0.2", "0.3", "0.5"]'),
    (lambda doc: doc.update(format=2.0), "format must be an integer, got 2.0"),
    # a numeric string or a boolean in mu is refused, not read as a number
    (lambda doc: doc["mu"].__setitem__(0, repr(doc["mu"][0])),
     'mu must be a list of finite numbers, got ["0.'),
    (lambda doc: doc["mu"].__setitem__(0, True),
     "mu must be a list of finite numbers, got [true,"),
    # an integer beyond 64 bits (orjson reads it as a float) is quoted as written
    (lambda doc: doc["elements"][0].update(idx=2**64),
     "element 0: idx 18446744073709551616 lies outside [-2**63, 2**64 - 1]"),
    (lambda doc: doc.update(format=-2**63 - 1),
     "format -9223372036854775809 lies outside [-2**63, 2**64 - 1]"),
    (lambda doc: doc["elements"][0].update(idx=10**400),  # beyond a float too
     f"element 0: idx {10**400} lies outside [-2**63, 2**64 - 1]"),
], ids=["content-5", "path-string", "idx-string", "id-number", "alpha-strings", "format-float",
        "mu-numeric-string", "mu-boolean",
        "idx-beyond-64-bits", "format-beyond-64-bits", "idx-beyond-a-float"])
def test_align_and_refine_refuse_a_mistyped_artifact_field(pipeline, tmp_path, capsys, edit,
                                                          message):
    # neither converted ("AB" as the path ("A", "B"), "0" as 0) nor a traceback
    doc = json.loads(pipeline["space"].read_text())
    edit(doc)
    hand = tmp_path / "hand.space.json"
    hand.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("align", "refine"):
        out = tmp_path / f"out-{command}"
        assert main([command, str(hand), str(pipeline["kg"]), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"lecture artifact {hand}: {message}" in err and "Traceback" not in err, command
        assert not out.exists(), command


#: a reader's slot -> (the field as its message names it, the kind expected)
TYPED_SLOTS = {
    "config-number": ("config key beta", "a finite number"),
    "config-integer": ("config key max_iterations", "an integer"),
    "kg-number": ("confidence", "a finite number"),
    "trace-number": ("rate", "a finite number"),
    "trace-integer": ("t", "an integer"),
    "embeddings-integer": ("dim", "an integer"),
    "artifact-numbers": ("alpha", "a list of finite numbers"),
    "artifact-integer": ("idx", "an integer"),
}


def _command_reading(slot, value, pipeline, tmp_path):
    """The argv of a command whose reader finds ``value`` in ``slot``, and
    the JSON value the field then holds."""
    lecture, space, kg = pipeline["dir"] / "lecture.md", pipeline["space"], pipeline["kg"]
    bad = tmp_path / "bad.json"
    placed = value
    if slot.startswith("config"):
        bad.write_text(json.dumps({TYPED_SLOTS[slot][0].split()[-1]: value}))
        return ["ingest", str(lecture), "--config", str(bad)], placed
    if slot.startswith("embeddings"):
        bad.write_text(json.dumps({"dim": value, "keys": [], "vectors": []}))
        return ["ingest", str(lecture), "--embed-provider", "file",
                "--embeddings-file", str(bad)], placed
    if slot.startswith("trace"):
        row = {"t": 0, "rate": 3.0, "distortion": 0.5, "objective": 53.0, "structure": 0.2,
               "feature": 0.3, "beta": 100.0, "edits": []}
        row[TYPED_SLOTS[slot][0]] = value
        bad.write_text(json.dumps(row) + "\n")
        return ["report", str(bad)], placed
    source = kg if slot.startswith("kg") else space
    doc = json.loads(source.read_text())
    if slot == "kg-number":
        doc["nodes"][0]["confidence"] = value
    elif slot == "artifact-numbers":
        doc["alpha"] = placed = [value, 0.3, 0.5]
    else:
        doc["elements"][0]["idx"] = value
    bad.write_text(json.dumps(doc))  # NaN and Infinity as their JSON literals
    graph, artifact = (bad, space) if source == kg else (kg, bad)
    return ["align", str(artifact), str(graph)], placed


@pytest.mark.parametrize("slot, value", [
    (slot, value) for slot, (_, kind) in TYPED_SLOTS.items()
    for value in (True, "0.9", float("nan"), float("inf"), 2.5)
    if value != 2.5 or kind == "an integer"
])
def test_every_reader_refuses_a_mistyped_value_with_one_message(pipeline, tmp_path, capsys,
                                                                slot, value):
    # config file, KG file, trace row, embeddings-file header, lecture artifact
    argv, placed = _command_reading(slot, value, pipeline, tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    field, kind = TYPED_SLOTS[slot]
    err = capsys.readouterr().err
    assert f"{field} must be {kind}, got {json.dumps(placed)}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("reader", ["ingest", "bootstrap", "kg", "artifact", "trace", "config"])
def test_every_reader_refuses_a_file_that_is_not_utf8(pipeline, tmp_path, capsys, reader):
    bad = tmp_path / "bad"
    bad.write_bytes(bytes.fromhex("fffe00626164"))
    lecture, space, kg = pipeline["dir"] / "lecture.md", pipeline["space"], pipeline["kg"]
    argv = {
        "ingest": ["ingest", bad],
        "bootstrap": ["bootstrap", bad],
        "kg": ["align", space, bad],
        "artifact": ["align", bad, kg],
        "trace": ["report", bad],
        "config": ["ingest", lecture, "--config", bad],
    }[reader]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*map(str, argv), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "'utf-8' codec can't decode" in err
    assert f"{bad} is not UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_refine_refuses_an_artifact_whose_measure_is_not_a_probability(pipeline, tmp_path,
                                                                      capsys):
    doc = json.loads(pipeline["space"].read_text())
    doc["mu"] = [2 * m for m in doc["mu"]]
    hand = tmp_path / "hand.space.json"
    hand.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["refine", str(hand), str(pipeline["kg"]), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not a positive probability" in err and "Traceback" not in err
    assert not out.exists()


def test_every_command_sends_each_text_to_the_endpoint_once(tmp_path, monkeypatch):
    sent = []

    def fake_post(url, payload, headers, timeout):
        sent.extend(payload["inputs"])
        return {"embeddings": HashEmbedder().embed(payload["inputs"]).tolist()}

    monkeypatch.setattr("rdkg.embeddings.post_json", fake_post)
    md = tmp_path / "dup.md"
    md.write_text("# A\nsame words here\n\nsame words here\n## B\nother words\n\nsame words here")
    http = ["--embed-provider", "http", "--embed-url", "http://fake/embed"]
    space, kg = str(tmp_path / "dup.space.json"), str(tmp_path / "dup.kg.json")
    out = ["--out", str(tmp_path)]
    for argv in (["ingest", str(md), *http, *out], ["bootstrap", str(md), *out],
                 ["align", space, kg, *http],
                 ["refine", space, kg, "--max-iterations", "2", *http, *out]):
        sent.clear()
        assert main(argv) == EXIT_OK, argv[0]
        assert len(sent) == len(set(sent)), argv[0]
        if argv[0] == "ingest":
            assert sorted(sent) == ["other words", "same words here"]


def test_align_prints_the_distortion_of_refine_row_t0(pipeline, tmp_path, capsys):
    space, kg = str(pipeline["space"]), str(pipeline["kg"])
    capsys.readouterr()
    assert main(["align", space, kg]) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "t0"
    assert main(["refine", space, kg, "--out", str(out), "--max-iterations", "1"]) == EXIT_OK
    row = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert row["t"] == 0
    for printed_name, row_name in (("D=", "distortion"), ("structure=", "structure"),
                                   ("feature=", "feature")):
        value = printed.split(printed_name)[1].split()[0].rstrip(",)")
        assert f"{row[row_name]:.6f}" == value, printed_name


@pytest.mark.parametrize("units, vectors, message", [
    (3, lambda inputs: [[1.0, 2.0]] + [[1.0]] * (len(inputs) - 1),  # ragged in a batch
     "malformed vectors"),
    (65, lambda inputs: [[1.0, 2.0, 3.0] if len(inputs) == 64 else [1.0, 2.0]]
     * len(inputs), "malformed vectors"),  # each batch even, 3 then 2 numbers per vector
    (1, lambda inputs: [["x", 1.0]], "malformed vectors"),
    # a boolean or a numeric string is refused, not read as a number
    (2, lambda inputs: [[True, "1.5"]] * len(inputs),
     'malformed vectors: vector 0 must be a list of finite numbers, got [true, "1.5"]'),
    (1, lambda inputs: None, "embedding provider unavailable"),  # no vector list
])
def test_malformed_embedding_reply_exits_input(tmp_path, monkeypatch, capsys, units, vectors,
                                               message):
    monkeypatch.setattr("rdkg.embeddings.post_json",
                        lambda url, payload, headers, timeout:
                        {"embeddings": vectors(payload["inputs"])})
    md = tmp_path / "units.md"
    md.write_text("# L\n\n" + "\n\n".join(f"unit number {i} here" for i in range(units)))
    code = main(["ingest", str(md), "--out", str(tmp_path), "--embed-retries", "0",
                 "--embed-provider", "http", "--embed-url", "http://fake/embed"])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "units.space.json").exists()


@pytest.mark.parametrize("doc, message", [
    ({"dim": "sixteen", "keys": [], "vectors": []}, 'dim must be an integer, got "sixteen"'),
    ({"dim": 2.5, "keys": [], "vectors": []}, "dim must be an integer, got 2.5"),
    ({"dim": 2, "keys": 7, "vectors": []}, "keys must be a list of strings, got 7"),
    ({"dim": 2, "keys": [content_hash("x")], "vectors": [["one", 1.0]]},
     f"vector for key {content_hash('x')[:12]} must be a list of finite numbers, "
     'got ["one", 1.0]'),
    ({"dim": 2, "keys": [content_hash("x")], "vectors": [[None, 1.0]]},
     "must be a list of finite numbers, got [null, 1.0]"),
    # neither converted to [1.0, 1.5]
    ({"dim": 2, "keys": [content_hash("x")], "vectors": [[True, "1.5"]]},
     'must be a list of finite numbers, got [true, "1.5"]'),
], ids=[
    "doc0-dim is not an integer",
    "doc1-dim is not an integer",
    "doc2-keys is not a list",
    "doc3-non-numeric vector",
    "doc4-non-finite vector",
    "doc5-boolean and numeric string",
])
def test_ingest_refuses_a_malformed_embeddings_file(tmp_path, lecture_file, capsys, doc, message):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(doc))
    code = main(["ingest", str(lecture_file), "--out", str(tmp_path),
                 "--embed-provider", "file", "--embeddings-file", str(path)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_align_refuses_an_artifact_ingested_with_another_embeddings_file(
        tmp_path, lecture_file, capsys):
    text = lecture_file.read_text()
    texts = [e.content for e in flatten(parse_markdown(text))]
    texts += [node_text(n) for n in bootstrap_kg(text).nodes]
    files = []
    for seed in (0, 1):  # same dimension, other vectors
        path = tmp_path / f"emb{seed}.json"
        path.write_text(json.dumps({
            "dim": 16, "keys": [content_hash(t) for t in texts],
            "vectors": HashEmbedder(dim=16, seed=seed).embed(texts).tolist(),
        }))
        files.append(path)
    provider = ["--embed-provider", "file", "--embeddings-file"]
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path),
                 *provider, str(files[0])]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    space, kg = str(tmp_path / "lecture.space.json"), str(tmp_path / "lecture.kg.json")
    capsys.readouterr()
    assert main(["align", space, kg, *provider, str(files[1])]) == EXIT_INPUT
    err = capsys.readouterr().err
    for path in files:
        assert hashlib.sha256(path.read_bytes()).hexdigest() in err
    assert "re-ingest" in err
    assert main(["align", space, kg, *provider, str(files[0])]) == EXIT_OK


def test_bootstrap_and_refine_through_an_llm_endpoint(tmp_path, lecture_file, monkeypatch):
    """Replies are read by the KG reader and rules: the bootstrap keeps its
    two well-typed nodes, and refine tries the one edge its edge replies
    propose."""
    bootstrap_reply = {
        "nodes": [
            {"id": "c1", "label": "Tables", "definition": "dataframe index column",
             "aliases": ["frames"], "confidence": 0.9, "rationale": "topic A",
             "salience": 3},
            {"id": "c2", "label": "Sequences", "definition": "list tuple slice",
             "confidence": 0.8, "rationale": "topic B"},
            {"id": "c3", "label": "Slides", "provenance": "slides 3",
             "confidence": 0.7, "rationale": "mistyped provenance"},
            {"id": "c4", "label": "Algebra", "aliases": "matrix algebra",
             "confidence": 0.7, "rationale": "mistyped aliases"},
        ],
        "edges": [{"src": "c3", "dst": "c1", "relation": "partOf",
                   "confidence": 0.5, "rationale": "to a dropped node"}],
    }
    edge_reply = {"edges": [{"src": "c1", "dst": "c2", "relation": "contrastsWith",
                             "confidence": 0.6, "rationale": "two kinds of container"}]}

    def fake_post(url, payload, headers, timeout):
        assert url == "http://fake/llm"
        prompt = payload["messages"][0]["content"]
        if prompt.startswith("You convert lecture notes"):
            reply = bootstrap_reply
        elif prompt.startswith("Given the knowledge-graph nodes"):
            reply = edge_reply
        else:
            reply = {"label": "Concept " + content_hash(prompt)[:6]}
        return {"choices": [{"message": {"content": json.dumps(reply)}}]}

    monkeypatch.setattr("rdkg.llm.post_json", fake_post)
    llm = ["--llm-url", "http://fake/llm"]
    assert main(["ingest", str(lecture_file), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["bootstrap", str(lecture_file), "--out", str(tmp_path), *llm]) == EXIT_OK
    kg = load_kg(tmp_path / "lecture.kg.json")
    assert [n.id for n in kg.nodes] == ["c1", "c2"] and kg.edges == []
    assert kg.nodes[0].extra == {"salience": 3}

    out = tmp_path / "refined"
    assert main(["refine", str(tmp_path / "lecture.space.json"), str(tmp_path / "lecture.kg.json"),
                 "--out", str(out), "--max-iterations", "2", *llm]) == EXIT_OK
    assert validate_graph(load_kg(out / "refined.kg.json")) == []
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    # the edge adds 0.5 to R and lowers beta * D by less, so it is rejected;
    # row 1 keeps a batch before the edge pass runs, and row 2 stops at the
    # fixed point before the edge pass, which has already run on that graph
    assert len(rows) == 3
    assert not [e for row in rows for e in row["edits"] if e["op"] == "llm-edge"]
    for row in rows:
        llm_batches = [b for b in row["rejected"] if b["op"] == "llm-edge"]
        assert [[e["edges"] for e in b["edits"]] for b in llm_batches] == (
            [[[["c1", "contrastsWith", "c2"]]]] if row["t"] == 1 else [])
        assert all(b["delta_L"] >= 0 for b in llm_batches)

"""Run configuration: one flat key set over RunConfig and its nested configs."""

import inspect
import re
from dataclasses import asdict, fields

import pytest

from rdkg.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from rdkg.config import RunConfig, config_keys, load_run_config
from rdkg.embeddings import HashEmbedder, HttpEmbedder
from rdkg.errors import InputError
from rdkg.llm import LlmClient
from rdkg.ot import SolverConfig
from rdkg.refine import RefinementConfig

from conftest import COMMAND_KEYS

FLAT_KEYS = [
    "alpha_chron", "alpha_logic", "alpha_sem", "gamma_struct", "gamma_sem",
    "lambda_feat", "epsilon", "sinkhorn_iters", "beta",
    "theta_add", "theta_split", "theta_merge", "theta_cos", "theta_relate",
    "tau", "max_adds", "max_splits", "max_merges", "max_iterations",
    "embed_provider", "embed_dim", "embed_seed",
    "embeddings_file", "embed_url", "embed_model", "embed_timeout",
    "embed_retries", "llm_url", "llm_model", "llm_timeout", "llm_retries",
    "llm_temperature", "extra_relations", "debug",
]


def test_echo_keeps_the_flat_keys_in_order():
    assert list(load_run_config().echo()) == FLAT_KEYS
    assert list(config_keys()) == FLAT_KEYS


def test_nested_fields_declared_once():
    own = {f.name for f in fields(RunConfig)}
    for nested in (SolverConfig, RefinementConfig):
        assert own.isdisjoint(f.name for f in fields(nested))


def test_defaults_come_from_the_nested_configs():
    cfg = load_run_config()
    assert cfg.solver == SolverConfig()
    assert cfg.refinement == RefinementConfig()
    echo = cfg.echo()
    for nested in (SolverConfig(), RefinementConfig()):
        assert {k: echo[k] for k in asdict(nested)} == asdict(nested)


def _defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_provider_defaults_come_from_the_providers():
    cfg = RunConfig()
    hash_defaults = _defaults(HashEmbedder)
    http_defaults = _defaults(HttpEmbedder)
    llm_defaults = _defaults(LlmClient)
    assert (cfg.embed_dim, cfg.embed_seed) == (hash_defaults["dim"], hash_defaults["seed"])
    assert (cfg.embed_timeout, cfg.embed_retries) == (
        http_defaults["timeout"], http_defaults["retries"])
    assert (cfg.llm_timeout, cfg.llm_retries, cfg.llm_temperature) == (
        llm_defaults["timeout"], llm_defaults["retries"], llm_defaults["temperature"])


def test_overrides_reach_the_nested_configs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"epsilon": 0.1, "max_iterations": 4, "alpha_sem": 0.5}')
    cfg = load_run_config(path, {"beta": 7, "epsilon": None})
    assert cfg.solver.epsilon == 0.1
    assert cfg.refinement.max_iterations == 4
    assert cfg.refinement.beta == 7
    assert cfg.echo()["beta"] == 7


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", 0, "epsilon must be positive"),
    ("lambda_feat", 2, "lambda_feat must lie in [0, 1]"),
    ("beta", 0, "beta must be positive"),
    ("theta_add", -1, "theta_add must be positive"),
])
def test_nested_range_checks_run_at_load(key, value, message):
    with pytest.raises(InputError, match=re.escape(message)):
        load_run_config(overrides={key: value})


def test_own_range_bounds_are_inclusive():
    assert load_run_config(overrides={"alpha_chron": 0, "alpha_logic": 0.5})
    for value in (1, 65536):
        assert RunConfig(embed_dim=value).embed_dim == value
    # embed_seed: the integers the artifact's JSON codec writes, in a config made directly too
    for value in (-2**63, 2**64 - 1):
        assert RunConfig(embed_seed=value).embed_seed == value
    for value in (-2**63 - 1, 2**64):
        with pytest.raises(InputError, match=re.escape(f"embed_seed must be in [{-2**63}, ")):
            RunConfig(embed_seed=value)


@pytest.mark.parametrize("key", ["solver", "refinement"])
def test_section_names_are_not_keys(key):
    with pytest.raises(InputError, match="unknown config keys"):
        load_run_config(overrides={key: {}})


@pytest.mark.parametrize("key", ["conv_threshold", "patience"])
def test_the_removed_stop_rule_keys_are_unknown(tmp_path, capsys, key):
    # the search stops at its fixed point; a config naming the old stop rule is refused
    assert_unknown_key(tmp_path, capsys, key)


def test_the_removed_coverage_row_min_key_is_unknown(tmp_path, capsys):
    # coverage is taken over all N*M costs; a config asking for row minima is refused
    assert_unknown_key(tmp_path, capsys, "coverage_row_min")


def assert_unknown_key(tmp_path, capsys, key):
    lecture = tmp_path / "l.md"
    lecture.write_text("# A\n\nsome lecture text\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"{key}": 2}}')
    args = ["ingest", str(lecture), "--out", str(tmp_path)]
    assert main([*args, "--config", str(cfg)]) == EXIT_INPUT
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    with pytest.raises(InputError, match=f"unknown config keys: {key}"):
        load_run_config(overrides={key: 2})
    # no flag is made for it: the CLI's usage error
    flag = "--" + key.replace("_", "-")
    assert main([*args, flag, "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "No such option" in err and flag in err
    assert not (tmp_path / "l.space.json").exists()


@pytest.mark.parametrize("key, value", [("fw_iters", 50), ("fw_tol", 1e-6),
                                        ("coverage_percentile", 30)])
def test_the_fixed_stop_rule_and_coverage_percentile_are_unknown_keys(tmp_path, capsys,
                                                                       key, value):
    # ot.FW_ITERS, ot.FW_TOL and analysis.COVERAGE_PERCENTILE are constants: a
    # file or flag that sets one, even to its value, is refused by every command
    lecture = tmp_path / "l.md"
    lecture.write_text("# A\n\nsome lecture text\n")
    for command in ("ingest", "bootstrap"):
        assert main([command, str(lecture), "--out", str(tmp_path)]) == EXIT_OK
    artifacts = [str(tmp_path / "l.space.json"), str(tmp_path / "l.kg.json")]
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"{key}": {value}}}')
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    for command, inputs in (("ingest", [str(lecture)]), ("bootstrap", [str(lecture)]),
                            ("align", artifacts), ("refine", artifacts)):
        capsys.readouterr()
        assert main([command, "--help"]) == EXIT_OK
        assert flag not in capsys.readouterr().out, command
        assert main([command, *inputs, "--out", str(out), "--config", str(cfg)]) == EXIT_INPUT
        assert f"unknown config keys: {key}" in capsys.readouterr().err, command
        assert main([command, *inputs, "--out", str(out), flag, str(value)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "No such option" in err and flag in err, command
        assert not out.exists(), command


FLOAT_KEYS = [key for key, (_, hint) in config_keys().items() if hint is float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_key_must_be_finite(tmp_path, capsys, key):
    # NaN and Infinity would reach the solver, or be written as non-JSON tokens
    lecture = tmp_path / "l.md"
    lecture.write_text("# A\n\nsome lecture text\n")
    for command in ("ingest", "bootstrap"):
        assert main([command, str(lecture), "--out", str(tmp_path)]) == EXIT_OK
    # the first command that reads the key, so it has the key's flag
    command = next(c for c, keys in COMMAND_KEYS.items() if key in keys)
    inputs = ([str(lecture)] if command in ("ingest", "bootstrap")
              else [str(tmp_path / "l.space.json"), str(tmp_path / "l.kg.json")])
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    # a 400-digit integer in a file stays an int: the finite check compares
    # it with the largest float instead of converting it
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
    for args in ([flag, "NaN"], [flag, "-Infinity"], [flag, "1e400"],
                 [flag, f"1{'0' * 400}"], [flag, "nan"], [flag, "inf"],
                 ["--config", str(cfg)]):
        capsys.readouterr()
        assert main([command, *inputs, "--out", str(out), *args]) == EXIT_INPUT
        assert f"config key {key} must be a finite number, got " in capsys.readouterr().err
    assert not out.exists()

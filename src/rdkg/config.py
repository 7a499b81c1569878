"""Run configuration: defaults, config-file loading, CLI overrides.

Precedence is CLI flag > config file > built-in default. The config
file is a flat JSON object. Its keys are RunConfig's own fields plus the
fields of the nested SolverConfig and RefinementConfig, each declared
once, in the dataclass that uses it. Every value is checked against its
key's type, counts must not be negative, and the range checks of
RunConfig and the nested configs run at load, so a bad value is an
InputError in every command. The effective configuration is echoed flat
into report.json.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import get_type_hints

from .embeddings import (
    DEFAULT_EMBED_DIM,
    DEFAULT_EMBED_RETRIES,
    DEFAULT_EMBED_SEED,
    DEFAULT_EMBED_TIMEOUT,
    check_dim,
    check_provider,
    check_request_settings,
)
from .errors import InputError, check_json, read_utf8
from .kg import DEFAULT_GAMMA
from .lecture import DEFAULT_ALPHA, INT_RANGE, check_weights
from .llm import DEFAULT_LLM_RETRIES, DEFAULT_LLM_TEMPERATURE, DEFAULT_LLM_TIMEOUT
from .ot import SolverConfig
from .refine import RefinementConfig


@dataclass
class RunConfig:
    # lecture-space fusion weights
    alpha_chron: float = DEFAULT_ALPHA[0]
    alpha_logic: float = DEFAULT_ALPHA[1]
    alpha_sem: float = DEFAULT_ALPHA[2]
    # graph-space fusion weights
    gamma_struct: float = DEFAULT_GAMMA[0]
    gamma_sem: float = DEFAULT_GAMMA[1]
    solver: SolverConfig = field(default_factory=SolverConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    # embedding provider
    embed_provider: str = "hash"  # one of embeddings.PROVIDER_KINDS
    embed_dim: int = DEFAULT_EMBED_DIM
    embed_seed: int = DEFAULT_EMBED_SEED
    embeddings_file: str | None = None
    embed_url: str | None = None
    embed_model: str = "default"
    embed_timeout: float = DEFAULT_EMBED_TIMEOUT
    embed_retries: int = DEFAULT_EMBED_RETRIES
    # optional LLM client
    llm_url: str | None = None
    llm_model: str = "default"
    llm_timeout: float = DEFAULT_LLM_TIMEOUT
    llm_retries: int = DEFAULT_LLM_RETRIES
    llm_temperature: float = DEFAULT_LLM_TEMPERATURE
    # extra relation names admitted beyond the built-in ontology
    extra_relations: list[str] | None = None
    debug: bool = False

    def __post_init__(self) -> None:
        # the rules of the code each key reaches, run wherever a config is made
        check_weights("alpha", self.alpha, 3)
        check_weights("gamma", self.gamma, 2)
        check_provider(self.embed_provider, self.embed_url, self.embeddings_file)
        check_dim(self.embed_dim)
        # embed_seed is stamped on every artifact in the embedding fingerprint
        if not INT_RANGE[0] <= self.embed_seed <= INT_RANGE[1]:
            raise InputError(f"embed_seed must be in [{INT_RANGE[0]}, {INT_RANGE[1]}], "
                             f"got {self.embed_seed}")
        check_request_settings(self.embed_timeout, self.embed_retries, "embed_")
        check_request_settings(self.llm_timeout, self.llm_retries, "llm_")

    @property
    def alpha(self) -> tuple[float, float, float]:
        return (self.alpha_chron, self.alpha_logic, self.alpha_sem)

    @property
    def gamma(self) -> tuple[float, float]:
        return (self.gamma_struct, self.gamma_sem)

    def echo(self) -> dict:
        """Every flat key with its value, in config_keys() order."""
        return {
            key: getattr(getattr(self, section) if section else self, key)
            for key, (section, _) in config_keys().items()
        }


@cache
def config_keys() -> Mapping[str, tuple[str | None, object]]:
    """Every flat config key in declaration order -> (section, annotation).

    ``section`` is the RunConfig field holding the nested config that
    declares the key (``solver``, ``refinement``), or None for a key
    RunConfig declares itself.
    """
    hints = get_type_hints(RunConfig)
    keys: dict[str, tuple[str | None, object]] = {}
    for f in fields(RunConfig):
        hint = hints[f.name]
        if is_dataclass(hint):
            nested = get_type_hints(hint)
            keys.update({g.name: (f.name, nested[g.name]) for g in fields(hint)})
        else:
            keys[f.name] = (None, hint)
    return MappingProxyType(keys)


def load_run_config(
    config_path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Assemble the effective configuration.

    ``overrides`` holds CLI-provided values (None entries are treated
    as "not given" and skipped).
    """
    values: dict = {}
    if config_path is not None:
        try:
            doc = json.loads(read_utf8(config_path, f"config file {config_path}"))
        except OSError as exc:
            raise InputError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config file {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError("config file must hold a flat JSON object")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    keys = config_keys()
    unknown = sorted(set(values) - set(keys))
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    grouped: dict[str | None, dict] = {None: {}}
    for name, value in values.items():
        section, hint = keys[name]
        _check_value(name, value, hint)
        grouped.setdefault(section, {})[name] = value
    cfg = RunConfig(**grouped.pop(None))
    for section, nested in grouped.items():
        # replace() reruns the nested config's range checks, in every command
        setattr(cfg, section, replace(getattr(cfg, section), **nested))
    return cfg


def _check_value(name: str, value, hint) -> None:
    """Raise InputError unless ``value`` passes ``check_json`` for the
    field's annotation. Integer fields are counts and must not be
    negative, except ``embed_seed``."""
    check_json(f"config key {name}", value, hint)
    if hint is int and name != "embed_seed" and value < 0:
        raise InputError(f"config key {name} must not be negative, got {value}")

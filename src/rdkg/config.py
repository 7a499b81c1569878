"""Run configuration: defaults, config-file loading, CLI overrides.

Precedence is CLI flag > config file > built-in default. The config
file is a flat JSON object whose keys mirror the field names below
(refinement threshold names match RefinementConfig exactly). Every
value is checked against its field's type, and counts must not be
negative; a bad value is an InputError. The effective configuration is
echoed into report.json.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import InputError
from .kg import DEFAULT_GAMMA
from .lecture import DEFAULT_ALPHA
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
    degree_weighted_measure: bool = False
    # solver
    lambda_feat: float = 0.6
    epsilon: float = 0.05
    sinkhorn_iters: int = 200
    fw_iters: int = 50
    fw_tol: float = 1e-6
    # refinement
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
    split_entropy_raw: bool = False
    add_fractional: bool = False
    # analysis
    coverage_percentile: float = 30.0
    coverage_row_min: bool = False
    # embedding provider
    embed_provider: str = "hash"  # hash | file | http
    embed_dim: int = 256
    embed_seed: int = 0
    embeddings_file: str | None = None
    embed_url: str | None = None
    embed_model: str = "default"
    embed_timeout: float = 30.0
    embed_retries: int = 2
    # optional LLM client
    llm_url: str | None = None
    llm_model: str = "default"
    llm_timeout: float = 60.0
    llm_retries: int = 2
    llm_temperature: float = 0.0
    # extra relation names admitted beyond the built-in ontology
    extra_relations: list[str] | None = None
    debug: bool = False

    @property
    def alpha(self) -> tuple[float, float, float]:
        return (self.alpha_chron, self.alpha_logic, self.alpha_sem)

    @property
    def gamma(self) -> tuple[float, float]:
        return (self.gamma_struct, self.gamma_sem)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            lambda_feat=self.lambda_feat,
            epsilon=self.epsilon,
            sinkhorn_iters=self.sinkhorn_iters,
            fw_iters=self.fw_iters,
            fw_tol=self.fw_tol,
        )

    def refinement_config(self) -> RefinementConfig:
        return RefinementConfig(
            beta=self.beta,
            theta_add=self.theta_add,
            theta_split=self.theta_split,
            theta_merge=self.theta_merge,
            theta_cos=self.theta_cos,
            theta_relate=self.theta_relate,
            tau=self.tau,
            max_adds=self.max_adds,
            max_splits=self.max_splits,
            max_merges=self.max_merges,
            max_iterations=self.max_iterations,
            conv_threshold=self.conv_threshold,
            patience=self.patience,
            kl_smoothing=self.kl_smoothing,
            split_entropy_raw=self.split_entropy_raw,
            add_fractional=self.add_fractional,
        )

    def echo(self) -> dict:
        return asdict(self)


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
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config file {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError("config file must hold a flat JSON object")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    hints = get_type_hints(RunConfig)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in values.items():
        _check_value(name, value, hints[name])
    return RunConfig(**values)


def _check_value(name: str, value, hint) -> None:
    """Raise InputError unless ``value`` fits the field's annotation.

    Integer fields are counts and must not be negative, except
    ``embed_seed``.
    """
    allowed = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if not any(_fits(value, kind) for kind in allowed):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        raise InputError(f"config key {name} expects {expected}, got {value!r}")
    if hint is int and name != "embed_seed" and value < 0:
        raise InputError(f"config key {name} must not be negative, got {value}")


def _fits(value, kind) -> bool:
    """Whether ``value`` is a ``kind``; an int counts as a float, a bool
    as neither."""
    if kind in (int, float):
        numeric = (int,) if kind is int else (int, float)
        return isinstance(value, numeric) and not isinstance(value, bool)
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return isinstance(value, list) and all(isinstance(v, item) for v in value)
    return isinstance(value, kind)

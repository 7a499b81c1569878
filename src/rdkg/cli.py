"""Command-line pipeline: ingest -> bootstrap -> align -> refine -> report.

Stages communicate through files (lecture-space artifact, KG JSON,
trace JSONL) so experiments can swap graphs or embeddings without
re-parsing. Exit codes are stable: 0 success, 1 usage error, 2 input
validation error, 3 numerical failure.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin

import click

from . import analysis, kg as kgmod, lecture as lecmod
from .config import RunConfig, config_keys, load_run_config
from .embeddings import CostMemo, provider_from_config
from .errors import InputError, NumericalError, ProviderError, read_utf8
from .kg import ALLOWED_RELATIONS
from .llm import LlmClient, bootstrap_kg
from .ot import coupling_dump
from .refine import align_graph, refine

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _flag(key: str, hint):
    """The one flag of config key ``key``, read off its annotation: a
    ``--key/--no-key`` switch for a bool, a repeatable option for a list,
    else an option of the key's type. An absent flag gives None."""
    name = "--" + key.replace("_", "-")
    kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    (kind,) = (k for k in kinds if k is not NoneType)
    help_text = f"Override config key {key}."
    if kind is bool:
        return click.option(f"{name}/--no-{name[2:]}", key, default=None, help=help_text)
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return click.option(name, key, type=item, multiple=True, help=help_text + " Repeatable.",
                            callback=lambda _ctx, _param, value: list(value) or None)
    return click.option(name, key, type=kind, default=None, help=help_text)


# The config keys each command reads, and so its only flags besides --config
# and --out. The config file is loaded and range-checked whole in every
# command, so one file serves the whole pipeline. Nothing ingest runs logs
# below WARNING, so ingest does not read debug; align reads it for the
# coupling dump, and beta for the objective it prints. The alignment itself
# reads no key: its weights and regularization are constants.
INGEST_KEYS = frozenset({
    "alpha_chron", "alpha_logic", "alpha_sem", "embed_provider", "embed_dim", "embed_seed",
    "embeddings_file", "embed_url", "embed_model", "embed_timeout", "embed_retries",
})
BOOTSTRAP_KEYS = frozenset({
    "llm_url", "llm_model", "llm_timeout", "llm_retries", "llm_temperature",
    "extra_relations", "debug",
})
ALIGN_KEYS = INGEST_KEYS | {"extra_relations", "beta", "debug"}
REFINE_KEYS = frozenset(config_keys())


def _config_options(keys: frozenset[str],
                    out_help: str = "Output directory (default: alongside inputs)."):
    """``--config``, ``--out`` and one flag for each key in ``keys``, e.g.
    --beta, --extra-relations, --debug/--no-debug, in config_keys() order."""
    decorators = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="Flat JSON config file."),
        click.option("--out", "out_dir", type=click.Path(), default=None, help=out_help),
    ]
    decorators += [_flag(key, hint) for key, (_, hint) in config_keys().items() if key in keys]

    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn
    return apply


def _setup(config_path, overrides: dict) -> RunConfig:
    cfg = load_run_config(config_path, overrides)
    logging.basicConfig(
        level=logging.DEBUG if cfg.debug else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return cfg


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"file not found: {path}")
    return p


def _load_inputs(space_path: str, kg_path: str, cfg: RunConfig):
    """The embedding provider, lecture space and graph of an ``align`` or
    ``refine`` run.

    Refuses a lecture space whose stamp (alpha weights and embedding
    fingerprint) differs from this run's, and a graph that fails
    validation.
    """
    provider = provider_from_config(cfg)
    space = lecmod.load_lecture_space(_require_file(space_path))
    if (space.alpha, space.fingerprint) != (cfg.alpha, provider.fingerprint):
        raise InputError(
            f"{space_path} was built with alpha (chron, logic, sem) = {space.alpha} and "
            f"embedding {space.fingerprint}, but this run sets {cfg.alpha} and "
            f"{provider.fingerprint}; re-ingest, or pass the settings it was built with"
        )
    graph = kgmod.load_kg(_require_file(kg_path))
    violations = kgmod.validate_graph(graph, _allowed_relations(cfg))
    if violations:
        raise InputError("invalid KG: " + "; ".join(violations))
    return provider, space, graph


def _llm_client(cfg: RunConfig) -> LlmClient | None:
    if not cfg.llm_url:
        return None
    return LlmClient(cfg.llm_url, cfg.llm_model, cfg.llm_timeout, cfg.llm_retries,
                     cfg.llm_temperature)


def _allowed_relations(cfg: RunConfig) -> frozenset[str]:
    if cfg.extra_relations:
        return ALLOWED_RELATIONS | frozenset(cfg.extra_relations)
    return ALLOWED_RELATIONS


@click.group()
def cli() -> None:
    """Rate-distortion guided knowledge-graph refinement."""


@cli.command()
@click.argument("markdown_path", type=click.Path())
@_config_options(INGEST_KEYS)
def ingest(markdown_path, config_path, out_dir, **overrides) -> None:
    """Parse lecture Markdown into a lecture-space artifact."""
    cfg = _setup(config_path, overrides)
    src = _require_file(markdown_path)
    provider = provider_from_config(cfg)
    text = read_utf8(src, f"lecture {src}")
    try:
        space = lecmod.build_lecture_space(
            text, embed=provider.embed, alpha=cfg.alpha, fingerprint=provider.fingerprint,
        )
    except InputError as exc:
        raise InputError(f"{src}: {exc}") from exc
    out = Path(out_dir) if out_dir else src.parent
    out.mkdir(parents=True, exist_ok=True)
    target = out / (src.stem + ".space.json")
    lecmod.save_lecture_space(space, target)
    d = space.distance
    click.echo(
        f"ingested {src.name}: N={len(space)} units, "
        f"d mean={d.mean():.4f} max={d.max():.4f} -> {target}"
    )


@cli.command()
@click.argument("markdown_path", type=click.Path())
@_config_options(BOOTSTRAP_KEYS)
def bootstrap(markdown_path, config_path, out_dir, **overrides) -> None:
    """Extract an initial knowledge graph from lecture Markdown."""
    cfg = _setup(config_path, overrides)
    src = _require_file(markdown_path)
    graph = bootstrap_kg(
        read_utf8(src, f"lecture {src}"), _llm_client(cfg), _allowed_relations(cfg)
    )
    if not graph.nodes:  # align and refine cannot use an empty graph
        raise InputError(f"lecture {src} has no heading and no usable LLM reply: no concept")
    out = Path(out_dir) if out_dir else src.parent
    out.mkdir(parents=True, exist_ok=True)
    target = out / (src.stem + ".kg.json")
    kgmod.save_kg(graph, target)
    click.echo(
        f"bootstrapped {src.name}: |V|={len(graph.nodes)} |E|={len(graph.edges)} "
        f"rate={kgmod.rate(graph):g} -> {target}"
    )


@cli.command()
@click.argument("space_path", type=click.Path())
@click.argument("kg_path", type=click.Path())
@_config_options(ALIGN_KEYS, out_help="Directory of the --debug coupling dump "
                "(default: the working directory); a usage error without debug.")
def align(space_path, kg_path, config_path, out_dir, **overrides) -> None:
    """Align a lecture space to a knowledge graph and report distortion.

    With debug on, also dump the coupling to ``--out``; without it
    ``--out`` would be ignored, so it is a usage error.
    """
    cfg = _setup(config_path, overrides)
    provider, space, graph = _load_inputs(space_path, kg_path, cfg)
    if out_dir is not None and not cfg.debug:
        raise click.UsageError("align writes only the --debug coupling dump to --out")
    memo = CostMemo(provider.embed, space.contents())
    aligned = align_graph(space, graph, memo)
    result = aligned.result
    cov = analysis.coverage(aligned.feature, aligned.coupling.matrix)
    r = kgmod.rate(graph)
    click.echo(
        f"D={result.distortion:.6f} (structure={result.structure_term:.6f}, "
        f"feature={result.feature_term:.6f}) rate={r:g} "
        f"L={r + cfg.refinement.beta * result.distortion:.6f} coverage={cov:.4f}"
    )
    if cfg.debug:
        out = Path(out_dir) if out_dir else Path(".")
        out.mkdir(parents=True, exist_ok=True)
        dump = out / "coupling.json"
        dump.write_text(json.dumps(coupling_dump(result.coupling)), encoding="utf-8")
        click.echo(f"coupling dump -> {dump}")


@cli.command(name="refine")
@click.argument("space_path", type=click.Path())
@click.argument("kg_path", type=click.Path())
@_config_options(REFINE_KEYS)
def refine_cmd(space_path, kg_path, config_path, out_dir, **overrides) -> None:
    """Refine a knowledge graph against a lecture space; write all artifacts."""
    cfg = _setup(config_path, overrides)
    provider, space, graph = _load_inputs(space_path, kg_path, cfg)
    outcome = refine(
        space, graph, provider,
        refine_config=cfg.refinement,
        llm_client=_llm_client(cfg),
        allowed_relations=_allowed_relations(cfg),
    )

    out = Path(out_dir) if out_dir else Path(kg_path).parent
    out.mkdir(parents=True, exist_ok=True)
    kgmod.save_kg(outcome.graph, out / "refined.kg.json")
    analysis.save_trace(outcome.trace, out / "trace.jsonl")

    knee = analysis.emit_report(outcome.trace, out, cfg.echo())
    points = outcome.trace.points
    click.echo(
        f"refined: |V|={len(outcome.graph.nodes)} |E|={len(outcome.graph.edges)} "
        f"incumbent t={outcome.incumbent_index} knee={knee} "
        f"coverage {points[0].coverage:.4f} -> {points[-1].coverage:.4f} ({out})"
    )
    if outcome.trace.incomplete:
        raise NumericalError("refinement aborted early; partial trace written")


@cli.command()
@click.argument("trace_path", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (default: alongside the trace).")
def report(trace_path, out_dir) -> None:
    """Regenerate report files from an existing trace.

    The report is a function of the trace alone, so --out is the only
    option and a setting is a usage error. The trace records beta and no
    other setting, so the config block of report.json is empty.
    """
    trace = analysis.load_trace(_require_file(trace_path))
    out = Path(out_dir) if out_dir else Path(trace_path).parent
    analysis.emit_report(trace, out)
    click.echo(f"report -> {out / 'report.json'}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the stable exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_INPUT
    except click.exceptions.Abort:
        return EXIT_USAGE
    except (InputError, ProviderError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())

"""Single-field mutations of every JSON input, each run through ``rdkg.cli.main``.

Each input kind is a valid document that one command reads: the KG file
and the lecture-space artifact (``align``), a trace row (``report``), a
config file (``align``, which reads and range-checks every key), an
embeddings file (``ingest``), an LLM bootstrap reply (``bootstrap``) and
an HTTP embedding reply (``ingest``). The two replies come from a
stand-in for ``urllib.request.urlopen``, so that ``post_json`` parses
them. A mutant replaces one field (for a list, one of its first 3
entries, at any depth) by one of ``VALUES``, or deletes it. Every mutant
must exit 0 or 2, or 3 from a numerical failure of a command that solves;
no exception may escape ``main``, and a refused mutant must write
nothing.

``tests/test_fuzz.py`` runs a fixed-seed sample of the mutants. The whole
scan runs as a script and exits 1 if any mutant breaks the contract::

    PYTHONPATH=src python -W error::RuntimeWarning tests/fuzz.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import Any, Callable
from unittest import mock

from rdkg.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from rdkg.config import RunConfig
from rdkg.embeddings import HashEmbedder, content_hash
from rdkg.kg import kg_to_dict
from rdkg.lecture import flatten
from rdkg.llm import bootstrap_kg
from rdkg.markdown import parse_markdown

from conftest import TOPIC_A_WORDS, TOPIC_B_WORDS, make_section

#: Every value a field is replaced by.
VALUES = (None, True, 0, -1, 2.5, 2**64, 10**400, float("nan"), float("inf"), "", "0.9",
          "\ud800", [], [1], {})


class _Delete:
    def __repr__(self) -> str:
        return "<deleted>"


#: The mutation that deletes the field.
DELETE = _Delete()

#: The replies' stand-in endpoint: were the stand-in ever missing, a
#: request would reach only this host.
URL = "http://127.0.0.1:9"

LECTURE = "\n".join(["# Lecture", "", make_section("Tables", TOPIC_A_WORDS, 3, 0),
                     make_section("Sequences", TOPIC_B_WORDS, 3, 0)])

#: The commands that solve an alignment, and so may exit 3.
SOLVING = frozenset({"kg", "artifact", "config"})

#: kind -> (its valid document, a function that places a document of the
#: kind in the given directory and returns the argv of the command reading
#: it, and the reply the stand-in endpoint sends, if any)
Kinds = dict[str, tuple[Any, Callable[[Any, Path], tuple[list[str], Any]]]]


def field_paths(doc: Any, at: tuple = ()):
    """The path of every field of ``doc``: each key of an object and each of
    the first 3 entries of a list, at every depth."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:3])
    else:
        return
    for key, value in children:
        yield at + (key,)
        yield from field_paths(value, at + (key,))


def mutated(doc: Any, path: tuple, value: Any) -> Any:
    """A copy of ``doc`` whose field at ``path`` is ``value``, or is
    deleted for ``DELETE``."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = reduce(getitem, head, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return doc


def endpoint(reply: Any):
    """A stand-in for ``urllib.request.urlopen`` that answers every request
    with ``reply`` as JSON text; an LLM reply's content given as a document
    is sent as its JSON text."""
    reply = copy.deepcopy(reply)
    with contextlib.suppress(LookupError, TypeError):
        message = reply["choices"][0]["message"]
        if isinstance(message["content"], dict):
            message["content"] = json.dumps(message["content"])
    body = json.dumps(reply).encode("utf-8")
    return lambda request, timeout: io.BytesIO(body)


def build_kinds(work: Path) -> Kinds:
    """Write the lecture and its artifacts under ``work`` and return every
    input kind."""
    lecture, space, kg = work / "lecture.md", work / "lecture.space.json", work / "lecture.kg.json"
    lecture.write_text(LECTURE, encoding="utf-8")
    with _quiet():
        for argv in (["ingest", lecture, "--out", work], ["bootstrap", lecture, "--out", work],
                     ["refine", space, kg, "--out", work / "run", "--max-iterations", "2"]):
            assert main(list(map(str, argv))) == EXIT_OK, argv
    rows = [json.loads(line) for line in (work / "run" / "trace.jsonl").read_text().splitlines()]
    texts = list(dict.fromkeys(e.content for e in flatten(parse_markdown(LECTURE))))

    def file_reader(suffix: str, argv: Callable[[Path], list]):
        def place(doc: Any, where: Path) -> tuple[list[str], None]:
            path = where / f"mutant{suffix}"
            path.write_text(json.dumps(doc), encoding="utf-8")  # NaN as its literal
            return list(map(str, argv(path))), None
        return place

    def reply_reader(argv: list):
        return lambda doc, where: (list(map(str, argv)), doc)

    return {
        "kg": (json.loads(kg.read_text()), file_reader(".kg.json", lambda p: ["align", space, p])),
        "artifact": (json.loads(space.read_text()),
                     file_reader(".space.json", lambda p: ["align", p, kg])),
        # the last row, which records the edits its iteration kept
        "trace": (rows[-1], file_reader(".jsonl", lambda p: ["report", p])),
        "config": (RunConfig().echo(),
                   file_reader(".json", lambda p: ["align", space, kg, "--config", p])),
        "embeddings": ({"dim": 8, "keys": [content_hash(t) for t in texts],
                        "vectors": HashEmbedder(dim=8).embed(texts).tolist()},
                       file_reader(".json", lambda p: ["ingest", lecture, "--embed-provider",
                                                       "file", "--embeddings-file", p])),
        "llm-reply": ({"choices": [{"message": {"content": kg_to_dict(bootstrap_kg(LECTURE))}}]},
                      reply_reader(["bootstrap", lecture, "--llm-url", f"{URL}/llm",
                                    "--llm-retries", "0"])),
        "http-reply": ({"embeddings": HashEmbedder().embed(texts).tolist()},
                       reply_reader(["ingest", lecture, "--embed-provider", "http",
                                     "--embed-url", f"{URL}/embed", "--embed-retries", "0"])),
    }


def mutants(kinds: Kinds) -> list[tuple[str, tuple, Any]]:
    """Every (kind, path, value) mutation, in a fixed order."""
    return [(kind, path, value) for kind, (doc, _) in kinds.items()
            for path in field_paths(doc) for value in (*VALUES, DELETE)]


def sample(all_mutants: list, per_kind: int, seed: int = 0) -> list:
    """``per_kind`` mutants of each kind, drawn with a fixed seed."""
    rng = random.Random(seed)
    kinds = dict.fromkeys(kind for kind, _, _ in all_mutants)
    return [m for kind in kinds
            for m in rng.sample([m for m in all_mutants if m[0] == kind], per_kind)]


def check(kinds: Kinds, kind: str, path: tuple, value: Any, work: Path) -> str | None:
    """Run one mutant in a fresh directory under ``work``; None if it keeps
    the contract, else what went wrong."""
    doc, place = kinds[kind]
    run = Path(tempfile.mkdtemp(dir=work))
    (run / "in").mkdir()
    argv, reply = place(mutated(doc, path, value), run / "in")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run)  # align writes its --debug dump to the working directory
    try:
        with mock.patch("urllib.request.urlopen", endpoint(reply)), _quiet(err):
            code = main([*argv, "--out", "out"] if argv[0] != "align" else argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        return f"{type(exc).__name__} escaped: {exc}"[:300]
    finally:
        os.chdir(cwd)
        written = sorted(p.name for p in run.iterdir() if p.name != "in")
        shutil.rmtree(run)
    numerical = code == EXIT_NUMERICAL and kind in SOLVING
    if code not in (EXIT_OK, EXIT_INPUT) and not numerical:
        return f"exit {code}: {err.getvalue().strip()[:300]}"
    if code != EXIT_OK and written:
        return f"exit {code} wrote {written}"
    return None


@contextlib.contextmanager
def _quiet(err: io.StringIO | None = None):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err or io.StringIO()):
        yield


def scan() -> int:
    """Run every mutant; print each one that breaks the contract."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        kinds = build_kinds(work)
        every = mutants(kinds)
        faults = [(m, why) for m in every if (why := check(kinds, *m, work))]
    for (kind, path, value), why in faults:
        print(f"{kind} {list(path)} = {value!r}: {why}")
    print(f"{len(every)} mutants, {len(faults)} break the contract, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(scan())

"""Lecture notes as a metric-measure space.

A parsed document is flattened into an ordered list of atomic units
(one per Markdown block). Three pairwise distances are computed over
the units (chronological separation, section-hierarchy separation,
embedding dissimilarity), normalized to [0, 1], and fused by a convex
combination into the single lecture distance matrix. The measure over
units is uniform.

The lecture-space artifact holds the units, the fused distance, the
measure, and the stamp of how it was made: the fusion weights and the
embedding provider's fingerprint. It is one compact UTF-8 JSON object,
written and parsed with orjson; its distance is written a few rows at a
time. A file orjson refuses (NaN or Infinity literals, numbers beyond a
float, lone surrogates) is parsed again with the stdlib ``json``, so it
is refused by the same checks and messages. The writer and the reader
enforce one contract (``check_space``): the distance is finite, exactly
symmetric, zero on the diagonal and in [0, 1], and the measure is a
positive probability vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .embeddings import embed_distinct, self_cost
from .errors import InputError, check_json, pop_field, read_utf8
from .markdown import ROOT_TITLE, Section, parse_markdown

DEFAULT_ALPHA = (0.2, 0.3, 0.5)  # (chron, logic, sem) fusion weights

#: Layout version of the lecture-space artifact; a file without one is
#: version 1, which also stored the three component matrices.
ARTIFACT_FORMAT = 2

#: The integers the artifact's JSON codec (orjson) reads as integers: the
#: range of ``format``, each ``idx`` and the stamped ``embed_seed``.
INT_RANGE = (-2**63, 2**64 - 1)

#: Units shorter than this after whitespace normalization are dropped
#: before indexing; separators and artifacts pollute the embedding space.
MIN_UNIT_CHARS = 3

_WEIGHT_TOL = 1e-9

#: Rows of ``d`` per ``orjson.dumps`` call of ``save_lecture_space``.
_SAVE_ROWS = 8


@dataclass(frozen=True)
class LectureElement:
    """One atomic unit of lecture content."""

    id: str
    idx: int
    section_path: tuple[str, ...]
    content: str


@dataclass
class LectureSpace:
    """The lecture metric-measure space and the stamp of how it was made.

    ``distance`` is the fused N x N matrix in [0, 1] (symmetric, zero
    diagonal), ``measure`` the length-N probability vector, ``alpha``
    the fusion weights, and ``fingerprint`` the fingerprint of the
    embedding provider whose rows gave the semantic distance (None when
    the builder was given none).
    """

    elements: list[LectureElement]
    distance: np.ndarray
    measure: np.ndarray
    alpha: tuple[float, float, float]
    fingerprint: dict | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def contents(self) -> list[str]:
        return [e.content for e in self.elements]


def flatten(tree: Section) -> list[LectureElement]:
    """Flatten a section tree into ordered atomic units.

    Depth-first, document-order traversal; every content block becomes
    one element with idx assigned 0..N-1 in emission order. The
    section_path is the chain of heading titles; units before any
    heading get the single-element path ("<root>",).

    Raises InputError("no atomic units") if nothing survives.
    """
    out: list[LectureElement] = []

    def walk(section: Section, path: tuple[str, ...]) -> None:
        if section.level == 0:
            here = path
        else:
            here = path + (section.title,)
        for block in section.blocks:
            content = block.text.strip()
            if len(content) < MIN_UNIT_CHARS:
                continue
            idx = len(out)
            out.append(
                LectureElement(
                    id=f"u{idx}",
                    idx=idx,
                    section_path=here if here else (ROOT_TITLE,),
                    content=content,
                )
            )
        for child in section.children:
            walk(child, here)

    walk(tree, ())
    if not out:
        raise InputError("no atomic units")
    return out


def chron_distance(elements: list[LectureElement]) -> np.ndarray:
    """Narrative separation along lecture order: |idx_i - idx_j| / max idx."""
    n = len(elements)
    if n == 1:
        return np.zeros((1, 1))
    idx = np.array([e.idx for e in elements], dtype=np.float64)
    out = np.subtract.outer(idx, idx)
    np.abs(out, out=out)
    out /= idx.max()
    return out


def logic_distance(elements: list[LectureElement]) -> np.ndarray:
    """Section-hierarchy separation: 1 - LCP(path_i, path_j) / max_depth.

    The diagonal is 1 - |path_i| / max_depth, nonzero for non-maximal
    paths; it is irrelevant downstream because the fused matrix forces a
    zero diagonal. Beyond the output, it holds one N x N boolean buffer
    and one prefix code per unit.
    """
    paths = [e.section_path for e in elements]
    n = len(paths)
    max_depth = max(len(p) for p in paths)
    # the paths share their first k entries iff their length-k prefixes are
    # equal, so the LCP is the count of depths with equal prefix codes; a
    # path shorter than k has a code of its own, -1 - i, which equals no
    # other unit's, so only the diagonal counts it and is set afterwards
    codes: dict[tuple[str, ...], int] = {}
    out = np.zeros((n, n))
    equal = np.empty((n, n), dtype=bool)
    for k in range(1, max_depth + 1):
        code = np.array(
            [codes.setdefault(p[:k], len(codes)) if len(p) >= k else -1 - i
             for i, p in enumerate(paths)]
        )
        np.equal(code[:, None], code[None, :], out=equal)
        out += equal
    np.fill_diagonal(out, [len(p) for p in paths])
    out /= max_depth
    return np.subtract(1.0, out, out=out)


def minmax_normalize(matrix: np.ndarray) -> np.ndarray:
    """Min-max normalize over off-diagonal entries; diagonal forced to 0.

    A constant matrix (max == min) maps to all zeros: constant distance
    carries no information, and zero is neutral under fusion.
    """
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if n <= 1:
        return np.zeros_like(m)
    # the off-diagonal entries, as a view: each diagonal entry ends a row
    # of n + 1 in the flat matrix after its first entry
    off = m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    lo = off.min()
    hi = off.max()
    if not hi > lo:
        return np.zeros_like(m)
    out = np.subtract(m, lo)
    out /= hi - lo
    np.fill_diagonal(out, 0.0)
    return out


def fuse(name: str, weights, components: list[np.ndarray]) -> np.ndarray:
    """The fusion rule of both spaces: a convex combination of normalized
    component distances, then off-diagonal min-max normalization.

    ``weights`` must pass ``check_weights`` (``name`` names them in the
    error); the diagonal of the result is exactly 0.
    """
    w = check_weights(name, weights, len(components))
    fused = w[0] * components[0]
    term = np.empty_like(fused)
    for weight, component in zip(w[1:], components[1:]):
        np.multiply(weight, component, out=term)
        fused += term
    return minmax_normalize(fused)


def check_weights(name: str, weights, n: int) -> np.ndarray:
    """The fusion-weight rule: ``n`` nonnegative weights summing to 1.

    Returns the weights as an array; raises InputError naming ``name``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or (w < 0).any() or abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise InputError(f"invalid weights: {name} must be nonnegative and sum to 1")
    return w


def uniform_measure(n: int) -> np.ndarray:
    """Uniform probability vector of length n."""
    if n < 1:
        raise InputError("measure requires at least one element")
    return np.full(n, 1.0 / n)


def build_lecture_space(
    text: str,
    embed,
    alpha: tuple[float, float, float] = DEFAULT_ALPHA,
    fingerprint: dict | None = None,
) -> LectureSpace:
    """Parse Markdown text and assemble the full lecture space.

    The unit contents are embedded with ``embed`` (an embedding
    provider's ``embed`` method), each distinct content once;
    ``fingerprint`` is that provider's fingerprint, stamped on the space.
    """
    elements = flatten(parse_markdown(text))
    embeddings = embed_distinct(embed, [e.content for e in elements])
    if embeddings.shape[0] != len(elements):
        raise InputError(
            f"embedding rows ({embeddings.shape[0]}) != unit count ({len(elements)})"
        )
    d = fuse("alpha", alpha, [
        chron_distance(elements),
        logic_distance(elements),
        minmax_normalize(self_cost(embeddings)),
    ])
    return LectureSpace(
        elements=elements,
        distance=d,
        measure=uniform_measure(len(elements)),
        alpha=tuple(float(x) for x in alpha),
        fingerprint=fingerprint,
    )


def check_space(space: LectureSpace, name: str) -> None:
    """The lecture space's contract, shared by the writer and the reader.

    ``distance`` is an N x N matrix, N the unit count, finite, exactly
    symmetric (bit for bit), with a zero diagonal and entries in [0, 1];
    ``measure`` is a finite, strictly positive length-N vector summing to
    1. Raises InputError naming ``name`` for the first rule broken.
    """
    d = np.asarray(space.distance, dtype=np.float64)
    mu = np.asarray(space.measure, dtype=np.float64)
    n = len(space.elements)
    if d.shape != (n, n) or mu.shape != (n,):
        raise InputError(f"{name} has inconsistent shapes")
    if not (np.isfinite(d).all() and np.isfinite(mu).all()):
        raise InputError(f"{name} has non-finite distances or measure")
    if not np.array_equal(d.view(np.int64), d.T.view(np.int64)):
        raise InputError(f"{name} has a distance matrix that is not exactly symmetric")
    if (np.diagonal(d) != 0.0).any():
        raise InputError(f"{name} has a nonzero diagonal distance")
    if (d < 0.0).any() or (d > 1.0).any():
        raise InputError(f"{name} has distances outside [0, 1]")
    if (mu <= 0.0).any() or abs(mu.sum() - 1.0) > _WEIGHT_TOL:
        raise InputError(f"{name} has a measure that is not a positive probability vector")


def save_lecture_space(space: LectureSpace, path: str | Path) -> None:
    """Write the lecture-space JSON artifact.

    Keys: ``format``, ``elements``, ``mu``, ``d``, and the stamp
    ``alpha`` and ``fingerprint``. The bytes are those of one compact
    ``orjson.dumps`` of the whole document: UTF-8 text, floats at their
    shortest round-trip digits so a reload is bit-exact (``repr``'s
    digits; values below 1e-4 are spelled without an exponent, e.g.
    ``0.00001``, and values from 1e16 up as ``1e16``). ``d`` is written
    _SAVE_ROWS rows per ``orjson.dumps``, each call's outer brackets
    dropped, so the whole document is never held as one buffer: beyond
    the space, it holds the serialized elements and ``mu``, and one call's
    bytes.

    Raises InputError, writing nothing, for a space that breaks
    ``check_space``.
    """
    check_space(space, "lecture space")
    head = orjson.dumps({
        "format": ARTIFACT_FORMAT,
        "elements": [
            {
                "id": e.id,
                "idx": e.idx,
                "path": list(e.section_path),
                "content": e.content,
            }
            for e in space.elements
        ],
        "mu": np.ascontiguousarray(space.measure, dtype=np.float64),
    }, option=orjson.OPT_SERIALIZE_NUMPY)
    tail = orjson.dumps({"alpha": list(space.alpha), "fingerprint": space.fingerprint})
    d = np.ascontiguousarray(space.distance, dtype=np.float64)
    with Path(path).open("wb") as out:
        out.write(head[:-1] + b',"d":[')
        for i in range(0, len(d), _SAVE_ROWS):
            if i:
                out.write(b",")
            rows = orjson.dumps(d[i : i + _SAVE_ROWS], option=orjson.OPT_SERIALIZE_NUMPY)
            out.write(memoryview(rows)[1:-1])  # the rows without the block's brackets
        out.write(b"]," + tail[1:])


def load_lecture_space(path: str | Path) -> LectureSpace:
    """Load a lecture-space artifact written by save_lecture_space.

    Each field is read by ``errors.pop_field``: ``format`` an integer,
    each element's ``id`` and ``content`` strings, ``idx`` an integer and
    ``path`` a list of strings, ``alpha`` and ``mu`` lists of numbers,
    ``fingerprint`` an object or null, ``d`` a list. A ``format`` or
    ``idx`` outside [-2**63, 2**64 - 1] is refused and quoted as written:
    orjson reads such an integer as a float, so the fields of a refused
    file are read again from the stdlib's parse. Raises InputError for a
    file that is not UTF-8 or not JSON, a file of another ``format``, a
    missing or mistyped field, a ragged or non-numeric ``d`` (its entries
    are not type-checked one by one: ``true`` reads as 1.0), and a space
    that breaks ``check_space`` (non-finite, asymmetric or out-of-range
    distances, a nonzero diagonal, a measure that is not a positive
    probability vector).
    """
    name = f"lecture artifact {path}"
    doc = _parse(read_utf8(path, name), name)  # the text is freed before d is built
    try:
        elements, distance, measure, alpha, fingerprint = _fields(doc)
    except InputError as exc:
        try:  # the stdlib keeps an integer orjson read as a float as written
            _fields(json.loads(read_utf8(path, name)))
        except InputError as written:
            exc = written
        raise InputError(f"{name}: {exc}") from exc
    try:
        space = LectureSpace(
            elements=elements,
            distance=np.asarray(distance, dtype=np.float64),
            measure=np.asarray(measure, dtype=np.float64),
            alpha=alpha,
            fingerprint=fingerprint,
        )
    except (TypeError, ValueError) as exc:  # a ragged or non-numeric matrix or vector
        raise InputError(f"{name} has a malformed field: {exc}") from exc
    check_space(space, name)
    return space


def _fields(doc):
    """The artifact's elements, ``d``, ``mu``, ``alpha`` and fingerprint;
    raises InputError for a missing or mistyped field."""
    check_json("the document", doc, dict)
    version = _int64("format", pop_field(doc, "format", int, 1))
    if version != ARTIFACT_FORMAT:
        raise InputError(f"the file has format {version}, this version reads "
                         f"format {ARTIFACT_FORMAT}; re-ingest the lecture")
    elements = [_element_from_dict(i, raw)
                for i, raw in enumerate(pop_field(doc, "elements", list))]
    distance = pop_field(doc, "d", list)
    measure = pop_field(doc, "mu", list[float])
    alpha = tuple(float(x) for x in pop_field(doc, "alpha", list[float]))
    fingerprint = pop_field(doc, "fingerprint", dict | None, None)
    return elements, distance, measure, alpha, fingerprint


def _int64(key: str, value: int) -> int:
    """``value``; raises InputError naming ``key`` if it lies outside
    ``INT_RANGE``, [-2**63, 2**64 - 1]."""
    if not INT_RANGE[0] <= value <= INT_RANGE[1]:
        raise InputError(f"{key} {value} lies outside [-2**63, 2**64 - 1]")
    return value


def _parse(text: str, name: str):
    try:
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            # NaN and Infinity literals, numbers beyond a float and lone
            # surrogates: the stdlib reads them for the checks to refuse,
            # or refuses the text with its own message
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {name}: {exc}") from exc


def _element_from_dict(i: int, raw) -> LectureElement:
    where = f"element {i}"
    check_json(where, raw, dict)
    try:
        return LectureElement(
            id=pop_field(raw, "id", str),
            idx=_int64("idx", pop_field(raw, "idx", int)),
            section_path=tuple(pop_field(raw, "path", list[str])),
            content=pop_field(raw, "content", str),
        )
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc

"""Text embedding providers and the shared cosine-distance kernel.

Three interchangeable providers:

* HashEmbedder: offline fallback, lowercase word tokens hashed into a
  signed bag-of-words vector. Fully deterministic (SHA-256 based, no
  process-dependent hashing), so the whole pipeline runs reproducibly
  without network access.
* FileEmbedder: vectors precomputed elsewhere, keyed by the SHA-256 of
  the exact input text.
* HttpEmbedder: a POST endpoint speaking {model, inputs} -> {embeddings},
  with batching and retries.

Each provider has a ``fingerprint``: the settings that decide its rows.
``CostMemo`` is a command's one text cache, so each node text is
embedded and costed once. All distance computations normalize rows on
the fly; stored embeddings stay raw.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import InputError, ProviderError, check_json, pop_field

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

T = TypeVar("T")

#: Environment variable holding the embedding endpoint API key (never logged).
API_KEY_ENV = "EMBEDDINGS_API_KEY"

DEFAULT_EMBED_DIM = 256  # HashEmbedder vector length
DEFAULT_EMBED_SEED = 0  # HashEmbedder token-hash seed
DEFAULT_EMBED_TIMEOUT = 30.0  # HttpEmbedder request timeout, seconds
DEFAULT_EMBED_RETRIES = 2  # HttpEmbedder retries after a failed request
#: The embedding provider kinds that provider_from_config builds.
PROVIDER_KINDS = ("hash", "file", "http")


def word_tokens(text: str) -> list[str]:
    """The word tokens of a text: its runs of [a-z0-9_] once lowercased."""
    return _TOKEN_RE.findall(text.lower())


def content_hash(text: str) -> str:
    """Lowercase-hex SHA-256 of the exact input text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class HashEmbedder:
    """Deterministic signed bag-of-words hashing embedder.

    Each lowercase token is mapped by SHA-256(seed:token) to one
    coordinate and a sign; token counts accumulate. Texts without any
    word token fall back to a single pseudo-token derived from the raw
    text so no row is ever zero. Each instance hashes a distinct token
    once and keeps its slot.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, seed: int = DEFAULT_EMBED_SEED):
        check_dim(dim)
        self.dim = dim
        self.seed = seed
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, tok: str) -> tuple[int, float]:
        """The (coordinate, sign) of one token."""
        slot = self._slots.get(tok)
        if slot is None:
            digest = hashlib.sha256(f"{self.seed}:{tok}".encode()).digest()
            slot = (int.from_bytes(digest[:4], "big") % self.dim,
                    1.0 if digest[4] % 2 == 0 else -1.0)
            self._slots[tok] = slot
        return slot

    @property
    def fingerprint(self) -> dict:
        return {"kind": "hash", "dim": self.dim, "seed": self.seed}

    def embed(self, texts: list[str]) -> np.ndarray:
        """One row per text. Each token's sign is added at its row's flat
        slot by one bincount over the call; the sums are of +-1.0, exact
        in any order, so the rows equal a per-token loop's."""
        if not texts:
            raise InputError("no texts to embed")
        slots: list[int] = []
        signs: list[float] = []
        for row, text in enumerate(texts):
            if not text:
                raise InputError("cannot embed empty text")
            base = row * self.dim
            for tok in word_tokens(text) or ["raw:" + content_hash(text)]:
                coord, sign = self._slot(tok)
                slots.append(base + coord)
                signs.append(sign)
        out = np.bincount(slots, weights=signs, minlength=len(texts) * self.dim)
        out = out.reshape(len(texts), self.dim)
        for row in np.flatnonzero(~out.any(axis=1)):
            # Sign cancellations across duplicate-coordinate tokens are
            # possible in principle; perturb deterministically.
            digest = hashlib.sha256(texts[row].encode("utf-8")).digest()
            out[row, int.from_bytes(digest[:4], "big") % self.dim] = 1.0
        return out


class FileEmbedder:
    """Provider backed by a precomputed-embeddings JSON file.

    File format: {"dim": d, "keys": [content-hash, ...],
    "vectors": [[...], ...]} with keys[i] the SHA-256 of the exact text
    vectors[i] embeds. The fingerprint names the file by the SHA-256 of
    its bytes.
    """

    def __init__(self, path: str | Path):
        try:
            raw = Path(path).read_bytes()
            doc = json.loads(raw.decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read embeddings file {path}: {exc}") from exc
        try:
            check_json("the document", doc, dict)
            self.dim = pop_field(doc, "dim", int)
            keys = pop_field(doc, "keys", list[str])
            vectors = pop_field(doc, "vectors", list)
        except InputError as exc:
            raise InputError(f"embeddings file {path}: {exc}") from exc
        if len(keys) != len(vectors):
            raise InputError("embeddings file: keys/vectors count mismatch")
        self.sha256 = hashlib.sha256(raw).hexdigest()
        self._table: dict[str, np.ndarray] = {}
        for key, vec in zip(keys, vectors):
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"embeddings file {path}: non-numeric vector for key {key[:12]}"
                ) from exc
            if not np.isfinite(arr).all():
                raise InputError(
                    f"embeddings file {path}: non-finite vector for key {key[:12]}"
                )
            if arr.shape != (self.dim,):
                raise InputError(
                    f"embeddings file: dimension mismatch for key {key[:12]}"
                )
            self._table[key] = arr

    @property
    def fingerprint(self) -> dict:
        return {"kind": "file", "dim": self.dim, "sha256": self.sha256}

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise InputError("no texts to embed")
        rows = []
        for text in texts:
            key = content_hash(text)
            if key not in self._table:
                raise InputError(
                    f"embeddings file: dimension/count mismatch, no vector for "
                    f"text hash {key[:12]}"
                )
            rows.append(self._table[key])
        return np.stack(rows)


class HttpEmbedder:
    """Provider calling a remote embedding endpoint.

    Wire contract: POST {"model": ..., "inputs": [text, ...]} returning
    {"embeddings": [[...], ...]}, batched at 64 texts per request, with
    retries and exponential backoff. Every text given is sent, repeats
    included. A reply whose vectors are not one numeric matrix raises
    ProviderError.
    """

    BATCH = 64

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout: float = DEFAULT_EMBED_TIMEOUT,
        retries: int = DEFAULT_EMBED_RETRIES,
        transport=None,
    ):
        check_request_settings(timeout, retries)
        self.base_url = base_url
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self._transport = transport or post_json

    @property
    def fingerprint(self) -> dict:
        # the URL is where the model is served, not what it computes
        return {"kind": "http", "model": self.model}

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise InputError("no texts to embed")
        headers = json_headers(API_KEY_ENV)
        rows: list = []
        for start in range(0, len(texts), self.BATCH):
            batch = texts[start : start + self.BATCH]
            payload = {"model": self.model, "inputs": batch}
            vectors = request_with_retries(
                lambda: self._transport(self.base_url, payload, headers, self.timeout),
                lambda reply: list(reply["embeddings"]),
                self.retries,
                "embedding",
            )
            if len(vectors) != len(batch):
                raise ProviderError(
                    f"embedding endpoint returned {len(vectors)} vectors "
                    f"for {len(batch)} inputs"
                )
            rows.extend(vectors)
        try:
            return np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric vectors
            raise ProviderError(f"embedding endpoint returned malformed vectors: {exc}") from exc


def embed_distinct(embed: Callable[[list[str]], np.ndarray], texts: list[str]) -> np.ndarray:
    """``embed(texts)``, sending each distinct text of ``texts`` once.

    No provider's row for a text depends on the other texts of its
    batch, so the result is exactly what ``embed(texts)`` returns.
    """
    distinct = list(dict.fromkeys(texts))
    if len(distinct) == len(texts):
        return embed(texts)
    rows = dict(zip(distinct, embed(distinct)))
    return np.stack([rows[text] for text in texts])


def check_dim(dim: int) -> None:
    """The embedding-dimension rule: at least 1."""
    if dim < 1:
        raise InputError("embedding dimension must be positive")


def check_provider(kind: str, embed_url: str | None, embeddings_file: str | None) -> None:
    """The provider rule: ``kind`` is one of PROVIDER_KINDS, ``http`` has an
    ``embed_url`` and ``file`` an ``embeddings_file``."""
    if kind not in PROVIDER_KINDS:
        raise InputError(f"unknown embedding provider kind: {kind!r}")
    if kind == "http" and not embed_url:
        raise InputError("embed_provider=http requires embed_url")
    if kind == "file" and not embeddings_file:
        raise InputError("embed_provider=file requires embeddings_file")


def check_request_settings(timeout: float, retries: int, prefix: str = "") -> None:
    """The rule for an endpoint's request settings: a positive timeout and
    a nonnegative retry count. ``prefix`` leads the names in the message."""
    if timeout <= 0:
        raise InputError(f"{prefix}timeout must be positive")
    if retries < 0:
        raise InputError(f"{prefix}retries must be nonnegative")


def json_headers(key_env: str) -> dict:
    """JSON request headers, with a bearer token when the environment
    variable ``key_env`` holds an API key."""
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


def post_json(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON and decode the JSON reply."""
    # Imported here: urllib.request pulls in http.client, ssl and email,
    # which only the HTTP providers need.
    import urllib.request

    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:  # noqa: S310
        return json.loads(resp.read().decode("utf-8"))


def request_with_retries(
    send: Callable[[], dict], parse: Callable[[dict], T], retries: int, what: str
) -> T:
    """``parse(send())`` from the first attempt in which neither raises.

    Makes ``retries + 1`` attempts, logs a warning for each failed one
    and sleeps 0.5 * 2**k s after failed attempt k unless it was the
    last; then raises ProviderError naming the ``what`` provider.
    """
    last_error = None
    for attempt in range(retries + 1):
        try:
            return parse(send())
        except Exception as exc:  # noqa: BLE001 - provider boundary
            last_error = exc
            logger.warning("%s request failed (attempt %d): %s", what, attempt + 1, exc)
            if attempt < retries:
                time.sleep(2.0**attempt * 0.5)
    raise ProviderError(f"{what} provider unavailable: {last_error}")


def provider_from_config(cfg) -> HashEmbedder | FileEmbedder | HttpEmbedder:
    """Build a provider from a RunConfig, whose settings passed
    ``check_provider``."""
    if cfg.embed_provider == "hash":
        return HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed)
    if cfg.embed_provider == "file":
        return FileEmbedder(cfg.embeddings_file)
    return HttpEmbedder(
        base_url=cfg.embed_url,
        model=cfg.embed_model,
        timeout=cfg.embed_timeout,
        retries=cfg.embed_retries,
    )


#: Rows per tile of ``feature_cost``'s Gram product. Replaying the
#: feature_cost calls of one seed-1 round of each benchmark workload (d =
#: 256, one OpenBLAS thread, 2-vCPU AVX-512 Xeon; medians of 20
#: interleaved replays), tiles of 8, 16 and 32 rows took 3.5, 4.0 and 5.0
#: ms on short-lectures, 8.7, 8.4 and 8.8 ms on long-lecture and 6.8, 7.1
#: and 7.4 ms on rd-sweep, against 4.1, 20.0 and 10.7 ms for np.einsum's
#: loop. Larger tiles pad small calls more.
_TILE = 8


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of ``matrix`` scaled to unit length, followed by zero rows
    up to a whole number of _TILE-row tiles."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise InputError("embedding matrix must be 2-dimensional")
    out = np.empty((-(-len(m) // _TILE) * _TILE, m.shape[1]))
    rows = out[: len(m)]
    # np.linalg.norm(m, axis=1), with the squares in the output's rows
    norms = np.sqrt(np.add.reduce(np.multiply(m, m, out=rows), axis=1))
    if not (np.isfinite(norms).all() and norms.all()):
        # a non-finite entry makes its row's norm non-finite; a finite row's
        # norm can overflow, so only then are the entries read
        if not np.isfinite(m).all():
            raise InputError("embedding matrix has non-finite entries")
        if not norms.all():
            raise InputError("degenerate embedding: zero-norm row")
    np.divide(m, norms[:, None], out=rows)
    out[len(m) :] = 0.0
    return out


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` for two tiled unit-row buffers, one BLAS product of a
    (_TILE, d) tile of ``a`` and a (d, _TILE) tile of ``b`` per block of
    the result.

    Every entry comes from a call of the same shape, wherever its two rows
    sit, so it depends only on those two rows. The tiles of ``b`` are
    copied into contiguous (d, _TILE) columns, so the two operands are
    never one buffer (for that numpy calls ``syrk``, whose entries differ
    in the last bit) and each call multiplies two untransposed matrices:
    on an AVX-512 Xeon, OpenBLAS's kernel for a transposed operand slowed
    a loop of small numpy calls run right after a 40 x 40 product by 13
    to 22%, and this one by nothing measurable.
    """
    d = a.shape[1]
    p, q = len(a) // _TILE, len(b) // _TILE
    columns = b.reshape(1, q, _TILE, d).transpose(0, 1, 3, 2).copy()
    gram = np.empty((len(a), len(b)))
    np.matmul(
        a.reshape(p, 1, _TILE, d),
        columns,
        out=gram.reshape(p, _TILE, q, _TILE).transpose(0, 2, 1, 3),
    )
    return gram


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """clip(1 - cos(u, v), 0, 2), exactly 0 for identical vectors.

    Computed as half the squared distance of the unit vectors, which is
    algebraically identical to 1 - cos and floating-point-exact at 0, in
    ``np.longdouble``: where that is x87 extended precision (x86-64
    Linux), the 11 extra bits keep the sums' rounding far below the final
    rounding to a float at any dimension, so the result is within about
    half an ulp of exact arithmetic. It is the scalar reference that
    tests and CI compare ``feature_cost`` against; no decision of the
    program reads it.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise InputError("cosine_distance: length mismatch")
    u = u.astype(np.longdouble)
    v = v.astype(np.longdouble)
    nu = np.sqrt(np.sum(u * u))
    nv = np.sqrt(np.sum(v * v))
    if nu == 0 or nv == 0:
        raise InputError("degenerate embedding: zero-norm vector")
    diff = u / nu - v / nv
    return float(np.clip(0.5 * np.sum(diff * diff), 0.0, 2.0))


#: Entries of ``1 - a.b`` below this are costed again as ``0.5 * |a - b|^2``.
_RECOST_BELOW = 1e-8


def feature_cost(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise cosine-distance cost matrix between two embedding sets.

    Entry (i, j) is clip(1 - cos(source_i, target_j), 0, 2). This is an
    absolute cost (never re-normalized) consumed by the transport
    objective and by coverage.

    The kernel is ``1 - a_i . b_j`` over the unit rows. The dot products
    come from BLAS products of one fixed shape (``_gram``): the unit rows
    are written into zero-padded buffers of whole _TILE-row tiles, and
    each block of the product is one (_TILE, d) by (d, _TILE) call. A
    BLAS product of the whole matrices is not used: its entries can
    change in the last bit with the shape of the call. Near 0, ``1 -
    a.b`` is not exactly 0 for identical rows and loses its relative
    accuracy, so each entry below _RECOST_BELOW is costed again as half
    the squared distance of the unit rows: exactly 0 for identical rows,
    accurate for near-duplicates. The product, the test and the recost
    read only the entry's two rows, so an entry depends on nothing else
    in the call (not the other rows, not their order or position), and
    ``feature_cost(b, a)`` is ``feature_cost(a, b).T`` bit for bit. The
    result is C-contiguous. Beyond the output, it holds the two padded
    unit-row copies, the column copy of the target's tiles, the padded
    product until the output is taken from it and, for the entries
    recosted, their indices and their row differences, len(target) pairs
    at a time (so many duplicates cannot make the differences larger
    than a few copies of the target rows).
    """
    a = _unit_rows(source)
    b = _unit_rows(target)
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"feature_cost: dimension mismatch ({a.shape[1]} vs {b.shape[1]})"
        )
    n, m = len(source), len(target)
    out = np.subtract(1.0, _gram(a, b)[:n, :m])
    near = np.flatnonzero(out < _RECOST_BELOW)
    step = max(m, 1)
    for k in range(0, near.size, step):
        i, j = np.divmod(near[k : k + step], m)
        diff = a[i] - b[j]
        out[i, j] = 0.5 * np.einsum("ij,ij->i", diff, diff)
    np.clip(out, 0.0, 2.0, out=out)
    return out


def self_cost(rows: np.ndarray, start: int = 0, block: int = 64) -> np.ndarray:
    """Rows ``start:`` of ``feature_cost(rows, rows)``, costing one half.

    Each block of rows is the target of one ``feature_cost`` call whose
    source is the rows up to the block's end. That column block holds the
    block's rows on and below the diagonal (transposed) and, above the
    diagonal, the earlier rows' entries in the block's columns. The block
    is the target because ``feature_cost`` copies its target's tiles. An
    entry of ``feature_cost`` depends only on its two rows, not on the
    other rows of the call nor on their order or position in its tiles,
    and ``feature_cost(b, a)`` is ``feature_cost(a, b).T``, so every entry
    is bit-equal to the full matrix's. Beyond the output, it holds one
    block's padded unit-row copies, product and cost columns.
    """
    n = len(rows)
    out = np.empty((n - start, n))
    for i0 in range(start, n, block):
        i1 = min(i0 + block, n)
        cost = feature_cost(rows[:i1], rows[i0:i1])
        out[i0 - start : i1 - start, :i1] = cost.T
        out[: i0 - start, i0:i1] = cost[start:i0]
    return out


class CostMemo:
    """One command's text cache: each node text embedded and costed once.

    Embeds each distinct lecture unit once (``unit_rows``) and keeps, for
    every node text seen so far, its row, its column of costs against the
    units and its costs against the other texts seen. A new text is
    embedded and costed through ``feature_cost``: against the units, and
    against the known texts plus itself (``self_cost``). Every cost read
    from the memo is bit-equal to the entry of a full ``feature_cost``
    matrix.
    """

    def __init__(self, embed: Callable[[list[str]], np.ndarray], units: list[str]):
        self._embed = embed
        self.unit_rows = embed_distinct(embed, units)
        self._index: dict[str, int] = {}
        self._rows = self.unit_rows[:0]
        self._unit_cost = np.empty((len(self.unit_rows), 0))
        self._pair_cost = np.empty((0, 0))

    def unit_cost(self, texts: list[str]) -> np.ndarray:
        """N x len(texts): ``feature_cost(unit_rows, embed(texts))``, row-major."""
        columns = self._columns(texts)  # before reading _unit_cost, which it extends
        return self._unit_cost.take(columns, axis=1)

    def pair_cost(self, texts: list[str]) -> np.ndarray:
        """``feature_cost(rows, rows)`` over the rows of ``texts``."""
        columns = self._columns(texts)
        return self._pair_cost[np.ix_(columns, columns)]

    def _columns(self, texts: list[str]) -> list[int]:
        new = [t for t in dict.fromkeys(texts) if t not in self._index]
        if new:
            known = len(self._index)
            rows = self._embed(new)
            self._unit_cost = np.hstack(
                [self._unit_cost, feature_cost(self.unit_rows, rows)]
            )
            self._rows = np.vstack([self._rows, rows])
            block = self_cost(self._rows, start=known)
            pair = np.empty((len(self._rows), len(self._rows)))
            pair[:known, :known] = self._pair_cost
            pair[known:] = block
            pair[:known, known:] = block[:, :known].T
            self._pair_cost = pair
            self._index.update((t, known + k) for k, t in enumerate(new))
        return [self._index[t] for t in texts]

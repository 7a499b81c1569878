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
``memoized`` puts a text -> row cache in front of any provider; every
command embeds through one such cache. ``CostMemo`` holds one command's
feature costs, so each node text is costed once. All distance
computations normalize rows on the fly; stored embeddings stay raw.
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

from .errors import InputError, ProviderError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

T = TypeVar("T")

#: Environment variable holding the embedding endpoint API key (never logged).
API_KEY_ENV = "EMBEDDINGS_API_KEY"

DEFAULT_EMBED_DIM = 256  # HashEmbedder vector length
DEFAULT_EMBED_SEED = 0  # HashEmbedder token-hash seed
DEFAULT_EMBED_TIMEOUT = 30.0  # HttpEmbedder request timeout, seconds
DEFAULT_EMBED_RETRIES = 2  # HttpEmbedder retries after a failed request


def content_hash(text: str) -> str:
    """Lowercase-hex SHA-256 of the exact input text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class HashEmbedder:
    """Deterministic signed bag-of-words hashing embedder.

    Each lowercase token is mapped by SHA-256(seed:token) to one
    coordinate and a sign; token counts accumulate. Texts without any
    word token fall back to a single pseudo-token derived from the raw
    text so no row is ever zero.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, seed: int = DEFAULT_EMBED_SEED):
        check_dim(dim)
        self.dim = dim
        self.seed = seed

    @property
    def fingerprint(self) -> dict:
        return {"kind": "hash", "dim": self.dim, "seed": self.seed}

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise InputError("no texts to embed")
        out = np.zeros((len(texts), self.dim))
        for row, text in enumerate(texts):
            if not text:
                raise InputError("cannot embed empty text")
            tokens = _TOKEN_RE.findall(text.lower())
            if not tokens:
                tokens = ["raw:" + content_hash(text)]
            for tok in tokens:
                digest = hashlib.sha256(f"{self.seed}:{tok}".encode()).digest()
                coord = int.from_bytes(digest[:4], "big") % self.dim
                sign = 1.0 if digest[4] % 2 == 0 else -1.0
                out[row, coord] += sign
            if not out[row].any():
                # Sign cancellations across duplicate-coordinate tokens are
                # possible in principle; perturb deterministically.
                digest = hashlib.sha256(text.encode("utf-8")).digest()
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
            self.dim = int(doc["dim"])
            keys = doc["keys"]
            vectors = doc["vectors"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"embeddings file {path} missing field: {exc}") from exc
        if len(keys) != len(vectors):
            raise InputError("embeddings file: keys/vectors count mismatch")
        self.sha256 = hashlib.sha256(raw).hexdigest()
        self._table: dict[str, np.ndarray] = {}
        for key, vec in zip(keys, vectors):
            arr = np.asarray(vec, dtype=np.float64)
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
    retries and exponential backoff. Every text given is sent; wrap the
    provider in ``memoized`` to send each distinct text once. A reply
    whose vectors are not one numeric matrix raises ProviderError.
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


def memoized(embed: Callable[[list[str]], np.ndarray]) -> Callable[[list[str]], np.ndarray]:
    """``embed`` behind a text -> row memo: each distinct text is embedded once.

    No provider's row for a text depends on the other texts of its
    batch, so the memo returns exactly what ``embed`` would.
    """
    rows: dict[str, np.ndarray] = {}

    def memo_embed(texts: list[str]) -> np.ndarray:
        if not texts:
            return embed(texts)  # the provider's own error
        missing = list(dict.fromkeys(t for t in texts if t not in rows))
        if missing:
            rows.update(zip(missing, embed(missing)))
        return np.stack([rows[t] for t in texts])

    return memo_embed


def check_dim(dim: int) -> None:
    """The embedding-dimension rule: at least 1."""
    if dim < 1:
        raise InputError("embedding dimension must be positive")


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
    """Build a provider from a RunConfig-style object.

    Accepts both the short kind names and their descriptive aliases
    (deterministic-hash, precomputed-file, http-endpoint).
    """
    kind = {"deterministic-hash": "hash", "precomputed-file": "file",
            "http-endpoint": "http"}.get(cfg.embed_provider, cfg.embed_provider)
    if kind == "hash":
        return HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed)
    if kind == "file":
        if not cfg.embeddings_file:
            raise InputError("embed_provider=file requires embeddings_file")
        return FileEmbedder(cfg.embeddings_file)
    if kind == "http":
        if not cfg.embed_url:
            raise InputError("embed_provider=http requires embed_url")
        return HttpEmbedder(
            base_url=cfg.embed_url,
            model=cfg.embed_model,
            timeout=cfg.embed_timeout,
            retries=cfg.embed_retries,
        )
    raise InputError(f"unknown embedding provider kind: {cfg.embed_provider!r}")


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise InputError("embedding matrix must be 2-dimensional")
    if not np.isfinite(m).all():
        raise InputError("embedding matrix has non-finite entries")
    norms = np.linalg.norm(m, axis=1)
    if (norms == 0).any():
        raise InputError("degenerate embedding: zero-norm row")
    return m / norms[:, None]


#: Array kernels sum in another order than the scalar definitions they
#: replace. Values this close to a threshold or an extremum are re-decided
#: with the scalar definition, so every decision matches it exactly.
_TIE_TOL = 1e-9


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """clip(1 - cos(u, v), 0, 2), exactly 0 for identical vectors.

    Computed as half the squared distance of the unit vectors, which is
    algebraically identical to 1 - cos and floating-point-exact at 0.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise InputError("cosine_distance: length mismatch")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise InputError("degenerate embedding: zero-norm vector")
    diff = u / nu - v / nv
    return float(np.clip(0.5 * np.dot(diff, diff), 0.0, 2.0))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Plain cosine similarity in [-1, 1]."""
    return 1.0 - cosine_distance(u, v)


def feature_cost(
    source: np.ndarray, target: np.ndarray, block: int = 64
) -> np.ndarray:
    """Pairwise cosine-distance cost matrix between two embedding sets.

    Entry (i, j) is clip(1 - cos(source_i, target_j), 0, 2). This is an
    absolute cost (never re-normalized) consumed by the transport
    objective and by coverage. Identical rows give exact zeros. Row
    blocks bound the memory of the broadcasted difference tensor.
    """
    a = _unit_rows(source)
    b = _unit_rows(target)
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"feature_cost: dimension mismatch ({a.shape[1]} vs {b.shape[1]})"
        )
    out = np.empty((a.shape[0], b.shape[0]))
    for i0 in range(0, a.shape[0], block):
        diff = a[i0 : i0 + block, None, :] - b[None, :, :]
        out[i0 : i0 + block] = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    np.clip(out, 0.0, 2.0, out=out)
    return out


def self_cost(rows: np.ndarray, start: int = 0, block: int = 64) -> np.ndarray:
    """Rows ``start:`` of ``feature_cost(rows, rows)``, costing one half.

    Each block of rows is costed through ``feature_cost`` against the
    rows up to the block's end (the entries on and below the diagonal);
    the entries above it are mirrored. An entry of ``feature_cost``
    depends only on its two rows, not on the other rows of the call nor
    on their order, so every entry is bit-equal to the full matrix's.
    """
    n = len(rows)
    out = np.empty((n - start, n))
    for i0 in range(start, n, block):
        i1 = min(i0 + block, n)
        out[i0 - start : i1 - start, :i1] = feature_cost(rows[i0:i1], rows[:i1])
    square = out[:, start:]
    upper = np.triu_indices(n - start, 1)
    square[upper] = square.T[upper]
    return out


class CostMemo:
    """One command's feature costs, each node text costed once.

    Embeds the lecture ``units`` once (``unit_rows``) and keeps, for
    every node text seen so far, its column of costs against the units
    and its costs against the other texts seen. A text not seen before
    is costed through ``feature_cost``: against the units, and against
    the known texts plus itself (``self_cost``). Rows stay in the
    ``memoized`` cache behind ``embed``. Every cost read from the memo
    is bit-equal to the entry of a full ``feature_cost`` matrix.
    """

    def __init__(self, embed: Callable[[list[str]], np.ndarray], units: list[str]):
        self.embed = memoized(embed)
        self.unit_rows = self.embed(units)
        self._index: dict[str, int] = {}
        self._unit_cost = np.empty((len(self.unit_rows), 0))
        self._pair_cost = np.empty((0, 0))

    def unit_cost(self, texts: list[str]) -> np.ndarray:
        """N x len(texts): ``feature_cost(unit_rows, embed(texts))``."""
        columns = self._columns(texts)
        return self._unit_cost[:, columns]

    def pair_cost(self, texts: list[str]) -> np.ndarray:
        """``feature_cost(rows, rows)`` over the rows of ``texts``."""
        columns = self._columns(texts)
        return self._pair_cost[np.ix_(columns, columns)]

    def _columns(self, texts: list[str]) -> list[int]:
        new = [t for t in dict.fromkeys(texts) if t not in self._index]
        if new:
            known = len(self._index)
            rows = self.embed(list(self._index) + new)
            self._unit_cost = np.hstack(
                [self._unit_cost, feature_cost(self.unit_rows, rows[known:])]
            )
            block = self_cost(rows, start=known)
            pair = np.empty((len(rows), len(rows)))
            pair[:known, :known] = self._pair_cost
            pair[known:] = block
            pair[:known, known:] = block[:, :known].T
            self._pair_cost = pair
            self._index.update((t, known + k) for k, t in enumerate(new))
        return [self._index[t] for t in texts]

"""Embedding providers and the cosine kernel."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdkg
from rdkg import embeddings
from rdkg.config import RunConfig
from rdkg.embeddings import (
    _TILE,
    CostMemo,
    FileEmbedder,
    HashEmbedder,
    HttpEmbedder,
    content_hash,
    cosine_distance,
    embed_distinct,
    feature_cost,
    provider_from_config,
    self_cost,
)
from rdkg.errors import InputError, ProviderError
from rdkg.lecture import build_lecture_space


# --- hash provider -----------------------------------------------------------


def test_hash_provider_deterministic():
    p = HashEmbedder(dim=128, seed=0)
    a = p.embed(["same text", "same text"])
    assert np.array_equal(a[0], a[1])
    b = HashEmbedder(dim=128, seed=0).embed(["same text"])
    assert np.array_equal(a[0], b[0])


def test_hash_provider_seed_changes_output():
    t = ["some tokens here"]
    assert not np.array_equal(
        HashEmbedder(dim=128, seed=0).embed(t), HashEmbedder(dim=128, seed=1).embed(t)
    )


def test_hash_provider_no_duplicates_on_large_corpus():
    # prose-sized texts (10 tokens); 3-token snippets would be birthday-prone
    corpus = [
        " ".join(f"term{(i * 31 + j * 7) % 4099}" for j in range(9)) + f" unique{i}"
        for i in range(1000)
    ]
    rows = HashEmbedder(dim=64, seed=0).embed(corpus)
    assert len({row.tobytes() for row in rows}) == 1000


def test_hash_provider_nonzero_for_symbol_soup():
    rows = HashEmbedder(dim=64, seed=0).embed(["!!!", "???"])
    assert np.linalg.norm(rows, axis=1).min() > 0


def test_hash_provider_hashes_each_distinct_token_once(monkeypatch):
    texts = ["Alpha beta alpha", "beta GAMMA beta", "!!!", "!!!", "alpha"]
    tokens = [["alpha", "beta", "alpha"], ["beta", "gamma", "beta"],
              ["raw:" + content_hash("!!!")], ["raw:" + content_hash("!!!")], ["alpha"]]
    # the definition: each token adds the sign its own SHA-256(seed:token) picks
    expected = np.zeros((len(texts), 32))
    for row, toks in enumerate(tokens):
        for tok in toks:
            digest = hashlib.sha256(f"7:{tok}".encode()).digest()
            expected[row, int.from_bytes(digest[:4], "big") % 32] += (
                1.0 if digest[4] % 2 == 0 else -1.0)
    hashed = []
    sha256 = hashlib.sha256

    def counted(data=b""):
        hashed.append(bytes(data))
        return sha256(data)

    monkeypatch.setattr(embeddings.hashlib, "sha256", counted)
    provider = HashEmbedder(dim=32, seed=7)
    assert np.array_equal(provider.embed(texts), expected)
    assert np.array_equal(provider.embed(texts[::-1]), expected[::-1])
    token_hashes = sorted(h for h in hashed if h.startswith(b"7:"))
    assert token_hashes == sorted(f"7:{t}".encode() for t in {t for ts in tokens for t in ts})


def per_token_embed(provider, texts):
    """Oracle: HashEmbedder.embed as one numpy scalar addition per token."""
    out = np.zeros((len(texts), provider.dim))
    for row, text in enumerate(texts):
        for tok in embeddings.word_tokens(text) or ["raw:" + content_hash(text)]:
            coord, sign = provider._slot(tok)
            out[row, coord] += sign
        if not out[row].any():
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            out[row, int.from_bytes(digest[:4], "big") % provider.dim] = 1.0
    return out


@pytest.mark.parametrize("dim, texts", [
    (8, ["the cat saw the other cat", "a b a b a b a", "x"]),
    (64, ["Alpha beta ALPHA", "!!! ???", "alpha"]),
    # "one" and "two" share dim=1's one slot with opposite signs: the fallback row
    (1, ["one two", "one one two", "two"]),
])
def test_hash_provider_rows_equal_a_per_token_loop(dim, texts):
    provider = HashEmbedder(dim=dim)
    got = provider.embed(texts)
    assert got.tobytes() == per_token_embed(HashEmbedder(dim=dim), texts).tobytes()
    if dim == 1:
        assert provider._slot("one")[1] == -provider._slot("two")[1]
        assert got[0, 0] == 1.0


# --- file provider ------------------------------------------------------------


def _write_embedding_file(path, texts, dim=4):
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(len(texts), dim))
    doc = {
        "dim": dim,
        "keys": [content_hash(t) for t in texts],
        "vectors": vectors.tolist(),
    }
    path.write_text(json.dumps(doc))
    return vectors


def test_file_provider_returns_rows_in_order(tmp_path):
    texts = ["one", "two", "three"]
    path = tmp_path / "emb.json"
    vectors = _write_embedding_file(path, texts)
    out = FileEmbedder(path).embed(texts)
    assert np.allclose(out, vectors)


def test_file_provider_missing_text_is_error(tmp_path):
    path = tmp_path / "emb.json"
    _write_embedding_file(path, ["one", "two"])
    with pytest.raises(InputError, match="mismatch"):
        FileEmbedder(path).embed(["one", "two", "three"])


def test_file_provider_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.json"
    doc = {"dim": 3, "keys": [content_hash("x")], "vectors": [[1.0, 2.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="dimension mismatch"):
        FileEmbedder(path)


# --- http provider ---------------------------------------------------------------


def test_http_provider_wire_format():
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append((url, payload))
        return {"embeddings": [[1.0, float(len(t))] for t in payload["inputs"]]}

    p = HttpEmbedder("http://fake/embed", "test-model", transport=transport)
    out = p.embed(["alpha", "beta"])
    assert calls[0][0] == "http://fake/embed"
    assert calls[0][1] == {"model": "test-model", "inputs": ["alpha", "beta"]}
    assert out.shape == (2, 2)


def _recording_endpoint(sent: list):
    """An HttpEmbedder whose fake endpoint records each request's inputs
    and answers with the default hash provider's rows."""
    def transport(url, payload, headers, timeout):
        sent.append(list(payload["inputs"]))
        return {"embeddings": HashEmbedder().embed(payload["inputs"]).tolist()}

    return HttpEmbedder("http://fake", "m", transport=transport)


def test_memo_sends_each_text_to_the_http_endpoint_once():
    sent = []
    units = ["alpha unit", "beta unit", "alpha unit"]  # an in-batch duplicate
    memo = CostMemo(_recording_endpoint(sent).embed, units)
    assert sent == [["alpha unit", "beta unit"]]
    unit_rows = HashEmbedder().embed(units)
    assert np.array_equal(memo.unit_rows, unit_rows)
    memo.unit_cost(["gamma", "delta", "gamma"])
    assert sent[1:] == [["gamma", "delta"]]
    # repeated node texts trigger no further requests; only the new one is sent
    memo.pair_cost(["delta", "gamma"])
    memo.unit_cost(["gamma"])
    texts = ["epsilon", "delta", "epsilon"]
    rows = HashEmbedder().embed(texts)
    assert np.array_equal(memo.unit_cost(texts), feature_cost(unit_rows, rows))
    assert np.array_equal(memo.pair_cost(texts), feature_cost(rows, rows))
    assert sent[1:] == [["gamma", "delta"], ["epsilon"]]


def test_ingest_sends_each_distinct_unit_to_the_http_endpoint_once():
    sent = []
    text = "# A\n\nshared unit text\n\nfirst unit\n\n# B\n\nshared unit text\n\nsecond unit\n"
    space = build_lecture_space(text, embed=_recording_endpoint(sent).embed)
    assert space.contents() == ["shared unit text", "first unit", "shared unit text",
                                "second unit"]
    assert sent == [["shared unit text", "first unit", "second unit"]]
    reference = build_lecture_space(text, embed=HashEmbedder().embed)
    assert np.array_equal(space.distance, reference.distance)


def test_embed_distinct_matches_provider_and_embeds_each_text_once():
    provider = HashEmbedder(dim=32)
    calls = []

    def counted(texts):
        calls.append(list(texts))
        return provider.embed(texts)

    for texts in (["a b", "c", "a b"], ["c", "d e"], ["g", "g", "g"]):
        assert np.array_equal(embed_distinct(counted, texts), provider.embed(texts))
    assert calls == [["a b", "c"], ["c", "d e"], ["g"]]
    with pytest.raises(InputError):
        embed_distinct(counted, [])
    with pytest.raises(InputError):
        embed_distinct(counted, ["new", "", "new"])  # the provider's error for an empty text


def test_provider_fingerprints_use_the_canonical_kind(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"dim": 3, "keys": [], "vectors": []}))
    stamps = {
        kind: provider_from_config(RunConfig(
            embed_provider=kind, embed_dim=8, embed_seed=3, embeddings_file=str(path),
            embed_url="http://fake", embed_model="m")).fingerprint
        for kind in ("hash", "file", "http")
    }
    assert stamps["hash"] == {"kind": "hash", "dim": 8, "seed": 3}
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert stamps["file"] == {"kind": "file", "dim": 3, "sha256": digest}
    # the URL says where the model runs, not what it computes
    assert stamps["http"] == {"kind": "http", "model": "m"}


def test_http_provider_sends_api_key_header(monkeypatch):
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(headers)
        return {"embeddings": [[1.0] for _ in payload["inputs"]]}

    monkeypatch.setenv("EMBEDDINGS_API_KEY", "sekrit")
    HttpEmbedder("http://fake", "m", transport=transport).embed(["x"])
    assert seen.get("Authorization") == "Bearer sekrit"


def test_http_provider_batches_requests():
    sizes = []

    def transport(url, payload, headers, timeout):
        sizes.append(len(payload["inputs"]))
        return {"embeddings": [[1.0] for _ in payload["inputs"]]}

    p = HttpEmbedder("http://fake", "m", transport=transport)
    p.embed([f"text {i}" for i in range(130)])
    assert sizes == [64, 64, 2]


def test_http_provider_retries_then_fails(monkeypatch):
    attempts = []
    slept = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        raise OSError("connection refused")

    monkeypatch.setattr("rdkg.embeddings.time.sleep", slept.append)
    p = HttpEmbedder("http://fake", "m", retries=2, transport=transport)
    with pytest.raises(ProviderError, match="embedding provider unavailable"):
        p.embed(["x"])
    assert len(attempts) == 3  # initial + 2 retries
    assert slept == [0.5, 1.0]  # exponential backoff


def test_http_provider_recovers_after_transient_failure(monkeypatch):
    state = {"n": 0}

    def transport(url, payload, headers, timeout):
        state["n"] += 1
        if state["n"] == 1:
            raise OSError("flaky")
        return {"embeddings": [[2.0] for _ in payload["inputs"]]}

    monkeypatch.setattr("rdkg.embeddings.time.sleep", lambda s: None)
    out = HttpEmbedder("http://fake", "m", transport=transport).embed(["x"])
    assert out.tolist() == [[2.0]]


def test_importing_the_cli_leaves_the_http_stack_unloaded():
    # urllib.request brings http.client, ssl and email; only a request needs them
    src = str(Path(rdkg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, rdkg.cli; sys.exit('http.client' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "http.client was imported"


# --- cosine kernel ------------------------------------------------------------------


def test_cosine_trivial_values():
    assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_cosine_zero_norm_rejected():
    with pytest.raises(InputError, match="degenerate embedding"):
        cosine_distance([0.0, 0.0], [1.0, 0.0])


@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.floats(0.01, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_cosine_scale_invariance(u, v, scale):
    u, v = np.array(u), np.array(v)
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    assert cosine_distance(scale * u, v) == pytest.approx(
        cosine_distance(u, v), abs=1e-10
    )


def test_feature_cost_exact_zero_diagonal(rng):
    e = rng.normal(size=(7, 16))
    costs = feature_cost(e, e)
    assert np.array_equal(np.diag(costs), np.zeros(7))


def test_feature_cost_permutation_pattern():
    e = np.eye(3)
    costs = feature_cost(e, e[[1, 2, 0]])
    expected = np.ones((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 0.0
    assert np.allclose(costs, expected)


def test_feature_cost_antiparallel_single_pair():
    costs = feature_cost(np.array([[2.0, 0.0]]), np.array([[-3.0, 0.0]]))
    assert costs.tolist() == [[2.0]]


def test_feature_cost_dimension_mismatch():
    with pytest.raises(InputError, match="dimension mismatch"):
        feature_cost(np.ones((2, 3)), np.ones((2, 4)))


def _integers(u):
    """The floats of ``u`` as integers over one power-of-two scale."""
    ratios = [float(x).as_integer_ratio() for x in u]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _exact_cosine_distance(u, v):
    """1 - cos(u, v) from exact integer sums (the two scales cancel), with
    the square root and the quotient taken to 60 digits: the float nearest
    the exact value."""
    iu, iv = _integers(u), _integers(v)
    uu = sum(x * x for x in iu)
    vv = sum(y * y for y in iv)
    uv = sum(x * y for x, y in zip(iu, iv))
    with localcontext() as ctx:
        ctx.prec = 60
        return float(1 - Decimal(uv) / (Decimal(uu) * Decimal(vv)).sqrt())


def test_feature_cost_is_exact_at_0_and_2_and_accurate_near_0(rng):
    # the recost guard: 1 - a.b alone is not 0 for equal rows, and near 0
    # it keeps only an absolute accuracy of about 1e-16
    a = rng.normal(size=(12, 64))
    b = rng.normal(size=(9, 64))
    a[0], b[3], b[8], a[5] = a[11], a[7], b[1], b[1]  # equal rows within and across
    equal = (a[:, None, :] == b[None, :, :]).all(axis=2)
    assert equal.sum() == 3
    costs = feature_cost(a, b)
    assert (costs[equal] == 0.0).all()
    assert (costs[~equal] > 0.1).all()
    assert (feature_cost(a, a)[(a[:, None, :] == a[None, :, :]).all(axis=2)] == 0.0).all()

    u = rng.normal(size=16)
    for scale in (3e-6, 1e-5, 3e-5):  # near-duplicate pairs among other rows
        v = u + scale * rng.normal(size=16)
        reference = _exact_cosine_distance(u, v)
        assert 1e-12 < reference < 1e-9
        cost = feature_cost(np.vstack([a[:, :16], u]), np.vstack([v, b[:, :16]]))[-1, 0]
        assert abs(cost - reference) <= 1e-6 * reference, scale

    # antiparallel rows whose unit rows are exact
    source = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, -3.0, 0.0, 0.0], [0.3, -0.2, 0.7, 0.1]])
    target = np.array([[0.0, 5.0, 0.0, 0.0], [0.5, 0.1, -0.2, 0.4], [-2.0, -2.0, -2.0, -2.0]])
    costs = feature_cost(source, target)
    assert costs[0, 2] == 2.0 and costs[1, 0] == 2.0

    # random rows against the scalar definition, also where BLAS may split
    # the products' k loop (300 to 1536)
    for dim in (2, 7, 64, 256, 300, 384, 768, 1536):
        a = rng.normal(size=(20, dim))
        b = rng.normal(size=(20, dim))
        costs = feature_cost(a, b)
        for i, j in np.ndindex(costs.shape):
            assert abs(costs[i, j] - cosine_distance(a[i], b[j])) <= 1e-15, (dim, i, j)


@pytest.mark.parametrize("dim", [16, 300, 384, 768, 1536])
@pytest.mark.parametrize("values", ["normal", "integer"])
def test_feature_cost_and_cosine_distance_against_exact_arithmetic(rng, dim, values):
    # the scalar reference rounds the exact value once (its sums keep the
    # extended precision of np.longdouble); at 300 dimensions a float64
    # reference strayed 5 ulps
    a = rng.normal(size=(8, dim))
    b = rng.normal(size=(8, dim))
    if values == "integer":
        a, b = np.round(3 * a), np.round(3 * b)
        a[:, 0] += 0.5
        b[:, 0] += 0.5
    costs = feature_cost(a, b)
    for i, j in np.ndindex(costs.shape):
        exact = _exact_cosine_distance(a[i], b[j])
        assert abs(costs[i, j] - exact) <= 1e-15, (i, j)
        assert abs(cosine_distance(a[i], b[j]) - exact) <= 0.51 * math.ulp(exact), (i, j)


def test_self_cost_memory_is_bounded_by_the_unit_rows():
    # beyond its output, the cost of 481 rows of 256 dimensions holds the
    # unit rows of one block and of the rows before it, and one block of
    # costs; the difference tensors of 64-row blocks held 63 MB, and a
    # mirror through index arrays of the upper triangle peaked 1.1 MB higher
    rows = np.random.default_rng(0).normal(size=(481, 256))
    tracemalloc.start()
    try:
        out = self_cost(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + rows.nbytes + 2**20
    # equal rows recost every entry: their differences are taken len(rows)
    # pairs at a time, beside the entries' indices
    rows = np.tile(rows[:1], (120, 1))
    tracemalloc.start()
    try:
        out = feature_cost(rows, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not out.any()
    assert peak < 3 * out.nbytes + 4 * rows.nbytes + 2**20


def test_self_cost_normalizes_each_row_once(monkeypatch):
    # every 64-row block is costed from one normalization of the 481 rows;
    # normalizing the rows up to each block's end takes 2,754
    import rdkg.embeddings as module

    normalized = []
    original = module._unit_rows
    monkeypatch.setattr(module, "_unit_rows",
                        lambda matrix: normalized.append(len(matrix)) or original(matrix))
    rows = np.random.default_rng(0).normal(size=(481, 256))
    out = self_cost(rows)
    assert normalized == [481]
    monkeypatch.undo()
    assert _same_bits(out, feature_cost(rows, rows))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 30),
    dim=st.sampled_from([1, 2, 7, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.integers(0, 6),
    data=st.data(),
)
def test_feature_cost_entries_do_not_depend_on_the_rest_of_the_call(
    n, m, dim, seed, duplicates, data
):
    # the premise of CostMemo and self_cost: an entry depends on its two rows only
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim))
    b = rng.normal(size=(m, dim))
    for _ in range(duplicates):  # repeated rows within and across the two sets
        b[rng.integers(m)] = b[rng.integers(m)]
        a[rng.integers(n)] = b[rng.integers(m)]
        a[rng.integers(n)] = a[rng.integers(n)]
    full = feature_cost(a, b)
    j = data.draw(st.integers(0, m - 1), label="column")
    assert np.array_equal(feature_cost(a, b[j : j + 1])[:, 0], full[:, j])
    columns = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
                        label="columns")
    assert np.array_equal(feature_cost(a, b[columns]), full[:, columns])
    assert np.array_equal(feature_cost(b, a), full.T)
    start = data.draw(st.integers(0, n), label="start")
    block = data.draw(st.integers(1, 70), label="block")
    with mock.patch.object(embeddings, "_SELF_COST_BLOCK", block):
        assert np.array_equal(self_cost(a, start), feature_cost(a, a)[start:])


TILE_SIZES = (1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 256, 300, 768])
def test_feature_cost_entries_keep_their_bits_at_every_tile_position(rng, dim):
    # each entry comes from a BLAS call of one shape wherever its rows sit:
    # around the tile boundaries, a pair's bits follow it through row
    # permutations and to every position, the rows' memory layout does not
    # matter, and one buffer passed twice (numpy's syrk path) never
    # reaches BLAS
    for n, m in itertools.product(TILE_SIZES, TILE_SIZES):
        a = rng.normal(size=(n, dim))
        b = rng.normal(size=(m, dim))
        full = feature_cost(a, b)
        assert full.flags.c_contiguous
        p, q = rng.permutation(n), rng.permutation(m)
        assert _same_bits(feature_cost(a[p], b[q]), full[np.ix_(p, q)]), (n, m)
        assert _same_bits(feature_cost(b, a), full.T), (n, m)
        assert _same_bits(feature_cost(np.asfortranarray(a), b), full), (n, m)
        # the pair (a[0], b[0]) at every position of an n x m call
        everywhere = feature_cost(np.tile(a[:1], (n, 1)), np.tile(b[:1], (m, 1)))
        assert (everywhere.view(np.int64) == full.view(np.int64)[0, 0]).all(), (n, m)
        units = {f"u{i}": row for i, row in enumerate(a)}
        texts = {f"t{j}": row for j, row in enumerate(b)}
        rows = {**units, **texts}
        memo = CostMemo(lambda keys: np.stack([rows[k] for k in keys]), list(units))
        costs = memo.unit_cost(list(texts))
        assert costs.flags.c_contiguous and _same_bits(costs, full), (n, m)
    for n in TILE_SIZES:
        a = rng.normal(size=(n, dim))
        same = feature_cost(a, a)
        assert _same_bits(feature_cost(a, a.copy()), same), n
        assert _same_bits(self_cost(a), same), n


def test_cost_memo_reads_equal_the_full_matrices():
    provider = HashEmbedder(dim=32)
    units = ["alpha beta", "gamma", "delta epsilon", "alpha beta"]
    memo = CostMemo(provider.embed, units)
    unit_rows = provider.embed(units)
    assert np.array_equal(memo.unit_rows, unit_rows)
    for texts in (["x y", "gamma", "x y"], ["z", "gamma", "w v"], ["x y"], ["w v", "z"]):
        rows = provider.embed(texts)
        costs = memo.unit_cost(texts)
        assert np.array_equal(costs, feature_cost(unit_rows, rows))
        assert costs.flags.c_contiguous  # the solver reads it row-major
        assert np.array_equal(memo.pair_cost(texts), feature_cost(rows, rows))


def test_cost_memo_costs_each_text_once(monkeypatch):
    import rdkg.embeddings as module

    provider = HashEmbedder(dim=32)
    costed = []
    original = module._cost

    def spy(a, b, n, m):  # the kernel behind feature_cost and self_cost
        costed.append((n, m))
        return original(a, b, n, m)

    monkeypatch.setattr(module, "_cost", spy)
    memo = CostMemo(provider.embed, ["u one", "u two", "u three"])
    memo.unit_cost(["a", "b", "a"])
    assert costed == [(3, 2), (2, 2)]  # the units, then the half triangle
    memo.pair_cost(["b", "a"])
    memo.unit_cost(["a"])
    assert len(costed) == 2
    memo.pair_cost(["c", "a"])
    assert costed[2:] == [(3, 1), (3, 1)]  # the new text against the units, then all three against it

"""Lecture metric-measure space construction."""

import json
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdkg.embeddings import feature_cost
from rdkg.errors import InputError
from rdkg.lecture import (
    DEFAULT_ALPHA,
    LectureElement,
    LectureSpace,
    build_lecture_space,
    chron_distance,
    flatten,
    fuse,
    load_lecture_space,
    logic_distance,
    minmax_normalize,
    save_lecture_space,
    uniform_measure,
)
from rdkg.markdown import parse_markdown

from conftest import two_topic_markdown


def elems(*paths_idx):
    return [
        LectureElement(id=f"u{i}", idx=i, section_path=tuple(p), content=f"unit {i}")
        for i, p in enumerate(paths_idx)
    ]


# --- flatten -----------------------------------------------------------------


def test_flatten_basic():
    out = flatten(parse_markdown("# A\ntext here\n## B\nmore text"))
    assert [(e.idx, e.section_path, e.content) for e in out] == [
        (0, ("A",), "text here"),
        (1, ("A", "B"), "more text"),
    ]


def test_flatten_no_heading_gets_root_path():
    out = flatten(parse_markdown("just a paragraph"))
    assert len(out) == 1
    assert out[0].section_path == ("<root>",)


def test_flatten_idx_contract():
    out = flatten(parse_markdown("# A\none one\n\ntwo two\n\nthree three"))
    assert [e.idx for e in out] == [0, 1, 2]


def test_flatten_order_preserved_under_idx_sort():
    out = flatten(parse_markdown(two_topic_markdown()))
    assert out == sorted(out, key=lambda e: e.idx)


def test_flatten_drops_tiny_units():
    out = flatten(parse_markdown("# A\nok text\n\nxy\n\nlonger unit"))
    assert [e.content for e in out] == ["ok text", "longer unit"]
    assert [e.idx for e in out] == [0, 1]


def test_flatten_empty_tree_rejected():
    with pytest.raises(InputError, match="no atomic units"):
        flatten(parse_markdown("# A\n## B"))


# --- component distances -----------------------------------------------------


def test_chron_endpoints_and_diagonal():
    d = chron_distance(elems(["A"], ["A"], ["A"]))
    assert d[0, 2] == 1.0
    assert np.allclose(np.diag(d), 0.0)
    assert np.allclose(d, d.T)


def test_chron_single_element():
    assert chron_distance(elems(["A"])).shape == (1, 1)


def test_chron_respects_idx_values():
    items = [
        LectureElement(id="a", idx=0, section_path=("A",), content="a"),
        LectureElement(id="b", idx=4, section_path=("A",), content="b"),
    ]
    assert chron_distance(items)[0, 1] == 1.0


def test_chron_adjacent_below_extremes():
    d = chron_distance(elems(["A"], ["A"], ["A"], ["A"]))
    assert d[0, 1] < d[0, 3]


def test_logic_identical_max_depth_paths():
    d = logic_distance(elems(["A", "B"], ["A", "B"]))
    assert d[0, 1] == 0.0


def test_logic_disjoint_roots():
    d = logic_distance(elems(["A"], ["B"]))
    assert d[0, 1] == 1.0


def test_logic_half_shared():
    d = logic_distance(elems(["A", "B"], ["A", "C"]))
    assert d[0, 1] == pytest.approx(0.5)


def test_logic_diagonal_reflects_depth():
    d = logic_distance(elems(["A"], ["A", "B"]))
    assert d[0, 0] == pytest.approx(0.5)  # depth 1 of max_depth 2
    assert d[1, 1] == 0.0


def scalar_logic_distance(paths):
    """1 - LCP / max_depth, one pair and one path entry at a time."""
    max_depth = max(len(p) for p in paths)
    d = np.empty((len(paths), len(paths)))
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            lcp = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                lcp += 1
            d[i, j] = 1.0 - lcp / max_depth
    return d


_section_paths = st.one_of(
    st.just(("<root>",)),
    st.lists(st.sampled_from("ABC"), min_size=1, max_size=5).map(tuple),
)


def _seeded_paths(n=200, seed=0):
    """``n`` paths drawn with replacement from 40 paths of depths 1 to 5, so
    an equal path recurs with other paths between."""
    rng = np.random.default_rng(seed)
    pool = [tuple(str(t) for t in rng.choice(list("ABC"), size=depth))
            for depth in [1, 2, 3, 4, 5] * 8]
    return [pool[i] for i in rng.integers(len(pool), size=n)]


@given(st.lists(_section_paths, min_size=1, max_size=12))
@example(paths=_seeded_paths())
@settings(max_examples=150, deadline=None)
def test_logic_equals_the_scalar_prefix_reference(paths):
    # ragged depths, shared prefixes, the same title at another depth,
    # and root-only units; LCP counts are integers, so equality is exact
    assert np.array_equal(logic_distance(elems(*paths)), scalar_logic_distance(paths))


def test_semantic_trivial_cases():
    e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    d = feature_cost(e, e)
    assert d[0, 0] == 0.0
    assert d[0, 1] == pytest.approx(2.0)
    assert d[0, 2] == pytest.approx(1.0)


# --- fusion and measure --------------------------------------------------------


def test_combine_pair_with_all_components_at_one():
    # pair (0,1) has every component at 1.0: the convex combination gives
    # 1.0 there, the off-diagonal maximum, which min-max keeps at 1.0
    comp = np.array([
        [0.0, 1.0, 0.4],
        [1.0, 0.0, 0.2],
        [0.4, 0.2, 0.0],
    ])
    d = fuse("alpha", (0.2, 0.3, 0.5), [comp, comp, comp])
    assert d[0, 1] == pytest.approx(1.0)


def test_combine_constant_components_give_zero():
    z = np.zeros((3, 3))
    assert fuse("alpha", DEFAULT_ALPHA, [z, z, z]).sum() == 0.0


def test_combine_reduction_to_single_component(rng):
    c = rng.random((4, 4))
    c = (c + c.T) / 2
    np.fill_diagonal(c, 0)
    z = np.zeros_like(c)
    d = fuse("alpha", (1.0, 0.0, 0.0), [c, z, z])
    assert np.allclose(d, minmax_normalize(c))


def test_combine_invalid_weights():
    z = np.zeros((2, 2))
    with pytest.raises(InputError, match="invalid weights"):
        fuse("alpha", (0.5, 0.2, 0.2), [z, z, z])


@given(st.permutations([0, 1, 2]))
@settings(max_examples=12, deadline=None)
def test_alpha_permutation_invariance(perm):
    # permuting the (weight, matrix) pairs together must not change d_Z
    rng = np.random.default_rng(7)
    comps = []
    for _ in range(3):
        c = rng.random((5, 5))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 0)
        comps.append(c)
    alpha = (0.2, 0.3, 0.5)
    base = fuse("alpha", alpha, comps)
    swapped = fuse(
        "alpha", tuple(alpha[i] for i in perm), [comps[i] for i in perm]
    )
    assert np.allclose(base, swapped)


# The plain forms of the N^2 layers, kept as oracles: the layers must
# return the same bits with fewer passes and temporaries.


def plain_chron_distance(elements):
    if len(elements) == 1:
        return np.zeros((1, 1))
    idx = np.array([e.idx for e in elements], dtype=np.float64)
    return np.abs(idx[:, None] - idx[None, :]) / idx.max()


def plain_minmax_normalize(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if n <= 1:
        return np.zeros_like(m)
    off = ~np.eye(n, dtype=bool)
    lo = m[off].min()
    hi = m[off].max()
    out = np.zeros_like(m)
    if hi > lo:
        out[off] = (m[off] - lo) / (hi - lo)
    return out


def plain_fuse(weights, components):
    w = np.asarray(weights, dtype=np.float64)
    fused = w[0] * components[0]
    for weight, component in zip(w[1:], components[1:]):
        fused = fused + weight * component
    return plain_minmax_normalize(fused)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 217])
def test_the_n2_layers_return_the_bits_of_their_plain_forms(rng, n):
    def same(x, y):
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    symmetric = rng.random((n, n))
    symmetric = symmetric + symmetric.T
    np.fill_diagonal(symmetric, 0.0)
    matrices = [
        rng.normal(size=(n, n)),  # random, diagonal included
        symmetric,
        np.full((n, n), 0.25),  # constant
        np.where(np.eye(n, dtype=bool), 9.0, 0.5),  # constant off the diagonal
        np.round(4 * rng.random((n, n))),  # ties at the minimum and maximum
        rng.normal(size=(n, n)).T,  # not C-contiguous
    ]
    for k, m in enumerate(matrices):
        before = m.copy()
        assert same(minmax_normalize(m), plain_minmax_normalize(m)), k
        assert same(m, before), k
    components = [rng.random((n, n)) for _ in range(3)]
    for weights in (DEFAULT_ALPHA, (1.0, 0.0, 0.0), (0.45, 0.15, 0.4)):
        assert same(fuse("alpha", weights, components), plain_fuse(weights, components))
    steps = rng.integers(1, 4, size=n)  # increasing idx with gaps
    elements = [LectureElement(id=f"u{i}", idx=int(idx), section_path=("A",), content="x")
                for i, idx in enumerate(np.cumsum(steps) - steps[0])]
    assert same(chron_distance(elements), plain_chron_distance(elements))


def test_uniform_measure_values():
    assert np.allclose(uniform_measure(4), [0.25] * 4)
    assert uniform_measure(1)[0] == 1.0
    assert abs(uniform_measure(3).sum() - 1.0) < 1e-12
    with pytest.raises(InputError):
        uniform_measure(0)


# --- full space + artifact -----------------------------------------------------


def test_build_space_invariants(provider):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    d = space.distance
    assert np.array_equal(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    assert d.min() >= 0.0 and d.max() <= 1.0
    assert abs(space.measure.sum() - 1.0) < 1e-9
    # the three components the space fuses
    elements = flatten(parse_markdown(two_topic_markdown()))
    embeddings = provider.embed([e.content for e in elements])
    for comp in (chron_distance(elements), logic_distance(elements),
                 minmax_normalize(feature_cost(embeddings, embeddings))):
        assert np.array_equal(comp, comp.T)
        assert comp.min() >= -1e-12 and comp.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, (0.45, 0.15, 0.4)])
def test_build_space_equals_the_hand_written_fusion(provider, alpha):
    # the fusion the lecture space had before it shared fuse, bit for bit
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed, alpha=alpha)
    elements = flatten(parse_markdown(two_topic_markdown()))
    rows = provider.embed([e.content for e in elements])
    a = np.asarray(alpha, dtype=np.float64)
    reference = minmax_normalize(
        a[0] * chron_distance(elements)
        + a[1] * logic_distance(elements)
        + a[2] * minmax_normalize(feature_cost(rows, rows))
    )
    assert np.array_equal(space.distance, reference)


def test_artifact_round_trip(provider, tmp_path):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    path = tmp_path / "space.json"
    save_lecture_space(space, path)
    loaded = load_lecture_space(path)
    assert np.array_equal(loaded.distance, space.distance)
    assert np.array_equal(loaded.measure, space.measure)
    assert loaded.elements == space.elements
    assert loaded.alpha == space.alpha
    save_lecture_space(loaded, tmp_path / "space2.json")
    assert (tmp_path / "space.json").read_bytes() == (tmp_path / "space2.json").read_bytes()


def artifact_document(space):
    """The artifact as one document of Python values."""
    return {
        "format": 2,
        "elements": [{"id": e.id, "idx": e.idx, "path": list(e.section_path),
                      "content": e.content} for e in space.elements],
        "mu": space.measure.tolist(),
        "d": space.distance.tolist(),
        "alpha": list(space.alpha),
        "fingerprint": space.fingerprint,
    }


def old_artifact_text(space):
    """The artifact's bytes as one orjson.dumps of the whole document, the
    one-shot dump the row-by-row writer must reproduce."""
    return orjson.dumps(artifact_document(space)).decode("utf-8")


# entries that print in exponent form (1e-05 as 0.00001 in orjson), the
# smallest subnormal, and any others
_DISTANCES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 1e-300, 1 / 3]),
                       st.floats(0.0, 1.0))


def _as_layout(d, layout):
    """``d`` in C order, in Fortran order, or as a strided view."""
    if layout == "F":
        return np.asfortranarray(d)
    if layout == "strided":
        wide = np.zeros((d.shape[0], 2 * d.shape[1]))
        wide[:, ::2] = d
        return wide[:, ::2]
    return d


@st.composite
def lecture_spaces(draw):
    n = draw(st.integers(1, 7))
    iu = np.triu_indices(n, 1)
    d = np.zeros((n, n))
    d[iu] = draw(st.lists(_DISTANCES, min_size=len(iu[0]), max_size=len(iu[0])))
    d.T[iu] = d[iu]
    d = _as_layout(d, draw(st.sampled_from(["C", "F", "strided"])))
    weights = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    texts = st.text(min_size=1, max_size=12)
    elements = [
        LectureElement(id=f"u{i}", idx=i, section_path=tuple(draw(st.lists(texts, max_size=3))),
                       content=draw(st.one_of(st.just("Größe ∑ 𝛼 — ünits"), texts)))
        for i in range(n)
    ]
    return LectureSpace(
        elements=elements,
        distance=d,
        measure=draw(st.sampled_from([uniform_measure(n), weights / weights.sum()])),
        alpha=draw(st.sampled_from([DEFAULT_ALPHA, (0.45, 0.15, 0.4)])),
        fingerprint=draw(st.sampled_from([None, {"kind": "hash", "dim": 256, "seed": 0}])),
    )


@settings(max_examples=150, deadline=None)
@given(space=lecture_spaces())
def test_artifact_bytes_equal_one_dump_of_the_document(space, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "space.json"
    save_lecture_space(space, path)
    data = path.read_bytes()
    assert data == old_artifact_text(space).encode("utf-8")
    # a stdlib reader gets back every float bit for bit and every string exactly
    doc, expected = json.loads(data), artifact_document(space)
    for key in ("d", "mu", "alpha"):
        got, want = np.array(doc.pop(key), dtype=np.float64), np.array(expected.pop(key))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), key
    assert doc == expected


def test_artifact_save_peaks_below_8_mib_at_n_481(tmp_path):
    # one json.dumps of the whole document peaked at about 15.8 MiB here
    n = 481
    a = np.random.default_rng(0).random((n, n))
    d = (a + a.T) / 2
    np.fill_diagonal(d, 0.0)
    space = LectureSpace(
        elements=[LectureElement(id=f"u{i}", idx=i, section_path=("S", f"T{i % 7}"),
                                 content=f"unit {i} of the lecture") for i in range(n)],
        distance=d,
        measure=uniform_measure(n),
        alpha=DEFAULT_ALPHA,
    )
    tracemalloc.start()
    try:
        save_lecture_space(space, tmp_path / "space.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (tmp_path / "space.json").read_bytes() == old_artifact_text(space).encode("utf-8")


def one_row_per_dumps_bytes(space):
    """The artifact's bytes as a writer that makes one orjson.dumps per row
    of ``d`` writes them."""
    doc = artifact_document(space)
    del doc["d"]
    tail = orjson.dumps({key: doc.pop(key) for key in ("alpha", "fingerprint")})
    rows = b",".join(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
                     for row in space.distance)
    return orjson.dumps(doc)[:-1] + b',"d":[' + rows + b"]," + tail[1:]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 481])
def test_artifact_bytes_equal_a_one_row_per_dumps_writer(tmp_path, n):
    # d is written several rows per dumps call, around and across its chunks
    rng = np.random.default_rng(n)
    a = rng.random((n, n))
    a.flat[rng.integers(n * n, size=n)] = rng.choice([1e-05, 5e-324, 1 / 3, 1.0], size=n)
    d = np.minimum(a, a.T)
    np.fill_diagonal(d, 0.0)
    space = LectureSpace(
        elements=[LectureElement(id=f"u{i}", idx=i, section_path=("S", f"T{i % 7}"),
                                 content=f"unit {i} — ünits") for i in range(n)],
        distance=d,
        measure=uniform_measure(n),
        alpha=DEFAULT_ALPHA,
        fingerprint={"kind": "hash", "dim": 256, "seed": 0},
    )
    save_lecture_space(space, tmp_path / "space.json")
    assert (tmp_path / "space.json").read_bytes() == one_row_per_dumps_bytes(space)


@pytest.mark.parametrize("i, j, value, message", [
    (0, 1, 0.5, "not exactly symmetric"),
    (0, 1, -0.0, "not exactly symmetric"),  # equal to 0.0, but it prints as -0.0
    (1, 2, float("nan"), "non-finite"),
])
def test_artifact_save_refuses_a_broken_distance_and_writes_nothing(provider, tmp_path,
                                                                   i, j, value, message):
    space = build_lecture_space(two_topic_markdown(), embed=provider.embed)
    space.distance[0, 1] = space.distance[1, 0] = 0.0
    space.distance[i, j] = value
    path = tmp_path / "space.json"
    with pytest.raises(InputError, match=message):
        save_lecture_space(space, path)
    assert not path.exists()


def test_artifact_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="malformed"):
        load_lecture_space(bad)

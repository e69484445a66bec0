import hashlib
import json
import pickle
import tempfile
import tracemalloc
from itertools import permutations, product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polyface.families import (
    _PHI3_ORDER,
    IndexScheme,
    VertexSet,
    bqp_scheme,
    bqp_vertices,
    compose,
    coordinate_map,
    edge_index,
    edge_list,
    generate,
    inverse,
    label,
    lex_vertices,
    phi_scheme,
    phi_vertex,
    phi_vertices,
    qap_scheme,
    qap_vertex,
    qap_vertices,
    scheme_for,
)

# The six 3x3 edge matrices of K_3 in display order: identity, the two
# 3-cycles, then the transpositions (13), (12), (23).
PHI3_MATRICES = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
]


def as_matrix(dense, nrows):
    return tuple(tuple(dense[r * nrows + c] for c in range(nrows)) for r in range(nrows))


def test_edge_index_examples():
    assert edge_index(1, 2, 4) == 0
    assert edge_index(3, 4, 4) == 5
    # lexicographic edge list of K_5: (1,2),(1,3),(1,4),(1,5),(2,3),(2,4),...
    assert edge_list(5).index((2, 4)) == 5
    assert edge_index(2, 4, 5) == 5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edge_images_are_the_edge_index_of_each_image(n):
    """_edge_images is the edge_index of each image edge, in edge-list order, for every permutation."""
    from polyface.families import _edge_images

    for p in permutations(range(n)):
        reference = [edge_index(*sorted((p[i - 1] + 1, p[j - 1] + 1)), n) for i, j in edge_list(n)]
        assert _edge_images(p) == reference


def test_edge_index_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_index(2, 2, 4)
    with pytest.raises(ValueError):
        edge_index(3, 1, 4)
    with pytest.raises(ValueError):
        edge_index(1, 5, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_edge_index_matches_edge_list(n):
    for k, (i, j) in enumerate(edge_list(n)):
        assert edge_index(i, j, n) == k


def test_schemes_encode_decode_round_trip():
    """encode maps the index box one to one onto range(ambient_dim)."""
    q = qap_scheme(3)
    box = product(range(1, 4), repeat=4)
    assert sorted(q.encode(*idx) for idx in box) == list(range(q.ambient_dim))
    p = phi_scheme(4)
    assert sorted(p.encode(e, f) for e in edge_list(4) for f in edge_list(4)) == list(range(p.ambient_dim))
    b = bqp_scheme(3)
    box = product(range(1, 4), repeat=2)
    assert sorted(b.encode(*idx) for idx in box) == list(range(b.ambient_dim))


@pytest.mark.parametrize(
    "family, n, index",
    [
        ("bqp", 3, (0, 1)),
        ("bqp", 3, (1, 4)),
        ("qap", 3, (1, 1, 1, 0)),
        ("qap", 3, (4, 1, 1, 1)),
        ("phi", 4, ((1, 2), (2, 5))),
        ("phi", 4, ((2, 1), (1, 2))),
    ],
)
def test_encode_rejects_an_out_of_range_index(family, n, index):
    with pytest.raises(ValueError, match="out of range|need 1 <= i < j <= n"):
        scheme_for(family, n).encode(*index)


@pytest.mark.parametrize("family, n", [("bqp", 3), ("qap", 3), ("phi", 4)])
def test_scheme_is_a_value(family, n):
    """A scheme pickles, compares and hashes by its fields, as a worker process receives it."""
    s = pickle.loads(pickle.dumps(scheme_for(family, n)))
    assert s == scheme_for(family, n) and hash(s) == hash(scheme_for(family, n))
    assert s != scheme_for(family, n + 1)


def test_unknown_family_is_one_error():
    for build in (scheme_for, generate):
        with pytest.raises(ValueError, match="unknown family 'xyz'"):
            build("xyz", 3)


def test_bqp_counts_and_guard():
    assert len(bqp_vertices(2)) == 4
    assert len(bqp_vertices(3)) == 8
    with pytest.raises(ValueError):
        bqp_vertices(1)


def test_bqp_zero_generator_is_zero_vector():
    vs = bqp_vertices(2)
    assert vs.labels[0] == "00"
    assert vs.vertices[0] == ()
    assert vs.dense(0) == (0, 0, 0, 0)


def test_bqp_vertices_satisfy_product_identity():
    for m in (2, 3):
        vs = bqp_vertices(m)
        for idx in range(len(vs)):
            x = vs.dense(idx)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    xij = x[(i - 1) * m + (j - 1)]
                    assert xij == x[(i - 1) * m + (i - 1)] * x[(j - 1) * m + (j - 1)]


def test_qap_identity_n2_ones():
    v = qap_vertex((0, 1))
    s = qap_scheme(2)
    expected = sorted(s.encode(*t) for t in [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1), (2, 2, 2, 2)])
    assert list(v) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qap_vertex_tensor_square_identity_and_sums(n):
    s = qap_scheme(n)
    for images in permutations(range(n)):
        y = [0] * s.ambient_dim
        for off in qap_vertex(images):
            y[off] = 1
        diag = lambda i, j: y[s.encode(i, j, i, j)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        assert y[s.encode(i, j, k, l)] == diag(i, j) * diag(k, l)
        for i in range(1, n + 1):
            assert sum(diag(i, j) for j in range(1, n + 1)) == 1
        for j in range(1, n + 1):
            assert sum(diag(i, j) for i in range(1, n + 1)) == 1


def test_qap_counts_distinct_and_ones():
    for n in (2, 3, 4):
        vs = qap_vertices(n)
        assert len(vs) == factorial(n)
        assert len(set(vs.vertices)) == len(vs)
        for v in vs.vertices:
            assert len(v) == n * n


def test_phi3_display_order_matches_golden_matrices():
    vs = phi_vertices(3)
    assert vs.labels == ("123", "231", "312", "321", "213", "132")
    for idx, want in enumerate(PHI3_MATRICES):
        assert as_matrix(vs.dense(idx), 3) == want


def test_phi3_lex_order_is_sorted_labels():
    for n in (4, 5):
        vs = phi_vertices(n)
        assert vs.labels == tuple(sorted(vs.labels))


def test_phi_vertex_row_and_column_sums():
    for n in (3, 4, 5):
        ne = comb(n, 2)
        for images in permutations(range(n)):
            dense = [0] * (ne * ne)
            for off in phi_vertex(images):
                dense[off] = 1
            m = as_matrix(tuple(dense), ne)
            assert all(sum(row) == 1 for row in m)
            assert all(sum(col) == 1 for col in zip(*m))


def test_phi_counts_and_ones():
    assert len(phi_vertices(4)) == 24
    assert phi_scheme(4).ambient_dim == 36
    vs5 = phi_vertices(5)
    assert len(vs5) == 120
    assert all(len(v) == 10 for v in vs5.vertices)


def test_phi_vertex_injective_and_homomorphism():
    n = 4
    ne = comb(n, 2)
    seen = set()
    perms = list(permutations(range(n)))
    for p in perms:
        seen.add(phi_vertex(p))
    assert len(seen) == factorial(n)
    # representation property: matrix of (p then q) = matrix(p) * matrix(q)
    for p in perms[:8]:
        for q in perms[:8]:
            mp = as_matrix_dense(phi_vertex(p), ne)
            mq = as_matrix_dense(phi_vertex(q), ne)
            mpq = as_matrix_dense(phi_vertex(compose(q, p)), ne)
            prod = tuple(
                tuple(sum(mp[r][k] * mq[k][c] for k in range(ne)) for c in range(ne)) for r in range(ne)
            )
            assert prod == mpq


def as_matrix_dense(offsets, ne):
    dense = [0] * (ne * ne)
    for off in offsets:
        dense[off] = 1
    return as_matrix(tuple(dense), ne)


def test_permutation_basics():
    p = (1, 2, 0)
    assert label(p) == "231"
    assert label(inverse(p)) == "312"
    assert compose(inverse(p), p) == compose(p, inverse(p)) == (0, 1, 2)
    assert compose(p, (1, 0, 2)) == (2, 1, 0)  # (1 2) first, then p


def _assert_move_acts(scheme, make, a, b, transpose):
    """coordinate_map carries vertex(p) onto vertex(b.p.a^-1), or vertex(b.p^-1.a^-1) with transpose."""
    cmap = coordinate_map(scheme, a, b, transpose)
    for p in permutations(range(scheme.n)):
        q = compose(b, compose(inverse(p) if transpose else p, inverse(a)))
        assert tuple(sorted(cmap[o] for o in make(p))) == make(q)


@pytest.mark.parametrize("family", ["qap", "phi"])
def test_coordinate_map_acts_on_every_vertex_n3(family):
    scheme = qap_scheme(3) if family == "qap" else phi_scheme(3)
    make = qap_vertex if family == "qap" else phi_vertex
    perms = list(permutations(range(3)))
    moves = list(product(perms, perms, (False, True)))
    assert len(moves) == 72
    for a, b, transpose in moves:
        _assert_move_acts(scheme, make, a, b, transpose)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["qap", "phi"]),
    st.permutations(range(4)),
    st.permutations(range(4)),
    st.booleans(),
)
def test_coordinate_map_acts_on_every_vertex_n4(family, a, b, transpose):
    scheme = qap_scheme(4) if family == "qap" else phi_scheme(4)
    make = qap_vertex if family == "qap" else phi_vertex
    _assert_move_acts(scheme, make, tuple(a), tuple(b), transpose)


def test_vertex_set_json_round_trip(tmp_path):
    vs = phi_vertices(3)
    path = tmp_path / "phi3.json"
    vs.save(path)
    back = VertexSet.load(path)
    assert back.labels == vs.labels
    assert back.vertices == vs.vertices
    assert back.scheme == vs.scheme
    # bit-exact: the file holds only integers and strings
    text = path.read_text()
    assert "." not in text.replace('".json"', "")


@st.composite
def _vertex_sets(draw):
    """A vertex set of a real scheme whose offsets run to 4 digits (bqp(100), qap(10), phi(14)): up to six
    vertices, the empty vertex among the draws, and labels of any text (non-ASCII, quotes, backslashes,
    control characters)."""
    family, n = draw(st.sampled_from([("bqp", 2), ("bqp", 100), ("qap", 3), ("qap", 10), ("phi", 14)]))
    scheme = scheme_for(family, n)
    offsets = st.frozensets(st.integers(0, scheme.ambient_dim - 1), max_size=5)
    vertices = tuple(tuple(sorted(v)) for v in draw(st.lists(offsets, max_size=6, unique=True)))
    labels = tuple(draw(st.lists(st.text(), min_size=len(vertices), max_size=len(vertices))))
    return VertexSet(scheme, labels, vertices)


@settings(max_examples=200, deadline=None)
@given(_vertex_sets())
def test_save_writes_the_bytes_of_json_dumps(vs):
    """save writes exactly json.dumps(to_json(), indent=1) and a newline, and load reads the set back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vs.json"
        vs.save(path)
        assert path.read_bytes() == (json.dumps(vs.to_json(), indent=1) + "\n").encode()
        assert VertexSet.load(path) == vs


def test_save_streams_the_rows(tmp_path):
    """Saving qap(6) (225 KB) holds no copy of the file, nor a list per vertex, at any one time."""
    vs = qap_vertices(6)
    path = tmp_path / "qap6.json"
    tracemalloc.start()
    try:
        vs.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 3


def test_vertex_file_header_with_a_large_n_is_refused_without_building_it():
    # the header's ambient_dim is checked before anything of size C(n,2) exists
    data = {"family": "phi", "n": 1000, "ambient_dim": 9, "labels": [], "vertices": []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ambient_dim"):
            VertexSet.from_json(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "family, n", [("qap", n) for n in range(2, 7)] + [("phi", n) for n in range(3, 7)] + [("bqp", m) for m in range(2, 10)]
)
def test_generate_matches_the_dense_definitions(family, n):
    """Labels, vertices and their order as read off P (x) P, the edge matrix and u (x) u (oracles)."""
    vs = generate(family, n)
    assert (vs.labels, vs.vertices) == oracles.dense_family(family, n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([7, 8]).flatmap(lambda n: st.permutations(range(n))))
def test_vertices_at_n_7_and_8_match_the_dense_definitions(p):
    p = tuple(p)
    assert qap_vertex(p) == oracles.dense_qap_vertex(p)
    assert phi_vertex(p) == oracles.dense_phi_vertex(p)


@pytest.mark.parametrize("family, n", [("qap", n) for n in range(3, 8)] + [("phi", n) for n in range(3, 8)])
def test_table_built_vertex_sets_match_each_permutations_vertex(family, n):
    """The vertices read off order n-1 tables, and the joined labels, are those of qap_vertex, phi_vertex and
    label for each permutation in turn: lex order, or phi(3)'s display order; lex_vertices is lex order always."""
    make = qap_vertex if family == "qap" else phi_vertex
    perms = list(permutations(range(n)))
    assert lex_vertices(family, n) == list(map(make, perms))
    if (family, n) == ("phi", 3):
        perms = _PHI3_ORDER
    vs = generate(family, n)
    assert vs.labels == tuple(map(label, perms))
    assert vs.vertices == tuple(map(make, perms))


@pytest.mark.parametrize("family, n", [("qap", 6), ("phi", 7)])
def test_table_built_vertices_share_one_int_per_offset(family, n):
    """Each offset value occurs as one int object across the whole vertex set (phi(7): offsets past the
    small ints CPython caches)."""
    vs = generate(family, n)
    offsets = [o for v in vs.vertices for o in v]
    assert len(set(map(id, offsets))) == len(set(offsets))


# sha256 of the files VertexSet.save writes for these sets; the CLI outputs digest pins only orders 3 and 4.
GENERATED_FILE_DIGESTS = {
    ("qap", 5): "c54d44e321a1993a7723d0a7a4c099380c167d5d05adf9630f8faddab13f0901",
    ("qap", 6): "2211a39ded18ac8eda57ead3790ec0b48741bcb5835c22d47b1cf4f2f70fdf42",
    ("phi", 5): "a35bfedcc885cb21669ee626543055d8ffa8716988e36033f7ef734db4aa797d",
    ("phi", 6): "2eb0707f01c065d0fe6d86ca4ee6bd0a4095dd4297e2a9fbc8769e795dfaab20",
    ("bqp", 9): "3ff11ed963a4a1c6e4dd1bec6f12eead59f17182c0e4ee14b4b2145aad170430",
    ("qap", 7): "fcd76e7dbb30e352f0e11cbc163ae600fe36826c25d5571a86d636eee4eb5279",
    ("phi", 7): "63aa295271c02d259c2af7327ffc9002c74c91fcb65ba66202f9e0af2c28ba3c",
}


@pytest.mark.parametrize("family, n", list(GENERATED_FILE_DIGESTS))
def test_generated_files_are_pinned(tmp_path, family, n):
    path = tmp_path / f"{family}{n}.json"
    generate(family, n).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED_FILE_DIGESTS[family, n]


def test_generate_dispatch():
    assert len(generate("bqp", 4)) == 16
    assert len(generate("qap", 2)) == 2
    with pytest.raises(ValueError):
        generate("tsp", 4)


_FAULTS = ("negative", "equal to the dimension", "unsorted", "duplicated", "empty")


@st.composite
def _malformed_vertex_lists(draw):
    """(labels, vertices, dimension): up to five vertices, each sorted one-positions in range(dimension) with
    none to three faults applied (a negative offset, an offset equal to the dimension, two neighbours
    swapped, an offset repeated, the vertex emptied), sometimes a repeated vertex or one label short."""
    dim = draw(st.integers(1, 9))
    vertices = []
    for _ in range(draw(st.integers(1, 5))):
        v = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
            at = draw(st.integers(0, len(v)))
            if fault == "negative":
                v.insert(at, draw(st.integers(-3, -1)))
            elif fault == "equal to the dimension":
                v.insert(at, dim)
            elif fault == "unsorted" and len(v) >= 2:
                at = min(at, len(v) - 2)
                v[at], v[at + 1] = v[at + 1], v[at]
            elif fault == "duplicated" and v:
                at = min(at, len(v) - 1)
                v.insert(at, v[at])
            elif fault == "empty":
                v = []
        vertices.append(tuple(v))
    if draw(st.booleans()):
        vertices.append(draw(st.sampled_from(vertices)))
    labels = tuple(map(str, range(len(vertices) - draw(st.sampled_from([0, 0, 0, 1])))))
    return labels, tuple(vertices), dim


def _message(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


_OUT_OF_RANGE, _UNSORTED = "one-position offset out of range", "one-positions must be sorted and distinct"


@pytest.mark.parametrize(
    "vertices, message",
    [
        (((0, 4),), _OUT_OF_RANGE),
        (((-1, 2),), _OUT_OF_RANGE),
        (((2, -1, 3),), _OUT_OF_RANGE),
        (((1, 4, 2),), _OUT_OF_RANGE),
        (((2, 1),), _UNSORTED),
        (((1, 1),), _UNSORTED),
        (((), (0, 3)), None),
        (((2, 1), (0, 9)), _UNSORTED),
        (((0, 9), (2, 1)), _OUT_OF_RANGE),
    ],
    ids=[
        "last-at-dimension",
        "first-negative",
        "unsorted-negative-inside",
        "unsorted-dimension-inside",
        "unsorted",
        "repeated",
        "valid",
        "unsorted-before-out-of-range",
        "out-of-range-before-unsorted",
    ],
)
def test_vertex_checks_keep_their_precedence(vertices, message):
    """In dimension 4, each vertex is refused as out of range before as unsorted, sorted or not, and the
    first refused vertex names the error; as the offset-by-offset loop (oracles) refuses it."""
    labels, scheme = tuple(map(str, range(len(vertices)))), IndexScheme("bqp", 2, 4)
    assert _message(lambda: VertexSet(scheme, labels, vertices)) == message
    assert _message(lambda: oracles.checked_vertices(labels, vertices, 4)) == message


@settings(max_examples=400, deadline=None)
@given(_malformed_vertex_lists())
def test_vertex_checks_raise_as_the_offset_by_offset_loop(case):
    """VertexSet's range check by min and max raises what the loop over every offset (oracles) raised, in
    the same order of checks, or nothing where it raised nothing."""
    labels, vertices, dim = case
    scheme = IndexScheme("bqp", 3, dim)
    assert _message(lambda: VertexSet(scheme, labels, vertices)) == _message(
        lambda: oracles.checked_vertices(labels, vertices, dim)
    )
